package experiments

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"p4guard"
	"p4guard/internal/baseline"
	"p4guard/internal/controller"
	"p4guard/internal/p4"
	"p4guard/internal/p4rt"
	"p4guard/internal/packet"
	"p4guard/internal/switchsim"
	"p4guard/internal/trace"
)

// runRF4 reproduces the throughput figure: packets classified per second
// at the data plane (installed rules, by rule-set size) vs the controller
// slow path (stage-2 MLP per packet) vs a full-header DNN.
func runRF4(cfg Config) (*Result, error) {
	splits, err := datasets(cfg)
	if err != nil {
		return nil, err
	}
	train, test := splits["wifi-mqtt"][0], splits["wifi-mqtt"][1]
	pkts := make([]*packet.Packet, test.Len())
	for i, s := range test.Samples {
		pkts[i] = s.Pkt
	}
	// Repeat the trace so timings are measurable.
	repeat := 20
	if cfg.Quick {
		repeat = 5
	}
	var rows [][]string

	for _, depth := range []int{4, 10} {
		pipe, err := p4guard.Train(train, p4guard.Config{Seed: cfg.Seed, NumFields: 6, TreeDepth: depth})
		if err != nil {
			return nil, fmt.Errorf("RF4 depth %d: %w", depth, err)
		}
		sw, err := switchsim.New("gw-bench", packet.LinkEthernet)
		if err != nil {
			return nil, err
		}
		if _, err := sw.InstallRuleSet(pipe.RuleSet(), p4.Action{Type: p4.ActionAllow}); err != nil {
			return nil, err
		}
		var st switchsim.RunStats
		for r := 0; r < repeat; r++ {
			st = sw.Run(pkts)
		}
		_, entries := pipe.TableCost()
		rows = append(rows, []string{
			fmt.Sprintf("data-plane rules (depth %d)", depth),
			strconv.Itoa(entries),
			st.FormatPPS(),
			st.FormatPerPacket(),
		})
	}

	// Controller slow path: stage-2 MLP per packet.
	pipe, err := p4guard.Train(train, p4guard.Config{Seed: cfg.Seed, NumFields: 6})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	n := 0
	for r := 0; r < repeat; r++ {
		for _, p := range pkts {
			pipe.ClassifySlowPath(p)
			n++
		}
	}
	elapsed := time.Since(start)
	rows = append(rows, []string{
		"controller slow path (MLP)", "n/a",
		fmt.Sprintf("%.0f", float64(n)/elapsed.Seconds()),
		(elapsed / time.Duration(n)).Round(time.Nanosecond).String(),
	})

	// Slow path including the digest round trip: the packet must cross the
	// p4rt channel before the controller can classify it. Measure a real
	// TCP RPC round trip and add it to the per-packet MLP time.
	rttSW, err := switchsim.New("gw-rtt", packet.LinkEthernet)
	if err != nil {
		return nil, err
	}
	rttSrv, err := p4rt.Serve("127.0.0.1:0", rttSW, time.Millisecond)
	if err != nil {
		return nil, err
	}
	defer func() { _ = rttSrv.Close() }()
	rttCl, err := p4rt.DialContext(context.Background(), rttSrv.Addr(), "rtt-probe", nil)
	if err != nil {
		return nil, err
	}
	defer func() { _ = rttCl.Close() }()
	const rttProbes = 200
	start = time.Now()
	for i := 0; i < rttProbes; i++ {
		if err := rttCl.Heartbeat(context.Background()); err != nil {
			return nil, err
		}
	}
	rtt := time.Since(start) / rttProbes
	mlpPer := elapsed / time.Duration(n)
	slowTotal := mlpPer + rtt
	rows = append(rows, []string{
		"controller slow path (MLP + p4rt RTT)", "n/a",
		fmt.Sprintf("%.0f", float64(time.Second)/float64(slowTotal)),
		slowTotal.Round(time.Nanosecond).String(),
	})

	// Full-header DNN per packet.
	dnn := baseline.NewFullHeaderDNN(cfg.Seed)
	if err := dnn.Fit(train); err != nil {
		return nil, err
	}
	start = time.Now()
	reps := 1 + repeat/4
	for r := 0; r < reps; r++ {
		if _, err := dnn.Predict(test); err != nil {
			return nil, err
		}
	}
	elapsed = time.Since(start)
	n = reps * test.Len()
	rows = append(rows, []string{
		"full-header DNN", "n/a",
		fmt.Sprintf("%.0f", float64(n)/elapsed.Seconds()),
		(elapsed / time.Duration(n)).Round(time.Nanosecond).String(),
	})

	return &Result{
		ID: "R-F4", Title: "Data-plane vs controller-path throughput",
		Lines: table([]string{"path", "tcam entries", "pkts/sec", "per-packet"}, rows),
	}, nil
}

// runRF6 reproduces the reactive control loop figure: the detector table
// is deliberately trimmed to a tiny TCAM budget, so part of the attack
// traffic misses and streams to the controller as digests; the slow-path
// MLP classifies it and installs exact drop entries. The second pass over
// the same traffic shows the data plane absorbing what previously needed
// the slow path.
func runRF6(cfg Config) (*Result, error) {
	splits, err := datasets(cfg)
	if err != nil {
		return nil, err
	}
	train, test := splits["wifi-mqtt"][0], splits["wifi-mqtt"][1]
	var rows [][]string
	for _, budget := range []int{0, 16, 64} {
		row, err := reactivePass(cfg, train, test, budget)
		if err != nil {
			return nil, fmt.Errorf("RF6 budget %d: %w", budget, err)
		}
		rows = append(rows, row)
	}
	return &Result{
		ID: "R-F6", Title: "Reactive control loop",
		Lines: append(
			table([]string{"tcam budget", "entries", "pass1 digested", "reactive installs", "pass1 drop-rec", "pass2 drop-rec", "pass2 digested"}, rows),
			"",
			"drop-rec = fraction of attack packets dropped at the data plane",
		),
	}, nil
}

func reactivePass(cfg Config, train, test *trace.Dataset, budget int) ([]string, error) {
	full, err := p4guard.Train(train, p4guard.Config{Seed: cfg.Seed, NumFields: 6})
	if err != nil {
		return nil, err
	}
	// Deploy only what fits the budget; the controller keeps the full MLP.
	pipe, err := full.TrimToBudget(budget, train)
	if err != nil {
		return nil, err
	}
	sw, err := switchsim.New("gw-react", packet.LinkEthernet)
	if err != nil {
		return nil, err
	}
	srv, err := p4rt.Serve("127.0.0.1:0", sw, time.Millisecond)
	if err != nil {
		return nil, err
	}
	defer func() { _ = srv.Close() }()

	ctl := controller.New(pipe, controller.Config{Reactive: true})
	defer func() { _ = ctl.Close() }()
	if err := ctl.Connect(context.Background(), srv.Addr()); err != nil {
		return nil, err
	}
	if err := ctl.Deploy(context.Background(), pipe.RuleSet(),
		controller.WithMissAction(p4.Action{Type: p4.ActionDigest})); err != nil {
		return nil, err
	}
	_, entries := pipe.TableCost()

	labels := test.BinaryLabels()
	pass := func() (digested int, dropRecall float64) {
		var droppedAttacks, attacks int
		before := sw.Stats().Digested
		for i, s := range test.Samples {
			v := sw.Process(s.Pkt)
			if labels[i] == 1 {
				attacks++
				if !v.Allowed {
					droppedAttacks++
				}
			}
		}
		if attacks > 0 {
			dropRecall = float64(droppedAttacks) / float64(attacks)
		}
		return sw.Stats().Digested - before, dropRecall
	}

	dig1, rec1 := pass()
	// Wait for the controller to chew through pass-1 digests.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if ctl.Stats().DigestsProcessed >= dig1-int(sw.Pipeline().DroppedDigests()) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Allow in-flight reactive writes to land.
	time.Sleep(50 * time.Millisecond)

	dig2, rec2 := pass()
	st := ctl.Stats()
	return []string{
		strconv.Itoa(budget),
		strconv.Itoa(entries),
		strconv.Itoa(dig1),
		strconv.Itoa(st.ReactiveInstalls),
		pct(rec1),
		pct(rec2),
		strconv.Itoa(dig2),
	}, nil
}
