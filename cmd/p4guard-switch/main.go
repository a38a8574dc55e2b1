// Command p4guard-switch runs the behavioural gateway switch as a p4rt
// server. With -replay it continuously feeds a generated workload through
// the data plane so a connected controller sees live digests and counters.
// With -journal it records everything it can observe into one JSONL
// journal — sampled per-packet explanations (the side-effect-free Explain
// path re-run on one in -explain-every forwarded packets), drift
// crossings, and on exit its trace spans — which cmd/p4guard-obs reads.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"p4guard"
	"p4guard/internal/drift"
	"p4guard/internal/dtrace"
	"p4guard/internal/p4rt"
	"p4guard/internal/packet"
	"p4guard/internal/switchsim"
	"p4guard/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		listen   = flag.String("listen", "127.0.0.1:9559", "p4rt listen address")
		name     = flag.String("name", "gw0", "switch name")
		node     = flag.String("node", "", "fabric node identity reported to controllers (matches a netsim topology node)")
		link     = flag.String("link", "ethernet", "link type: ethernet|ieee802.15.4|ble")
		replay   = flag.String("replay", "", "scenario to replay through the data plane")
		packetsN = flag.Int("packets", 2000, "packets per replay round")
		seed     = flag.Int64("seed", 1, "replay seed")
		interval = flag.Duration("interval", 2*time.Second, "pause between replay rounds")
		duration = flag.Duration("duration", 0, "exit after this long (0 = until signal)")
		rateThr  = flag.Uint64("rate-threshold", 0, "enable the heavy-hitter rate guard above this per-window packet count (0 = off)")
		rateWin  = flag.Duration("rate-window", time.Second, "rate-guard window")
		metrics  = flag.String("metrics-addr", "", "serve /metrics, /debug/vars (the journal's tail), and /debug/pprof on this address (empty = off)")
		journalP = flag.String("journal", "", "record into this JSONL journal: arms tracing and explain sampling; drift crossings and, on exit, spans land there too")
		explainN = flag.Int("explain-every", 64, "with -journal, explain one in this many forwarded packets")
		jsonOut  = flag.Bool("json", false, "print stats as JSON instead of the key=value line")
		rpcTO    = flag.Duration("rpc-timeout", 5*time.Second, "write deadline on controller connections (stuck peers are dropped, not waited on)")
		digestQ  = flag.Int("digest-queue", 4096, "bounded digest queue capacity; overflow drops with accounting")
		driftIn  = flag.String("drift", "", "arm switch-side drift tracking against this baseline profile (digested packets only; no class/residual terms)")
		driftThr = flag.Float64("drift-threshold", drift.DefaultThreshold, "composite drift score alarm level (PSI convention)")
		driftOut = flag.String("drift-export", "", "write the observed drift profile to this path on exit")
	)
	flag.Parse()

	lt, err := parseLink(*link)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p4guard-switch:", err)
		return 1
	}
	sw, err := switchsim.NewWithDigestCapacity(*name, lt, *digestQ)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p4guard-switch:", err)
		return 1
	}
	if *node != "" {
		sw.SetNode(*node)
	}

	// One journal holds everything the switch records; -metrics-addr alone
	// keeps a memory-only one for /debug/vars.
	var j *telemetry.Journal
	switch {
	case *journalP != "":
		if j, err = telemetry.OpenJournal(*journalP, ""); err != nil {
			fmt.Fprintln(os.Stderr, "p4guard-switch:", err)
			return 1
		}
		proc := *name
		if *node != "" {
			proc = *node
		}
		tr := dtrace.NewTracer()
		tr.Arm(proc, *seed, 1<<15)
		sw.SetTracer(tr)
		sw.EnableExplainSampling(*explainN, j, nil)
		defer func() { // spans leave on exit; a failure never changes the exit status
			if err := errors.Join(tr.Export(j), j.Close()); err != nil {
				fmt.Fprintln(os.Stderr, "p4guard-switch: journal:", err)
			}
		}()
		fmt.Printf("journal %s: tracing as proc %q, explaining 1/%d packets\n", *journalP, proc, *explainN)
	case *metrics != "":
		j = telemetry.NewFlightRecorder(telemetry.DefaultTail)
	}
	if j != nil {
		_ = j.Event("boot", map[string]any{"switch": *name, "link": lt.String()})
	}
	if *driftIn != "" {
		baseline, err := drift.LoadProfile(*driftIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p4guard-switch:", err)
			return 1
		}
		mon := drift.NewMonitor()
		if j != nil {
			mon.OnCross(drift.JournalHook(j))
		}
		if err := mon.Arm(drift.MonitorConfig{Baseline: baseline, Threshold: *driftThr}); err != nil {
			fmt.Fprintln(os.Stderr, "p4guard-switch:", err)
			return 1
		}
		sw.SetDriftMonitor(mon)
		if *driftOut != "" {
			defer exportDrift(*driftOut, mon)
		}
		fmt.Printf("drift armed: baseline %s (%d samples), threshold %.2f\n",
			*driftIn, baseline.Count, *driftThr)
	}
	if *rateThr > 0 {
		if err := sw.EnableRateGuard(nil, *rateThr, *rateWin); err != nil {
			fmt.Fprintln(os.Stderr, "p4guard-switch:", err)
			return 1
		}
		fmt.Printf("rate guard armed: >%d pkts per %s per source\n", *rateThr, *rateWin)
	}
	srv, err := p4rt.Serve(*listen, sw, 0, p4rt.WithSendTimeout(*rpcTO))
	if err != nil {
		fmt.Fprintln(os.Stderr, "p4guard-switch:", err)
		return 1
	}
	defer func() { _ = srv.Close() }()
	fmt.Printf("switch %s (%s) listening on %s\n", *name, lt, srv.Addr())

	if *metrics != "" {
		reg := telemetry.NewRegistry()
		sw.RegisterTelemetry(reg)
		srv.RegisterTelemetry(reg)
		ts, err := telemetry.NewServer(*metrics, reg, j)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p4guard-switch:", err)
			return 1
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = ts.Shutdown(ctx)
		}()
		fmt.Printf("telemetry on http://%s/metrics (journal tail: /debug/vars, profiles: /debug/pprof)\n", ts.Addr())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var timeout <-chan time.Time
	if *duration > 0 {
		timeout = time.After(*duration)
	}

	replayTick := make(<-chan time.Time)
	if *replay != "" {
		t := time.NewTicker(*interval)
		defer t.Stop()
		replayTick = t.C
		if err := replayOnce(sw, *replay, *packetsN, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "p4guard-switch:", err)
			return 1
		}
	}

	round := *seed
	for {
		select {
		case <-stop:
			printStats(sw, *jsonOut)
			return 0
		case <-timeout:
			printStats(sw, *jsonOut)
			return 0
		case <-replayTick:
			round++
			if err := replayOnce(sw, *replay, *packetsN, round); err != nil {
				fmt.Fprintln(os.Stderr, "p4guard-switch:", err)
				return 1
			}
			printStats(sw, *jsonOut)
		}
	}
}

// exportDrift writes the switch's observed drift profile; failures are
// reported but never change the exit status.
func exportDrift(path string, mon *drift.Monitor) {
	da := mon.Armed()
	if da == nil {
		return
	}
	prof := da.FleetProfile()
	if err := drift.SaveProfile(path, prof); err != nil {
		fmt.Fprintf(os.Stderr, "p4guard-switch: drift export: %v\n", err)
		return
	}
	fmt.Printf("drift export: %d observations to %s (score %.4f, %d crossings)\n",
		prof.Count, path, da.FleetScore(), mon.Crossings())
}

func parseLink(s string) (packet.LinkType, error) {
	for _, lt := range []packet.LinkType{packet.LinkEthernet, packet.LinkIEEE802154, packet.LinkBLE} {
		if lt.String() == s {
			return lt, nil
		}
	}
	return 0, fmt.Errorf("unknown link %q", s)
}

func replayOnce(sw *switchsim.Switch, scenario string, packets int, seed int64) error {
	ds, err := p4guard.GenerateTrace(scenario, p4guard.TraceConfig{Seed: seed, Packets: packets})
	if err != nil {
		return err
	}
	pkts := make([]*packet.Packet, len(ds.Samples))
	for i, s := range ds.Samples {
		pkts[i] = s.Pkt
	}
	sw.ProcessBatch(pkts)
	return nil
}

func printStats(sw *switchsim.Switch, asJSON bool) {
	if asJSON {
		if line, err := json.Marshal(sw.Stats()); err == nil {
			fmt.Println(string(line))
		}
		return
	}
	fmt.Println(sw.Stats())
}
