// Command p4guard-switch runs the behavioural gateway switch as a p4rt
// server. With -replay it continuously feeds a generated workload through
// the data plane so a connected controller sees live digests and counters.
// With -explain it samples forwarded packets, re-runs each through the
// side-effect-free Explain path, and appends one JSON line per sample —
// the dump cmd/p4guard-obs summarizes (verdict distribution, winning
// entries, explain-vs-lookup agreement).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
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
		workers  = flag.Int("workers", 1, "forwarding workers per replay round (<=0 = GOMAXPROCS)")
		metrics  = flag.String("metrics-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address (empty = off)")
		explain  = flag.String("explain", "", "dump sampled per-packet explanations as JSONL to this path")
		explainN = flag.Int("explain-every", 64, "sample one explanation per this many forwarded packets")
		jsonOut  = flag.Bool("json", false, "print stats as JSON instead of the key=value line")
		rpcTO    = flag.Duration("rpc-timeout", 5*time.Second, "write deadline on controller connections (stuck peers are dropped, not waited on)")
		digestQ  = flag.Int("digest-queue", 4096, "bounded digest queue capacity; overflow drops with accounting")
		trace    = flag.Bool("trace", false, "arm distributed tracing: digest and program spans, trace context on the wire")
		traceOut = flag.String("trace-export", "", "write recorded spans as JSONL to this path on exit (implies -trace)")
		driftIn  = flag.String("drift", "", "arm switch-side drift tracking against this baseline profile (digested packets only; no class/residual terms)")
		driftJ   = flag.String("drift-journal", "", "append drift threshold-crossing events as JSONL to this path (implies -drift)")
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
	if *trace || *traceOut != "" {
		proc := *name
		if *node != "" {
			proc = *node
		}
		tr := dtrace.NewTracer()
		tr.Arm(proc, *seed, 1<<15)
		sw.SetTracer(tr)
		if *traceOut != "" {
			defer exportTrace(*traceOut, tr, "p4guard-switch")
		}
		fmt.Printf("tracing armed as proc %q\n", proc)
	}
	if *driftIn != "" || *driftJ != "" {
		if *driftIn == "" {
			fmt.Fprintln(os.Stderr, "p4guard-switch: -drift-journal requires -drift")
			return 1
		}
		baseline, err := drift.LoadProfile(*driftIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p4guard-switch:", err)
			return 1
		}
		mon := drift.NewMonitor()
		if *driftJ != "" {
			dj, err := telemetry.OpenJournal(*driftJ, "")
			if err != nil {
				fmt.Fprintln(os.Stderr, "p4guard-switch:", err)
				return 1
			}
			defer func() { _ = dj.Close() }()
			mon.OnCross(drift.JournalHook(dj))
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

	var fr *telemetry.FlightRecorder
	if *metrics != "" {
		reg := telemetry.NewRegistry()
		fr = telemetry.NewFlightRecorder(4096)
		sw.RegisterTelemetry(reg)
		srv.RegisterTelemetry(reg)
		ts, err := telemetry.NewServer(*metrics, reg, fr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p4guard-switch:", err)
			return 1
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = ts.Shutdown(ctx)
		}()
		fr.Record("boot", map[string]any{"switch": *name, "link": lt.String()})
		fmt.Printf("telemetry on http://%s/metrics (flight recorder: /debug/vars, profiles: /debug/pprof)\n", ts.Addr())
	}

	if *explain != "" {
		dump, err := newExplainDump(*explain)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p4guard-switch:", err)
			return 1
		}
		defer func() {
			if err := dump.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "p4guard-switch: explain dump:", err)
			}
		}()
		sw.EnableExplainSampling(*explainN, fr, dump.write)
		fmt.Printf("explain sampling armed: 1/%d packets to %s\n", *explainN, *explain)
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
		if err := replayOnce(sw, *replay, *packetsN, *seed, *workers); err != nil {
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
			if err := replayOnce(sw, *replay, *packetsN, round, *workers); err != nil {
				fmt.Fprintln(os.Stderr, "p4guard-switch:", err)
				return 1
			}
			printStats(sw, *jsonOut)
		}
	}
}

// explainDump serializes sampled explanations to a JSONL file. The
// sampler may fire from concurrent forwarding workers, so writes are
// mutex-guarded.
type explainDump struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

func newExplainDump(path string) (*explainDump, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &explainDump{f: f, w: bufio.NewWriter(f)}, nil
}

func (d *explainDump) write(sample switchsim.ExplainSample) {
	line, err := switchsim.ExplainJSON(sample)
	if err != nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	_, _ = d.w.Write(append(line, '\n'))
}

func (d *explainDump) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.w.Flush()
	if cerr := d.f.Close(); err == nil {
		err = cerr
	}
	return err
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

// exportTrace writes the tracer's recorded spans as JSONL; failures are
// reported but never change the exit status (observability must not
// fail the run it observed).
func exportTrace(path string, tr *dtrace.Tracer, prog string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: trace export: %v\n", prog, err)
		return
	}
	err = tr.WriteJSONL(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: trace export: %v\n", prog, err)
		return
	}
	fmt.Printf("trace export: %d spans to %s (%d dropped)\n", len(tr.Spans()), path, tr.Dropped())
}

func parseLink(s string) (packet.LinkType, error) {
	for _, lt := range []packet.LinkType{packet.LinkEthernet, packet.LinkIEEE802154, packet.LinkBLE} {
		if lt.String() == s {
			return lt, nil
		}
	}
	return 0, fmt.Errorf("unknown link %q", s)
}

func replayOnce(sw *switchsim.Switch, scenario string, packets int, seed int64, workers int) error {
	ds, err := p4guard.GenerateTrace(scenario, p4guard.TraceConfig{Seed: seed, Packets: packets})
	if err != nil {
		return err
	}
	pkts := make([]*packet.Packet, len(ds.Samples))
	for i, s := range ds.Samples {
		pkts[i] = s.Pkt
	}
	if workers == 1 {
		sw.ProcessBatch(pkts)
		return nil
	}
	sw.RunParallel(pkts, workers)
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
