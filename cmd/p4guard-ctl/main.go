// Command p4guard-ctl runs the SDN controller: it loads (or trains) a
// two-stage model, connects to a fleet of switches — optionally through an
// emulated fabric topology — shards and deploys the compiled rules, and
// services digests on the slow path, optionally installing reactive drop
// entries. With -journal it records its control loop, drift crossings and,
// on exit, its trace spans into one JSONL journal for cmd/p4guard-obs.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"p4guard"
	"p4guard/internal/controller"
	"p4guard/internal/drift"
	"p4guard/internal/dtrace"
	"p4guard/internal/netsim"
	"p4guard/internal/p4"
	"p4guard/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		connect  = flag.String("connect", "", "comma-separated switch addresses (default 127.0.0.1:9559; with -topology, every switch bound in the spec)")
		topoPath = flag.String("topology", "", "netsim topology spec (JSON); switch connections are dialed through the emulated fabric")
		shards   = flag.Int("shards", 1, "rule shards the fleet is partitioned into")
		shardPol = flag.String("shard-policy", "replicate", "rule partitioning across shards: replicate|by-class")
		model    = flag.String("model", "", "load a model saved by p4guard-train")
		scenario = flag.String("scenario", "wifi-mqtt", "train on this scenario when -model is empty")
		packets  = flag.Int("packets", 3000, "training packets when -model is empty")
		seed     = flag.Int64("seed", 1, "random seed")
		k        = flag.Int("k", 6, "selected fields when training")
		reactive = flag.Bool("reactive", true, "install reactive drop entries for slow-path hits")
		missOpen = flag.Bool("miss-open", false, "allow on table miss instead of digesting")
		compress = flag.Int("compress", 0, "rule compression level before deploy: 0=off, 1=shadow elimination, 2=+interval merging, 3=+priority releveling")
		delta    = flag.Bool("delta", false, "reprogram switches with incremental deltas when possible instead of full table swaps")
		duration = flag.Duration("duration", 0, "exit after this long (0 = until signal)")
		stats    = flag.Duration("stats", 2*time.Second, "stats print interval")
		metrics  = flag.String("metrics-addr", "", "serve /metrics, /debug/vars (the journal's tail), and /debug/pprof on this address (empty = off)")
		jsonOut  = flag.Bool("json", false, "print stats as JSON instead of the key=value line")
		rpcTO    = flag.Duration("rpc-timeout", 5*time.Second, "per-RPC deadline on switch calls")
		backoff  = flag.Duration("reconnect-backoff", 50*time.Millisecond, "initial reconnect backoff (doubles with jitter up to 60x)")
		journalP = flag.String("journal", "", "record into this JSONL journal: arms tracing; drift crossings and, on exit, spans land there too")
		driftIn  = flag.String("drift", "", "arm drift tracking against this baseline profile (written by p4guard-train -drift-baseline)")
		driftThr = flag.Float64("drift-threshold", drift.DefaultThreshold, "composite drift score alarm level (PSI convention)")
		driftOut = flag.String("drift-export", "", "write the merged fleet drift profile to this path on exit")
	)
	flag.Parse()

	policy, err := controller.ParseShardPolicy(*shardPol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p4guard-ctl:", err)
		return 1
	}

	pipe, err := loadOrTrain(*model, *scenario, *packets, *seed, *k)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p4guard-ctl:", err)
		return 1
	}
	fmt.Printf("model: k=%d fields [%s], %d rules\n",
		len(pipe.Offsets), pipe.DescribeFields(), len(pipe.RuleSet().Rules))

	// With -topology, the controller dials every switch through the
	// emulated fabric from the spec's controller node, and an empty
	// -connect defaults to the spec's bound switches (node-sorted, so
	// auto shard assignment is deterministic).
	addrs := splitAddrs(*connect)
	var fleetOpts []controller.Option
	var topo *netsim.Topology
	if *topoPath != "" {
		spec, loaded, err := netsim.LoadSpec(*topoPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p4guard-ctl:", err)
			return 1
		}
		topo = loaded
		fleetOpts = append(fleetOpts, controller.WithDialer(topo.Dialer(spec.Controller, nil)))
		if len(addrs) == 0 {
			nodes := make([]string, 0, len(spec.Binds))
			for n := range spec.Binds {
				nodes = append(nodes, n)
			}
			sort.Strings(nodes)
			for _, n := range nodes {
				addrs = append(addrs, spec.Binds[n])
			}
		}
		fmt.Printf("fabric: %s, dialing from node %s\n", *topoPath, spec.Controller)
	}
	if len(addrs) == 0 {
		addrs = []string{"127.0.0.1:9559"}
	}

	// One journal holds everything the controller records (the
	// controller hooks drift crossings into it); -metrics-addr alone keeps
	// a memory-only one for /debug/vars.
	var j *telemetry.Journal
	switch {
	case *journalP != "":
		if j, err = telemetry.OpenJournal(*journalP, ""); err != nil {
			fmt.Fprintln(os.Stderr, "p4guard-ctl:", err)
			return 1
		}
		tracer := dtrace.NewTracer()
		tracer.Arm("p4guard-ctl", *seed, 1<<16)
		fleetOpts = append(fleetOpts, controller.WithTracer(tracer))
		defer func() { // spans leave on exit; a failure never changes the exit status
			if err := errors.Join(tracer.Export(j), j.Close()); err != nil {
				fmt.Fprintln(os.Stderr, "p4guard-ctl: journal:", err)
			}
		}()
		fmt.Printf("journal %s: tracing as proc \"p4guard-ctl\"\n", *journalP)
	case *metrics != "":
		j = telemetry.NewFlightRecorder(telemetry.DefaultTail)
	}
	if *driftIn != "" {
		baseline, err := drift.LoadProfile(*driftIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p4guard-ctl:", err)
			return 1
		}
		driftMon := drift.NewMonitor()
		if err := driftMon.Arm(drift.MonitorConfig{
			Baseline:  baseline,
			Shards:    *shards,
			Threshold: *driftThr,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "p4guard-ctl:", err)
			return 1
		}
		fleetOpts = append(fleetOpts, controller.WithDrift(driftMon))
		if *driftOut != "" {
			defer exportDrift(*driftOut, driftMon)
		}
		fmt.Printf("drift armed: baseline %s (%d samples), threshold %.2f\n",
			*driftIn, baseline.Count, *driftThr)
	}
	ctl := controller.New(pipe, controller.Config{Name: "p4guard-ctl", Reactive: *reactive},
		append(fleetOpts,
			controller.WithJournal(j),
			controller.WithRPCTimeout(*rpcTO),
			controller.WithReconnectBackoff(*backoff, 60*(*backoff)),
			controller.WithShards(*shards),
			controller.WithShardPolicy(policy))...)
	defer func() { _ = ctl.Close() }()
	if *metrics != "" {
		// The fleet aggregate rides the same registry: per-switch stats
		// scraped over the p4rt stats RPC, health scores, digest→install
		// latency quantiles, and (with -topology) per-link fabric counters.
		reg := telemetry.NewRegistry()
		ctl.RegisterTelemetry(reg)
		ctl.RegisterFleetTelemetry(reg)
		if topo != nil {
			topo.RegisterTelemetry(reg)
		}
		ts, err := telemetry.NewServer(*metrics, reg, j)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p4guard-ctl:", err)
			return 1
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = ts.Shutdown(ctx)
		}()
		fmt.Printf("telemetry on http://%s/metrics (journal tail: /debug/vars, profiles: /debug/pprof)\n", ts.Addr())
	}
	ctx, cancelCtx := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancelCtx()
	for _, addr := range addrs {
		if err := ctl.Connect(ctx, addr); err != nil {
			fmt.Fprintln(os.Stderr, "p4guard-ctl:", err)
			return 1
		}
		fmt.Printf("connected to %s\n", addr)
	}
	miss := p4.Action{Type: p4.ActionDigest}
	if *missOpen {
		miss = p4.Action{Type: p4.ActionAllow}
	}
	deployOpts := []controller.DeployOption{controller.WithMissAction(miss)}
	if *compress > 0 {
		deployOpts = append(deployOpts, controller.WithCompression(*compress))
	}
	if *delta {
		deployOpts = append(deployOpts, controller.WithDeltaOnly())
	}
	if err := ctl.Deploy(ctx, pipe.RuleSet(), deployOpts...); err != nil {
		fmt.Fprintln(os.Stderr, "p4guard-ctl:", err)
		return 1
	}
	fmt.Printf("deployed rules to %v (%d shard(s), policy %s)\n", ctl.Switches(), *shards, policy)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var timeout <-chan time.Time
	if *duration > 0 {
		timeout = time.After(*duration)
	}
	ticker := time.NewTicker(*stats)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			printStats(ctl, *jsonOut)
			return 0
		case <-timeout:
			printStats(ctl, *jsonOut)
			return 0
		case <-ticker.C:
			printStats(ctl, *jsonOut)
		}
	}
}

// exportDrift writes the merged fleet drift profile; failures are
// reported but never change the exit status.
func exportDrift(path string, mon *drift.Monitor) {
	da := mon.Armed()
	if da == nil {
		return
	}
	prof := da.FleetProfile()
	if err := drift.SaveProfile(path, prof); err != nil {
		fmt.Fprintf(os.Stderr, "p4guard-ctl: drift export: %v\n", err)
		return
	}
	fmt.Printf("drift export: %d observations to %s (score %.4f, %d crossings)\n",
		prof.Count, path, da.FleetScore(), mon.Crossings())
}

func loadOrTrain(path, scenario string, packets int, seed int64, k int) (*p4guard.Pipeline, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer func() { _ = f.Close() }()
		return p4guard.LoadPipeline(f)
	}
	ds, err := p4guard.GenerateTrace(scenario, p4guard.TraceConfig{Seed: seed, Packets: packets})
	if err != nil {
		return nil, err
	}
	return p4guard.Train(ds, p4guard.Config{Seed: seed, NumFields: k})
}

func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// statsLine is the -json stats document: aggregate counters plus the
// per-switch fleet view (connection state, shard, reconcile watermarks,
// fan-in accounting).
type statsLine struct {
	Stats    controller.Stats          `json:"stats"`
	Switches []controller.SwitchStatus `json:"switches"`
}

func printStats(ctl *controller.Controller, asJSON bool) {
	if asJSON {
		if line, err := json.Marshal(statsLine{Stats: ctl.Stats(), Switches: ctl.FleetStatus()}); err == nil {
			fmt.Println(string(line))
		}
		return
	}
	fmt.Println(ctl.Stats())
}
