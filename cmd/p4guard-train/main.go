// Command p4guard-train trains the two-stage pipeline on a generated
// scenario (or a pcap + labels pair produced by tracegen), prints the
// selected fields, rule summary, and held-out quality, and optionally
// saves the model.
//
// With -journal it writes a run journal (JSONL): run_start with the
// seed, config, and dataset fingerprint, one epoch event per training
// epoch of each stage, and run_end with the held-out result — the
// artifact cmd/p4guard-obs replays. With -metrics-addr it additionally
// serves live training gauges (loss, accuracy, gradient norm, epoch) on
// /metrics while the run is in flight.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"p4guard"
	"p4guard/internal/drift"
	"p4guard/internal/metrics"
	"p4guard/internal/nn"
	"p4guard/internal/pcap"
	"p4guard/internal/telemetry"
	"p4guard/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		scenario = flag.String("scenario", "wifi-mqtt", "workload scenario to generate")
		inPcap   = flag.String("pcap", "", "train from this pcap instead of a generated scenario (needs -labels)")
		labels   = flag.String("labels", "", "label CSV produced by tracegen")
		packets  = flag.Int("packets", 3000, "packets when generating")
		seed     = flag.Int64("seed", 1, "random seed")
		k        = flag.Int("k", 6, "number of header fields to select")
		depth    = flag.Int("depth", 6, "distilled tree depth")
		out      = flag.String("out", "", "save trained model to this path")
		emitP4   = flag.String("emit-p4", "", "write generated P4-16 source to this path")
		jpath    = flag.String("journal", "", "write a run journal (JSONL) to this path")
		runID    = flag.String("run-id", "", "run identifier for the journal (default: generated)")
		maddr    = flag.String("metrics-addr", "", "serve live training gauges on /metrics at this address (empty = off)")
		driftOut = flag.String("drift-baseline", "", "persist the drift baseline profile (slow-path digest distribution of the training split) to this path")
	)
	flag.Parse()

	var journal *telemetry.Journal
	if *jpath != "" {
		var err error
		journal, err = telemetry.OpenJournal(*jpath, *runID)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p4guard-train:", err)
			return 1
		}
		defer func() {
			if err := journal.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "p4guard-train: journal:", err)
			}
		}()
		fmt.Printf("journal %s (run %s)\n", *jpath, journal.RunID())
	}
	var gauges *telemetry.TrainGauges
	if *maddr != "" {
		reg := telemetry.NewRegistry()
		gauges = telemetry.NewTrainGauges(reg)
		ts, err := telemetry.NewServer(*maddr, reg, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p4guard-train:", err)
			return 1
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = ts.Shutdown(ctx)
		}()
		fmt.Printf("training gauges on http://%s/metrics\n", ts.Addr())
	}

	ds, err := loadDataset(*scenario, *inPcap, *labels, *packets, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p4guard-train:", err)
		return 1
	}
	train, test, err := ds.Split(0.7)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p4guard-train:", err)
		return 1
	}

	cfg := p4guard.Config{Seed: *seed, NumFields: *k, TreeDepth: *depth}
	if journal != nil || gauges != nil {
		cfg.OnEpoch = func(stage string, es nn.EpochStats) {
			if gauges != nil {
				gauges.Observe(stage, es.Epoch, es.Loss, es.Accuracy, es.GradNorm)
			}
			if journal != nil {
				_ = journal.Event("epoch", struct {
					Stage string `json:"stage"`
					nn.EpochStats
				}{stage, es})
			}
		}
	}
	if journal != nil {
		_ = journal.Event("run_start", map[string]any{
			"seed":        *seed,
			"dataset":     ds.Name,
			"fingerprint": ds.Fingerprint(),
			"samples":     ds.Len(),
			"train":       train.Len(),
			"test":        test.Len(),
			"k":           *k,
			"depth":       *depth,
		})
	}

	started := time.Now()
	pipe, err := p4guard.Train(train, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p4guard-train:", err)
		return 1
	}
	preds, err := pipe.Predict(test)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p4guard-train:", err)
		return 1
	}
	conf, err := metrics.FromPredictions(preds, test.BinaryLabels())
	if err != nil {
		fmt.Fprintln(os.Stderr, "p4guard-train:", err)
		return 1
	}
	keyBytes, entries := pipe.TableCost()
	fmt.Printf("trained on %d packets (%s)\n", train.Len(), ds.Name)
	fmt.Printf("selected fields (k=%d): %s\n", *k, pipe.DescribeFields())
	fmt.Printf("rules: %d (TCAM entries %d, key %dB)\n", len(pipe.RuleSet().Rules), entries, keyBytes)
	fmt.Printf("held-out: %s\n", conf)
	fmt.Printf("fidelity (tree vs MLP): %.3f\n", pipe.Fidelity(test))
	tm := pipe.Timings
	fmt.Printf("timings: select=%s mlp=%s distill=%s compile=%s\n",
		tm.FieldSelection.Round(1e6), tm.Classifier.Round(1e6),
		tm.Distillation.Round(1e6), tm.RuleCompile.Round(1e6))
	if journal != nil {
		_ = journal.Event("run_end", map[string]any{
			"final_accuracy": conf.Accuracy(),
			"precision":      conf.Precision(),
			"recall":         conf.Recall(),
			"f1":             conf.F1(),
			"rules":          len(pipe.RuleSet().Rules),
			"tcam_entries":   entries,
			"key_bytes":      keyBytes,
			"fidelity":       pipe.Fidelity(test),
			"dur_ns":         time.Since(started).Nanoseconds(),
			"select_ns":      tm.FieldSelection.Nanoseconds(),
			"mlp_ns":         tm.Classifier.Nanoseconds(),
			"distill_ns":     tm.Distillation.Nanoseconds(),
			"compile_ns":     tm.RuleCompile.Nanoseconds(),
		})
	}

	if *driftOut != "" {
		prof, err := pipe.DriftBaseline(train)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p4guard-train:", err)
			return 1
		}
		if err := drift.SaveProfile(*driftOut, prof); err != nil {
			fmt.Fprintln(os.Stderr, "p4guard-train:", err)
			return 1
		}
		fmt.Printf("drift baseline: %d slow-path samples to %s\n", prof.Count, *driftOut)
		if journal != nil {
			_ = journal.Event("drift_baseline", map[string]any{
				"path":        *driftOut,
				"samples":     prof.Count,
				"fingerprint": prof.Fingerprint,
			})
		}
	}
	if *emitP4 != "" {
		src, err := pipe.EmitP4(false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p4guard-train:", err)
			return 1
		}
		if err := os.WriteFile(*emitP4, []byte(src), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "p4guard-train:", err)
			return 1
		}
		fmt.Printf("P4 program written to %s\n", *emitP4)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p4guard-train:", err)
			return 1
		}
		if err := pipe.Save(f); err != nil {
			_ = f.Close()
			fmt.Fprintln(os.Stderr, "p4guard-train:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "p4guard-train:", err)
			return 1
		}
		fmt.Printf("model saved to %s\n", *out)
	}
	return 0
}

func loadDataset(scenario, inPcap, labelPath string, packets int, seed int64) (*trace.Dataset, error) {
	if inPcap == "" {
		return p4guard.GenerateTrace(scenario, p4guard.TraceConfig{Seed: seed, Packets: packets})
	}
	if labelPath == "" {
		return nil, fmt.Errorf("-pcap requires -labels")
	}
	f, err := os.Open(inPcap)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	r, err := pcap.NewReader(f)
	if err != nil {
		return nil, err
	}
	pkts, err := r.ReadAll()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(labelPath)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("label file %s is empty", labelPath)
	}
	lines = lines[1:] // header
	if len(lines) != len(pkts) {
		return nil, fmt.Errorf("%d labels for %d packets", len(lines), len(pkts))
	}
	ds := &trace.Dataset{Name: inPcap, Link: r.LinkType()}
	for i, line := range lines {
		parts := strings.SplitN(line, ",", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("label line %d malformed: %q", i, line)
		}
		lv, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("label line %d: %w", i, err)
		}
		if err := ds.Append(trace.Sample{Pkt: pkts[i], Label: trace.Label(lv), Attack: parts[2]}); err != nil {
			return nil, err
		}
	}
	return ds, nil
}
