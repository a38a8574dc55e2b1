// Command experiments regenerates every reconstructed table and figure of
// the paper's evaluation (or one selected by -id) and prints them. A
// failing experiment no longer aborts the run: every remaining experiment
// still executes, each failure is reported, and the process exits
// non-zero if any failed. With -journal each experiment's manifest
// (inputs, artifacts, duration, outcome) is recorded as JSONL for
// cmd/p4guard-obs.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"p4guard/internal/experiments"
	"p4guard/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		id      = flag.String("id", "", "experiment id (e.g. R-T2); empty runs all")
		seed    = flag.Int64("seed", 1, "random seed")
		packets = flag.Int("packets", 3000, "packets per generated dataset")
		quick   = flag.Bool("quick", false, "shrink workloads for a fast smoke run")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		jpath   = flag.String("journal", "", "write per-experiment manifests (JSONL) to this path")
		runID   = flag.String("run-id", "", "run identifier for the journal (default: generated)")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-6s %s\n", e.ID, e.Title)
		}
		return 0
	}
	cfg := experiments.Config{Seed: *seed, Packets: *packets, Quick: *quick}
	if *jpath != "" {
		j, err := telemetry.OpenJournal(*jpath, *runID)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		defer func() {
			if err := j.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: journal:", err)
			}
		}()
		cfg.Journal = j
		fmt.Printf("journal %s (run %s)\n", *jpath, j.RunID())
	}
	ids := []string{*id}
	if *id == "" {
		ids = ids[:0]
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	}
	failed := 0
	for _, eid := range ids {
		start := time.Now()
		res, err := experiments.Run(eid, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s FAILED: %v\n", eid, err)
			failed++
			continue
		}
		fmt.Println(res)
		fmt.Printf("(%s completed in %s)\n\n", eid, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d of %d failed\n", failed, len(ids))
		return 1
	}
	return 0
}
