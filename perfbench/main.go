// Command p4guard-bench is the repository's benchmark: one run drives a
// P4Guard deployment through its life cycle on seeded inputs and prints
// the end-to-end metrics (or, traced, the per-layer metrics) declared in
// BENCHMARK.json. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"

	"p4guard/perfbench/bench"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload name (hot, cold)")
		seed      = flag.Int64("seed", 1, "seed every input is generated from")
		seconds   = flag.Float64("seconds", 30, "length of the measured window")
		trace     = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
		spans     = flag.String("spans", "", "traced runs: write the harness spans to this file as JSONL")
		out       = flag.String("out", "", "also write the full result to this file as JSON")
		calibrate = flag.Int("calibrate", 0, "run every workload N times as two interleaved sets and print each metric's spread and gap")
	)
	flag.Parse()
	if *calibrate > 0 {
		if err := bench.Calibrate(os.Stdout, *calibrate, *seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	p, ok := bench.WorkloadByName(*workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	res, err := bench.Run(p, *seed, *seconds, *trace != 0)
	if err != nil {
		fatal(err)
	}
	if err := res.Validate(); err != nil {
		fatal(err)
	}
	if *spans != "" {
		if err := res.WriteSpans(*spans); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		if err := res.WriteJSON(*out); err != nil {
			fatal(err)
		}
	}
	if err := res.Print(os.Stdout); err != nil {
		fatal(err)
	}
	if !res.Correct() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "p4guard-bench:", err)
	os.Exit(2)
}
