// Command p4guard-obs is the offline observability analyzer. It reads any
// number of journals — written by p4guard-switch/p4guard-ctl -journal,
// p4guard-train and cmd/experiments — and prints one section per kind of
// record present:
//
//   - runs: per run, seed, dataset fingerprint, epoch-loss curves, final
//     accuracy, per-experiment manifests, and a count of every record kind;
//   - explain: verdict distribution, winning entries and explain-vs-lookup
//     agreement of the switches' sampled explanations;
//   - trace: spans from every process assembled into cross-process traces,
//     the per-stage critical path and the slowest traces;
//   - drift: threshold crossings per shard and the final state.
//
// The drift subcommand scores a live drift profile (p4guard-ctl /
// p4guard-switch -drift-export) against a train-time baseline
// (p4guard-train -drift-baseline), printing the per-feature PSI/KS table.
//
// Usage:
//
//	p4guard-obs [-top 10] [-slowest 5] [-check] FILE...
//	p4guard-obs drift -baseline base.json -live fleet.json [-threshold 0.25] [-check]
//
// Exit codes: 0 success; 1 an unreadable file, an explain disagreement,
// or a failed -check (an incomplete trace, a verification problem, a
// drift monitor left above threshold, a profile past it); 2 a usage error
// (unknown subcommand or bad flags).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"p4guard/internal/drift"
	"p4guard/internal/dtrace"
	"p4guard/internal/obs"
	"p4guard/internal/switchsim"
	"p4guard/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches and returns the process exit code; it never calls
// os.Exit so tests can table-drive it.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "drift" {
		return runDrift(args[1:], stdout, stderr)
	}
	// A first operand that names no file and does not look like a path
	// is a mistyped subcommand, not a missing journal.
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") && !strings.ContainsAny(args[0], "./") {
		if _, err := os.Stat(args[0]); err != nil {
			fmt.Fprintf(stderr, "p4guard-obs: unknown subcommand %q (have: drift)\n", args[0])
			return 2
		}
	}
	return runReport(args, stdout, stderr)
}

// runReport reads every journal named and prints a section per kind of
// record present.
func runReport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("p4guard-obs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 10, "winning entries to list in the explain section")
	slowest := fs.Int("slowest", 5, "slowest traces to list in the trace section (0 disables)")
	check := fs.Bool("check", false, "exit non-zero on incomplete traces, verification problems, or a drift monitor left above threshold")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "p4guard-obs: need at least one journal FILE")
		fs.Usage()
		return 2
	}

	exit := 0
	var recs []telemetry.JournalRecord
	for _, path := range fs.Args() {
		got, err := readJournalFile(path)
		if err != nil {
			// A corrupt line (a crashed writer) still yields the clean
			// prefix: report, keep it, and fail.
			fmt.Fprintf(stderr, "p4guard-obs: %v (keeping %d clean records)\n", err, len(got))
			exit = 1
		}
		recs = append(recs, got...)
	}
	kinds := make(map[string]int)
	for _, rec := range recs {
		kinds[rec.Kind]++
	}

	fmt.Fprintln(stdout, "== runs ==")
	obs.RenderRuns(stdout, obs.SummarizeJournal(recs))
	if kinds[switchsim.ExplainRecord] > 0 {
		rep := obs.SummarizeExplain(recs)
		fmt.Fprintln(stdout, "\n== explain ==")
		obs.RenderExplainReport(stdout, rep, *top)
		if rep.AgreementRate() < 1 {
			exit = 1
		}
	}
	if kinds[dtrace.SpanRecord] > 0 {
		spans, err := dtrace.FromJournal(recs)
		if err != nil {
			fmt.Fprintf(stderr, "p4guard-obs: %v\n", err)
			exit = 1
		}
		rep := obs.SummarizeTraces(spans)
		fmt.Fprintln(stdout, "\n== trace ==")
		obs.RenderTraceReport(stdout, rep, *slowest)
		if *check && (rep.Incomplete > 0 || len(rep.Problems) > 0) {
			exit = 1
		}
	}
	if kinds[drift.CrossRecord] > 0 {
		sum := obs.SummarizeDriftJournal(recs)
		fmt.Fprintln(stdout, "\n== drift ==")
		obs.RenderDriftJournal(stdout, sum)
		if *check && sum.LastUp {
			exit = 1
		}
	}
	return exit
}

// runDrift implements the drift subcommand: score a live profile against
// a baseline.
func runDrift(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drift", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "", "train-time baseline profile (p4guard-train -drift-baseline)")
	live := fs.String("live", "", "live profile to score against the baseline (p4guard-ctl/-switch -drift-export)")
	threshold := fs.Float64("threshold", drift.DefaultThreshold, "composite-score alarm level")
	check := fs.Bool("check", false, "exit non-zero when drift exceeds the threshold")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseline == "" && *live == "" {
		fmt.Fprintln(stderr, "p4guard-obs drift: need -baseline/-live (crossings are read from journals: p4guard-obs FILE...)")
		fs.Usage()
		return 2
	}
	if *baseline == "" || *live == "" {
		fmt.Fprintln(stderr, "p4guard-obs drift: -baseline and -live go together")
		fs.Usage()
		return 2
	}

	base, err := drift.LoadProfile(*baseline)
	if err != nil {
		fmt.Fprintf(stderr, "p4guard-obs: %v\n", err)
		return 1
	}
	liveProf, err := drift.LoadProfile(*live)
	if err != nil {
		fmt.Fprintf(stderr, "p4guard-obs: %v\n", err)
		return 1
	}
	rep, err := obs.SummarizeDrift(base, liveProf, *threshold)
	if err != nil {
		fmt.Fprintf(stderr, "p4guard-obs: %v\n", err)
		return 1
	}
	obs.RenderDriftReport(stdout, rep)
	if *check && rep.Exceeded() {
		return 1
	}
	return 0
}

// readJournalFile opens and parses one journal, returning the records
// read cleanly before any error.
func readJournalFile(path string) ([]telemetry.JournalRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := telemetry.ReadJournal(f)
	if err != nil {
		return recs, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}
