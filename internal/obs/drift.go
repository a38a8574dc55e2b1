package obs

import (
	"fmt"
	"io"
	"sort"

	"p4guard/internal/drift"
	"p4guard/internal/telemetry"
)

// DriftReport is the offline comparison of a live drift profile (what a
// controller or switch observed) against the train-time baseline — the
// same composite score the armed monitor computes online, plus the
// per-feature breakdown the scoreboard renders.
type DriftReport struct {
	Base, Live *drift.Profile
	Score      *drift.Score
	Threshold  float64
}

// Exceeded reports whether the composite score is past the threshold.
func (r *DriftReport) Exceeded() bool { return r.Score.Total > r.Threshold }

// SummarizeDrift scores live against base at the given alarm threshold
// (<=0 selects the PSI-convention default).
func SummarizeDrift(base, live *drift.Profile, threshold float64) (*DriftReport, error) {
	if threshold <= 0 {
		threshold = drift.DefaultThreshold
	}
	sc, err := drift.Compute(base, live)
	if err != nil {
		return nil, err
	}
	return &DriftReport{Base: base, Live: live, Score: sc, Threshold: threshold}, nil
}

// RenderDriftReport prints the per-feature drift table and the
// composite verdict.
func RenderDriftReport(w io.Writer, rep *DriftReport) {
	fmt.Fprintf(w, "baseline %q: %d samples  live %q: %d samples\n",
		rep.Base.Source, rep.Base.Count, rep.Live.Source, rep.Live.Count)
	fmt.Fprintf(w, "%-10s %10s %10s %8s %8s\n", "feature", "base-mean", "live-mean", "PSI", "KS")
	for _, f := range rep.Score.Features {
		fmt.Fprintf(w, "byte[%-4d] %10.3f %10.3f %8.4f %8.4f\n",
			f.Offset, f.BaseMean, f.LiveMean, f.PSI, f.KS)
	}
	if rep.Score.ClassPSI >= 0 {
		fmt.Fprintf(w, "%-10s %10s %10s %8.4f\n", "class-mix", "-", "-", rep.Score.ClassPSI)
	} else {
		fmt.Fprintf(w, "%-10s skipped (no slow-path verdicts on one side)\n", "class-mix")
	}
	if rep.Score.ResidualPSI >= 0 {
		fmt.Fprintf(w, "%-10s %10.4f %10.4f %8.4f\n", "residual",
			rep.Score.ResidualBaseMean, rep.Score.ResidualLiveMean, rep.Score.ResidualPSI)
	} else {
		fmt.Fprintf(w, "%-10s skipped (no residual model on one side)\n", "residual")
	}
	verdict := "ok"
	if rep.Exceeded() {
		verdict = "DRIFT"
	}
	fmt.Fprintf(w, "composite %.4f  threshold %.4f  max-feature-psi %.4f  -> %s\n",
		rep.Score.Total, rep.Threshold, rep.Score.FeatureMaxPSI, verdict)
}

// DriftJournalSummary aggregates the drift crossings among journal
// records: how often each shard alarmed, the worst score seen, and
// whether some monitor's last crossing left it above threshold.
type DriftJournalSummary struct {
	Events    int
	Up, Down  int
	MaxScore  float64
	Threshold float64
	// LastUp: for some run and shard, the last crossing was upward.
	LastUp  bool
	ByShard map[int]int // upward crossings per shard (FleetShard = fleet)
}

// SummarizeDriftJournal folds the drift crossing records among recs into
// a DriftJournalSummary; records of other kinds are ignored.
func SummarizeDriftJournal(recs []telemetry.JournalRecord) *DriftJournalSummary {
	sum := &DriftJournalSummary{ByShard: make(map[int]int)}
	type monitor struct {
		run   string
		shard int
	}
	last := make(map[monitor]bool)
	for _, rec := range recs {
		var ev drift.CrossEvent
		if rec.Kind != drift.CrossRecord || rec.Decode(&ev) != nil {
			continue
		}
		sum.Events++
		if ev.Up {
			sum.Up++
			sum.ByShard[ev.Shard]++
		} else {
			sum.Down++
		}
		last[monitor{rec.RunID, ev.Shard}] = ev.Up
		sum.Threshold = ev.Threshold
		sum.MaxScore = max(sum.MaxScore, ev.Score)
	}
	for _, up := range last {
		sum.LastUp = sum.LastUp || up
	}
	return sum
}

// RenderDriftJournal prints a crossing-event summary.
func RenderDriftJournal(w io.Writer, sum *DriftJournalSummary) {
	fmt.Fprintf(w, "drift crossings: %d up, %d down  max score %.4f  threshold %.4f\n",
		sum.Up, sum.Down, sum.MaxScore, sum.Threshold)
	shards := make([]int, 0, len(sum.ByShard))
	for sh := range sum.ByShard {
		shards = append(shards, sh)
	}
	sort.Ints(shards)
	for _, sh := range shards {
		name := fmt.Sprintf("shard %d", sh)
		if sh == drift.FleetShard {
			name = "fleet"
		}
		fmt.Fprintf(w, "  %-8s %d upward crossing(s)\n", name, sum.ByShard[sh])
	}
	if sum.Events > 0 {
		state := "below"
		if sum.LastUp {
			state = "ABOVE"
		}
		fmt.Fprintf(w, "final state: %s threshold\n", state)
	}
}
