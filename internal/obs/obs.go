// Package obs is the offline analyzer behind cmd/p4guard-obs: it replays
// journals after the fact and reconstructs, from their records alone,
// what a run did — epoch-loss curves, final accuracy, per-experiment
// durations (SummarizeJournal), explain-vs-lookup agreement
// (SummarizeExplain), the traced critical path (SummarizeTraces) and
// drift crossings (SummarizeDriftJournal). Everything here is a pure
// function of the records, so a summary is reproducible from the files.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"p4guard/internal/telemetry"
)

// EpochPoint is one journalled training epoch (the "epoch" event
// payload): nn.EpochStats plus the pipeline stage that emitted it.
type EpochPoint struct {
	Stage      string  `json:"stage"`
	Epoch      int     `json:"epoch"`
	Loss       float64 `json:"loss"`
	Accuracy   float64 `json:"accuracy"`
	GradNorm   float64 `json:"grad_norm"`
	DurationNs int64   `json:"duration_ns"`
}

// ExperimentRun is one experiment manifest assembled from paired
// experiment_start / experiment_end events.
type ExperimentRun struct {
	ID            string
	Title         string
	Seed          int64
	Packets       int
	Quick         bool
	DurNs         int64
	Ended         bool
	OK            bool
	Error         string
	ArtifactLines int
}

// RunSummary is everything the analyzer reconstructs for one run ID.
type RunSummary struct {
	RunID string
	// SpanNs is the monotonic offset of the last record — the run's
	// duration as the journal saw it, immune to clock steps.
	SpanNs  int64
	Records int
	// Kinds counts records per event kind.
	Kinds map[string]int

	// Seed, Dataset and Fingerprint are the run_start payload's
	// well-known keys, FinalAccuracy run_end's, when present.
	Seed          *int64
	Dataset       string
	Fingerprint   string
	FinalAccuracy *float64

	// Epochs is every journalled epoch in record order.
	Epochs []EpochPoint

	Experiments []ExperimentRun
}

// Stages returns the distinct epoch stages in first-seen order.
func (s *RunSummary) Stages() []string {
	var out []string
	seen := make(map[string]bool)
	for _, e := range s.Epochs {
		if !seen[e.Stage] {
			seen[e.Stage] = true
			out = append(out, e.Stage)
		}
	}
	return out
}

// StageEpochs returns the stage's epochs in record order.
func (s *RunSummary) StageEpochs(stage string) []EpochPoint {
	var out []EpochPoint
	for _, e := range s.Epochs {
		if e.Stage == stage {
			out = append(out, e)
		}
	}
	return out
}

// LossCurve returns the stage's per-epoch losses in record order — the
// replayed training curve.
func (s *RunSummary) LossCurve(stage string) []float64 {
	eps := s.StageEpochs(stage)
	out := make([]float64, len(eps))
	for i, e := range eps {
		out[i] = e.Loss
	}
	return out
}

// SummarizeJournal groups journal records by run ID (first-seen order)
// and reconstructs one summary per run.
func SummarizeJournal(recs []telemetry.JournalRecord) []*RunSummary {
	byID := make(map[string]*RunSummary)
	var order []*RunSummary
	expIdx := make(map[string]map[string]int) // runID -> experiment ID -> index
	for _, rec := range recs {
		s := byID[rec.RunID]
		if s == nil {
			s = &RunSummary{RunID: rec.RunID, Kinds: make(map[string]int)}
			byID[rec.RunID] = s
			order = append(order, s)
			expIdx[rec.RunID] = make(map[string]int)
		}
		s.Records++
		s.Kinds[rec.Kind]++
		s.SpanNs = max(s.SpanNs, rec.MonoNs)
		switch rec.Kind {
		case "run_start":
			var known struct {
				Seed        *int64 `json:"seed"`
				Dataset     string `json:"dataset"`
				Fingerprint string `json:"fingerprint"`
			}
			if rec.Decode(&known) == nil {
				s.Seed = known.Seed
				s.Dataset = known.Dataset
				s.Fingerprint = known.Fingerprint
			}
		case "epoch":
			var ep EpochPoint
			if rec.Decode(&ep) == nil {
				s.Epochs = append(s.Epochs, ep)
			}
		case "run_end":
			var known struct {
				FinalAccuracy *float64 `json:"final_accuracy"`
			}
			if rec.Decode(&known) == nil && known.FinalAccuracy != nil {
				s.FinalAccuracy = known.FinalAccuracy
			}
		case "experiment_start":
			var f struct {
				ID      string `json:"id"`
				Title   string `json:"title"`
				Seed    int64  `json:"seed"`
				Packets int    `json:"packets"`
				Quick   bool   `json:"quick"`
			}
			if rec.Decode(&f) == nil {
				expIdx[rec.RunID][f.ID] = len(s.Experiments)
				s.Experiments = append(s.Experiments, ExperimentRun{
					ID: f.ID, Title: f.Title,
					Seed: f.Seed, Packets: f.Packets, Quick: f.Quick,
				})
			}
		case "experiment_end":
			var f struct {
				ID            string `json:"id"`
				DurNs         int64  `json:"dur_ns"`
				OK            bool   `json:"ok"`
				Error         string `json:"error"`
				ArtifactLines int    `json:"artifact_lines"`
			}
			if rec.Decode(&f) == nil {
				i, ok := expIdx[rec.RunID][f.ID]
				if !ok { // end without start: still record it
					i = len(s.Experiments)
					s.Experiments = append(s.Experiments, ExperimentRun{ID: f.ID})
					expIdx[rec.RunID][f.ID] = i
				}
				e := &s.Experiments[i]
				e.Ended, e.OK, e.Error = true, f.OK, f.Error
				e.DurNs, e.ArtifactLines = f.DurNs, f.ArtifactLines
			}
		}
	}
	return order
}

// sparkline renders values as an 8-level Unicode bar chart, downsampling
// to at most width points (mean per bucket).
func sparkline(values []float64, width int) string {
	if len(values) == 0 {
		return ""
	}
	if width <= 0 {
		width = 48
	}
	if len(values) > width {
		down := make([]float64, width)
		for i := range down {
			lo := i * len(values) / width
			hi := (i + 1) * len(values) / width
			if hi <= lo {
				hi = lo + 1
			}
			var sum float64
			for _, v := range values[lo:hi] {
				sum += v
			}
			down[i] = sum / float64(hi-lo)
		}
		values = down
	}
	min, max := values[0], values[0]
	for _, v := range values {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if max > min {
			idx = int((v - min) / (max - min) * float64(len(levels)-1))
		}
		b.WriteRune(levels[idx])
	}
	return b.String()
}

// RenderRun writes one run's human-readable report.
func RenderRun(w io.Writer, s *RunSummary) {
	fmt.Fprintf(w, "run %s  records=%d  span=%s\n",
		s.RunID, s.Records, time.Duration(s.SpanNs).Round(time.Millisecond))
	if s.Kinds["run_start"] > 0 {
		line := "  start:"
		if s.Seed != nil {
			line += fmt.Sprintf(" seed=%d", *s.Seed)
		}
		if s.Dataset != "" {
			line += " dataset=" + s.Dataset
		}
		if s.Fingerprint != "" {
			line += " fingerprint=" + s.Fingerprint
		}
		fmt.Fprintln(w, line)
	}
	for _, stage := range s.Stages() {
		eps := s.StageEpochs(stage)
		first, last := eps[0], eps[len(eps)-1]
		var total time.Duration
		for _, e := range eps {
			total += time.Duration(e.DurationNs)
		}
		fmt.Fprintf(w, "  stage %-20s %3d epochs  loss %.4f → %.4f  acc %.3f → %.3f  (%s)\n",
			stage, len(eps), first.Loss, last.Loss, first.Accuracy, last.Accuracy,
			total.Round(time.Millisecond))
		fmt.Fprintf(w, "    loss %s\n", sparkline(s.LossCurve(stage), 48))
	}
	if s.FinalAccuracy != nil {
		fmt.Fprintf(w, "  final accuracy %.4f\n", *s.FinalAccuracy)
	}
	if len(s.Experiments) > 0 {
		okCount, failed := 0, 0
		var total time.Duration
		for _, e := range s.Experiments {
			if e.Ended && e.OK {
				okCount++
			} else if e.Ended {
				failed++
			}
			total += time.Duration(e.DurNs)
		}
		fmt.Fprintf(w, "  experiments: %d ok, %d failed, total %s\n",
			okCount, failed, total.Round(time.Millisecond))
		for _, e := range s.Experiments {
			status := "ok"
			switch {
			case !e.Ended:
				status = "unfinished"
			case !e.OK:
				status = "FAILED " + e.Error
			}
			fmt.Fprintf(w, "    %-6s %-48s %9s  lines=%-3d %s\n",
				e.ID, e.Title, time.Duration(e.DurNs).Round(time.Millisecond),
				e.ArtifactLines, status)
		}
	}
	// Any event kinds the analyzer has no special handling for are still
	// surfaced so a journal never hides data.
	var other []string
	for k, n := range s.Kinds {
		switch k {
		case "run_start", "epoch", "run_end", "experiment_start", "experiment_end":
		default:
			other = append(other, fmt.Sprintf("%s=%d", k, n))
		}
	}
	if len(other) > 0 {
		sort.Strings(other)
		fmt.Fprintf(w, "  other events: %s\n", strings.Join(other, " "))
	}
}

// RenderRuns writes every run's report in journal order.
func RenderRuns(w io.Writer, runs []*RunSummary) {
	for i, s := range runs {
		if i > 0 {
			fmt.Fprintln(w)
		}
		RenderRun(w, s)
	}
}
