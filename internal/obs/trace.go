package obs

import (
	"fmt"
	"io"
	"sort"
	"time"

	"p4guard/internal/dtrace"
)

// StageStat aggregates one pipeline stage across every complete trace.
type StageStat struct {
	Name  string
	Count int
	Total time.Duration
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
	// Share is this stage's fraction of the summed end-to-end time across
	// complete traces — the critical-path breakdown.
	Share float64
}

// TraceReport is the offline summary of an exported span set: assembly
// counts, per-stage critical-path breakdown, end-to-end quantiles, and
// the slowest traces for drill-down.
type TraceReport struct {
	Spans      int
	Traces     int
	Complete   int
	Incomplete int
	// Problems are structural defects found by dtrace.Verify (orphan
	// spans, negative durations, non-monotonic same-process stages).
	Problems []string

	// StageOrder is the stage chain observed on complete traces, in
	// pipeline order; Stages the matching aggregates.
	StageOrder []string
	Stages     map[string]*StageStat

	E2EP50, E2EP99, E2EMax time.Duration

	// Slowest lists complete traces by descending end-to-end duration.
	Slowest []dtrace.TraceSummary
}

// SummarizeTraces assembles raw spans (as read by dtrace.ReadJSONL) into
// a report. Everything is a pure function of the spans, so a report is
// reproducible from the exported file alone.
func SummarizeTraces(spans []dtrace.Span) *TraceReport {
	sums := dtrace.Assemble(spans)
	rep := &TraceReport{
		Spans:    len(spans),
		Traces:   len(sums),
		Problems: dtrace.Verify(sums),
		Stages:   make(map[string]*StageStat),
	}
	var e2es []time.Duration
	var e2eTotal time.Duration
	for _, s := range sums {
		if !s.Complete {
			rep.Incomplete++
			continue
		}
		rep.Complete++
		e2es = append(e2es, s.E2E)
		e2eTotal += s.E2E
		rep.Slowest = append(rep.Slowest, s)
		for _, st := range s.Stages {
			ss := rep.Stages[st.Name]
			if ss == nil {
				ss = &StageStat{Name: st.Name}
				rep.Stages[st.Name] = ss
				rep.StageOrder = append(rep.StageOrder, st.Name)
			}
			d := st.Duration()
			ss.Count++
			ss.Total += d
			if d > ss.Max {
				ss.Max = d
			}
		}
	}
	perStage := make(map[string][]time.Duration, len(rep.Stages))
	for _, s := range rep.Slowest {
		for _, st := range s.Stages {
			perStage[st.Name] = append(perStage[st.Name], st.Duration())
		}
	}
	for name, durs := range perStage {
		ss := rep.Stages[name]
		ss.P50 = dtrace.Quantile(durs, 0.5)
		ss.P99 = dtrace.Quantile(durs, 0.99)
		if e2eTotal > 0 {
			ss.Share = float64(ss.Total) / float64(e2eTotal)
		}
	}
	rep.E2EP50 = dtrace.Quantile(e2es, 0.5)
	rep.E2EP99 = dtrace.Quantile(e2es, 0.99)
	for _, d := range e2es {
		if d > rep.E2EMax {
			rep.E2EMax = d
		}
	}
	sort.Slice(rep.Slowest, func(i, j int) bool {
		if rep.Slowest[i].E2E != rep.Slowest[j].E2E {
			return rep.Slowest[i].E2E > rep.Slowest[j].E2E
		}
		return rep.Slowest[i].Trace < rep.Slowest[j].Trace
	})
	return rep
}

// RenderTraceReport prints the critical-path breakdown and, when
// slowest > 0, a per-stage drill-down of the slowest traces.
func RenderTraceReport(w io.Writer, rep *TraceReport, slowest int) {
	fmt.Fprintf(w, "spans %d  traces %d  complete %d  incomplete %d  problems %d\n",
		rep.Spans, rep.Traces, rep.Complete, rep.Incomplete, len(rep.Problems))
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	if rep.Complete == 0 {
		return
	}
	fmt.Fprintf(w, "e2e p50 %v  p99 %v  max %v\n", rep.E2EP50, rep.E2EP99, rep.E2EMax)
	fmt.Fprintln(w, "critical path:")
	for _, name := range rep.StageOrder {
		ss := rep.Stages[name]
		fmt.Fprintf(w, "  %-12s %5.1f%%  p50 %-10v p99 %-10v max %-10v (%d spans)\n",
			ss.Name, 100*ss.Share, ss.P50, ss.P99, ss.Max, ss.Count)
	}
	if slowest <= 0 {
		return
	}
	if slowest > len(rep.Slowest) {
		slowest = len(rep.Slowest)
	}
	fmt.Fprintf(w, "slowest %d traces:\n", slowest)
	for _, s := range rep.Slowest[:slowest] {
		fmt.Fprintf(w, "  trace %016x  e2e %v\n", uint64(s.Trace), s.E2E)
		for _, st := range s.Stages {
			attr := ""
			if sw := st.Attrs["switch"]; sw != "" {
				attr = "  switch=" + sw
			}
			fmt.Fprintf(w, "    %-12s %-10v proc=%s%s\n", st.Name, st.Duration(), st.Proc, attr)
		}
	}
}
