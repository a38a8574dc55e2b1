package dtrace

import (
	"fmt"
	"sort"
	"time"
)

// TraceSummary is one assembled trace: the root-to-leaf chain of stage
// spans (critical path), nested detail spans, and any spans whose parent
// could not be resolved. E2E is the sum of stage durations — stages are
// defined to tile the critical path end to end, so per-stage breakdowns
// always sum to the trace's total by construction, even though span
// timestamps from different processes are not comparable.
type TraceSummary struct {
	Trace   TraceID
	Stages  []Span // chain order, root first
	Details []Span
	Orphans []Span
	E2E     time.Duration
	// Complete: a single root, every stage span on one unbranched chain,
	// no orphans, and no span ending before it starts.
	Complete bool
}

// Assemble groups spans by trace ID and reconstructs each trace's stage
// chain. Spans with a zero trace ID are ignored. Results are sorted by
// trace ID for deterministic output.
func Assemble(spans []Span) []TraceSummary {
	byTrace := make(map[TraceID][]Span)
	for _, sp := range spans {
		if sp.Trace == 0 {
			continue
		}
		byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
	}
	out := make([]TraceSummary, 0, len(byTrace))
	for tid, group := range byTrace {
		out = append(out, assembleOne(tid, group))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Trace < out[j].Trace })
	return out
}

func assembleOne(tid TraceID, group []Span) TraceSummary {
	ts := TraceSummary{Trace: tid, Complete: true}
	ids := make(map[SpanID]bool, len(group))
	stageKids := make(map[SpanID][]Span)
	var roots []Span
	stageCount := 0
	for _, sp := range group {
		ids[sp.ID] = true
		if sp.EndNs < sp.StartNs {
			ts.Complete = false
		}
	}
	for _, sp := range group {
		switch {
		case sp.IsDetail():
			ts.Details = append(ts.Details, sp)
			if sp.Parent != 0 && !ids[sp.Parent] {
				ts.Orphans = append(ts.Orphans, sp)
			}
		case sp.Parent == 0:
			roots = append(roots, sp)
			stageCount++
		default:
			stageCount++
			if !ids[sp.Parent] {
				ts.Orphans = append(ts.Orphans, sp)
			} else {
				stageKids[sp.Parent] = append(stageKids[sp.Parent], sp)
			}
		}
	}
	sort.Slice(ts.Details, func(i, j int) bool { return ts.Details[i].StartNs < ts.Details[j].StartNs })
	if len(ts.Orphans) > 0 || len(roots) != 1 {
		ts.Complete = false
	}
	if len(roots) == 0 {
		return ts
	}
	// Follow the unique stage-child chain from the (first) root.
	sort.Slice(roots, func(i, j int) bool { return roots[i].StartNs < roots[j].StartNs })
	cur := roots[0]
	ts.Stages = append(ts.Stages, cur)
	for {
		kids := stageKids[cur.ID]
		if len(kids) == 0 {
			break
		}
		if len(kids) > 1 {
			ts.Complete = false
			break
		}
		cur = kids[0]
		ts.Stages = append(ts.Stages, cur)
	}
	if len(ts.Stages) != stageCount {
		ts.Complete = false // branched chain or unreached stage spans
	}
	for _, sp := range ts.Stages {
		ts.E2E += sp.Duration()
	}
	return ts
}

// Verify checks well-formedness across assembled traces and returns one
// human-readable problem per violation: orphan spans, spans ending
// before they start, and per-process timestamp monotonicity along each
// stage chain (successive stages recorded by the same process must not
// start earlier than their predecessor — cross-process pairs are
// skipped because their clocks are unrelated).
func Verify(sums []TraceSummary) []string {
	var problems []string
	for _, ts := range sums {
		for _, sp := range ts.Orphans {
			problems = append(problems, fmt.Sprintf("trace %d: orphan span %q (%d): parent %d not exported", ts.Trace, sp.Name, sp.ID, sp.Parent))
		}
		for _, sp := range append(append([]Span{}, ts.Stages...), ts.Details...) {
			if sp.EndNs < sp.StartNs {
				problems = append(problems, fmt.Sprintf("trace %d: span %q (%d) ends %dns before it starts", ts.Trace, sp.Name, sp.ID, sp.StartNs-sp.EndNs))
			}
		}
		lastByProc := make(map[string]Span)
		for _, sp := range ts.Stages {
			if prev, ok := lastByProc[sp.Proc]; ok && sp.StartNs < prev.StartNs {
				problems = append(problems, fmt.Sprintf("trace %d: proc %q stage %q starts before earlier stage %q", ts.Trace, sp.Proc, sp.Name, prev.Name))
			}
			lastByProc[sp.Proc] = sp
		}
	}
	return problems
}

// Quantile returns the q-quantile (0..1) of the given durations using
// nearest-rank on a sorted copy; zero for an empty slice.
func Quantile(durs []time.Duration, q float64) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(durs))
	copy(sorted, durs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[idx]
}
