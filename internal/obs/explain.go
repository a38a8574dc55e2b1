package obs

import (
	"fmt"
	"io"
	"sort"

	"p4guard/internal/switchsim"
	"p4guard/internal/telemetry"
)

// WinnerCount aggregates how often one detector entry won a sampled lookup.
type WinnerCount struct {
	EntryID  uint64
	Priority int
	Action   string
	Count    int
}

// ExplainReport aggregates a journal's explain records (a switch's
// sampled explanations): verdict distribution, per-entry win counts, and
// the explain-vs-lookup agreement the sampler measured on live traffic.
type ExplainReport struct {
	Total int
	// ParseErrors counts explain records whose payload did not decode.
	ParseErrors int
	// Agree counts samples whose reconstructed verdict equals the live
	// engine's verdict. The differential suite enforces 100% offline;
	// anything below that here is a bug worth the disagreement list.
	Agree         int
	Allowed       int
	Dropped       int
	DefaultUsed   int
	ByClass       map[int]int
	Winners       []WinnerCount
	Disagreements []switchsim.ExplainSample
}

// maxDisagreements bounds how many mismatched samples a report retains
// verbatim; the count is always exact.
const maxDisagreements = 8

// AgreementRate returns Agree/Total (1 when there are no samples: no
// evidence of disagreement).
func (r *ExplainReport) AgreementRate() float64 {
	if r.Total == 0 {
		return 1
	}
	return float64(r.Agree) / float64(r.Total)
}

// SummarizeExplain aggregates the explain records among recs; records of
// other kinds are ignored, and an explain record that does not decode is
// counted, not fatal.
func SummarizeExplain(recs []telemetry.JournalRecord) *ExplainReport {
	rep := &ExplainReport{ByClass: make(map[int]int)}
	winners := make(map[uint64]*WinnerCount)
	for _, rec := range recs {
		if rec.Kind != switchsim.ExplainRecord {
			continue
		}
		var sample switchsim.ExplainSample
		if err := rec.Decode(&sample); err != nil {
			rep.ParseErrors++
			continue
		}
		rep.Total++
		if sample.Agrees {
			rep.Agree++
		} else if len(rep.Disagreements) < maxDisagreements {
			rep.Disagreements = append(rep.Disagreements, sample)
		}
		if sample.Verdict.Allowed {
			rep.Allowed++
		} else {
			rep.Dropped++
		}
		rep.ByClass[sample.Verdict.Class]++
		te := &sample.Table
		if te.DefaultUsed {
			rep.DefaultUsed++
		}
		if te.Winner == nil {
			continue
		}
		wc := winners[te.Winner.ID]
		if wc == nil {
			wc = &WinnerCount{EntryID: te.Winner.ID, Priority: te.Winner.Priority, Action: te.Winner.Action}
			winners[te.Winner.ID] = wc
		}
		wc.Count++
	}
	for _, wc := range winners {
		rep.Winners = append(rep.Winners, *wc)
	}
	sort.Slice(rep.Winners, func(a, b int) bool {
		wa, wb := rep.Winners[a], rep.Winners[b]
		if wa.Count != wb.Count {
			return wa.Count > wb.Count
		}
		return wa.EntryID < wb.EntryID
	})
	return rep
}

// RenderExplainReport writes the human-readable explain summary, listing
// at most topN winning entries (all when topN <= 0).
func RenderExplainReport(w io.Writer, rep *ExplainReport, topN int) {
	fmt.Fprintf(w, "explain samples: %d  (parse errors: %d)\n", rep.Total, rep.ParseErrors)
	fmt.Fprintf(w, "  agreement with lookup: %d/%d (%.2f%%)\n",
		rep.Agree, rep.Total, rep.AgreementRate()*100)
	fmt.Fprintf(w, "  verdicts: allowed=%d dropped=%d default_used=%d\n",
		rep.Allowed, rep.Dropped, rep.DefaultUsed)
	classes := make([]int, 0, len(rep.ByClass))
	for c := range rep.ByClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	for _, c := range classes {
		fmt.Fprintf(w, "    class %d: %d\n", c, rep.ByClass[c])
	}
	n := len(rep.Winners)
	if topN > 0 && topN < n {
		n = topN
	}
	if n > 0 {
		fmt.Fprintf(w, "  top winning entries (%d of %d):\n", n, len(rep.Winners))
		for _, wc := range rep.Winners[:n] {
			fmt.Fprintf(w, "    entry=%-6d prio=%-5d %-10s wins=%d\n",
				wc.EntryID, wc.Priority, wc.Action, wc.Count)
		}
	}
	for _, d := range rep.Disagreements {
		fmt.Fprintf(w, "  DISAGREEMENT: explain=%+v lookup=%+v switch=%s\n",
			d.Verdict, d.LookupVerdict, d.Switch)
	}
	if miss := rep.Total - rep.Agree - len(rep.Disagreements); miss > 0 && len(rep.Disagreements) == maxDisagreements {
		fmt.Fprintf(w, "  ... and %d more disagreements\n", miss)
	}
}
