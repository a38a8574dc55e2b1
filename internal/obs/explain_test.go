package obs

import (
	"bytes"
	"strings"
	"testing"

	"p4guard/internal/p4"
	"p4guard/internal/switchsim"
	"p4guard/internal/telemetry"
)

func sample(allowed, agrees bool, class int, winnerID uint64) switchsim.ExplainSample {
	s := switchsim.ExplainSample{
		Explain: switchsim.Explain{
			Switch:   "gw0",
			ParsedOK: true,
			Verdict:  p4.Verdict{Allowed: allowed, Class: class, Matched: winnerID != 0},
			Table: p4.TableExplain{
				Table: "detector", KindName: "range",
				Matched: winnerID != 0, DefaultUsed: winnerID == 0,
			},
		},
		LookupVerdict: p4.Verdict{Allowed: allowed, Class: class, Matched: winnerID != 0},
		Agrees:        agrees,
	}
	if winnerID != 0 {
		s.Table.Winner = &p4.EntryExplain{ID: winnerID, Priority: 3, Action: "drop", Matched: true}
	}
	return s
}

// TestSummarizeExplain reads a switch journal back: explain records
// among others, one of them a payload that is not a sample.
func TestSummarizeExplain(t *testing.T) {
	var buf bytes.Buffer
	j := telemetry.NewJournal(&buf, "run-gw0")
	_ = j.Event("boot", map[string]any{"switch": "gw0"})
	for i := 0; i < 5; i++ {
		_ = j.Event(switchsim.ExplainRecord, sample(true, true, 0, 0))
	}
	for i := 0; i < 3; i++ {
		_ = j.Event(switchsim.ExplainRecord, sample(false, true, 2, 42))
	}
	_ = j.Event(switchsim.ExplainRecord, sample(false, false, 2, 42))
	_ = j.Event(switchsim.ExplainRecord, "not a sample")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}

	rep := SummarizeExplain(recs)
	if rep.Total != 9 || rep.ParseErrors != 1 {
		t.Fatalf("total=%d parse_errors=%d", rep.Total, rep.ParseErrors)
	}
	if rep.Agree != 8 || len(rep.Disagreements) != 1 {
		t.Fatalf("agree=%d disagreements=%d", rep.Agree, len(rep.Disagreements))
	}
	if got := rep.AgreementRate(); got <= 0.88 || got >= 0.9 {
		t.Fatalf("agreement rate %v", got)
	}
	if rep.Allowed != 5 || rep.Dropped != 4 {
		t.Fatalf("allowed=%d dropped=%d", rep.Allowed, rep.Dropped)
	}
	if rep.ByClass[0] != 5 || rep.ByClass[2] != 4 {
		t.Fatalf("by class %v", rep.ByClass)
	}
	if rep.DefaultUsed != 5 {
		t.Fatalf("default used %d", rep.DefaultUsed)
	}
	if len(rep.Winners) != 1 || rep.Winners[0].EntryID != 42 || rep.Winners[0].Count != 4 {
		t.Fatalf("winners %+v", rep.Winners)
	}

	var out bytes.Buffer
	RenderExplainReport(&out, rep, 5)
	for _, want := range []string{
		"explain samples: 9", "8/9", "allowed=5 dropped=4",
		"entry=42", "wins=4", "DISAGREEMENT",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, out.String())
		}
	}
}

func TestSummarizeExplainEmpty(t *testing.T) {
	rep := SummarizeExplain(nil)
	if rep.Total != 0 || rep.AgreementRate() != 1 {
		t.Fatalf("no samples: %+v", rep)
	}
}
