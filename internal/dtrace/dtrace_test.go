package dtrace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"p4guard/internal/telemetry"
)

func TestSeededIDsDeterministic(t *testing.T) {
	mk := func() []Span {
		tr := NewTracer()
		tr.Arm("p", 7, 64)
		for i := 0; i < 5; i++ {
			root := tr.StartTrace("root")
			child := tr.StartSpan(root.Context(), "child")
			child.End()
			root.End()
		}
		return tr.Spans()
	}
	a, b := mk(), mk()
	if len(a) != len(b) || len(a) != 10 {
		t.Fatalf("span counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Trace != b[i].Trace || a[i].ID != b[i].ID || a[i].Parent != b[i].Parent {
			t.Fatalf("span %d IDs differ: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Trace == 0 || a[i].ID == 0 {
			t.Fatalf("span %d has zero ID: %+v", i, a[i])
		}
	}
}

func TestDisarmedIsInert(t *testing.T) {
	var nilTracer *Tracer
	for _, tr := range []*Tracer{nilTracer, NewTracer()} {
		if tr.Enabled() {
			t.Fatal("disarmed tracer reports enabled")
		}
		sp := tr.StartTrace("x")
		if sp.Active() || sp.Context().Valid() {
			t.Fatal("disarmed tracer produced an active span")
		}
		sp.End() // must not panic
		child := tr.StartSpan(sp.Context(), "y")
		child.End()
		if tr.Total() != 0 || tr.Spans() != nil {
			t.Fatal("disarmed tracer recorded spans")
		}
	}
}

func TestInvalidParentIsInert(t *testing.T) {
	tr := NewTracer()
	tr.Arm("p", 1, 16)
	sp := tr.StartSpan(SpanContext{}, "x")
	if sp.Active() {
		t.Fatal("span with no trace context should be inert")
	}
	sp.End()
	if tr.Total() != 0 {
		t.Fatal("inert span was recorded")
	}
}

func TestRingBoundsAndDropped(t *testing.T) {
	tr := NewTracer()
	tr.Arm("p", 3, 8)
	for i := 0; i < 20; i++ {
		tr.StartTrace("s").End()
	}
	if got := tr.Total(); got != 20 {
		t.Fatalf("total = %d, want 20", got)
	}
	if got := tr.Dropped(); got != 12 {
		t.Fatalf("dropped = %d, want 12", got)
	}
	spans := tr.Spans()
	if len(spans) != 8 {
		t.Fatalf("retained %d spans, want 8", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].StartNs < spans[i-1].StartNs {
			t.Fatalf("spans not oldest-to-newest at %d", i)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := NewTracer()
	tr.Arm("gw0", 11, 32)
	root := tr.StartTraceAt("digest_wait", time.Now().Add(-time.Millisecond))
	root.SetAttr("table", "detector")
	root.End()
	child := tr.StartDetail(root.Context(), "apply", time.Time{})
	child.End()

	// Spans leave a process as journal records: a journal line each,
	// beside whatever else the journal holds.
	var buf bytes.Buffer
	j := telemetry.NewJournal(&buf, "run-spans")
	_ = j.Event("boot", map[string]any{"switch": "gw0"})
	if err := tr.Export(j); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromJournal(recs)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Spans()
	if len(recs) != len(want)+1 || len(got) != len(want) {
		t.Fatalf("read %d spans from %d records, want %d", len(got), len(recs), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Trace != w.Trace || g.ID != w.ID || g.Parent != w.Parent || g.Name != w.Name ||
			g.Kind != w.Kind || g.Proc != w.Proc || g.StartNs != w.StartNs || g.EndNs != w.EndNs {
			t.Fatalf("span %d: got %+v want %+v", i, g, w)
		}
	}
	if got[0].Attrs["table"] != "detector" {
		t.Fatalf("attrs lost: %+v", got[0].Attrs)
	}
}

// TestSpanRecordsPartialTrailingLine: a span journal cut mid-record (a
// crashed writer) still yields the spans before the cut, and a span
// record that does not decode is named, not fatal.
func TestSpanRecordsPartialTrailingLine(t *testing.T) {
	in := `{"run_id":"r","seq":1,"kind":"span","fields":{"trace_id":1,"span_id":2,"name":"a","proc":"p","start_ns":0,"end_ns":5}}` + "\n" +
		`{"run_id":"r","seq":2,"kind":"span","fields":{"trace_id":"x"}}` + "\n" +
		`{"run_id":"r","seq":3,"kind":"span","fields":{"trace_id":3,"span`
	recs, err := telemetry.ReadJournal(strings.NewReader(in))
	if err == nil || len(recs) != 2 {
		t.Fatalf("partial line: %d records, err %v", len(recs), err)
	}
	spans, err := FromJournal(recs)
	if err == nil || !strings.Contains(err.Error(), "span record 2") {
		t.Fatalf("undecodable span record not named: %v", err)
	}
	if len(spans) != 1 || spans[0].Trace != 1 {
		t.Fatalf("clean prefix not returned: %+v", spans)
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr := NewTracer()
	tr.Arm("p", 5, 4096)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				root := tr.StartTrace("r")
				tr.StartSpan(root.Context(), "c").End()
				root.End()
			}
		}()
	}
	wg.Wait()
	if got := tr.Total(); got != 1600 {
		t.Fatalf("total = %d, want 1600", got)
	}
}

// mkSpan builds a test span; helper for assembly tests.
func mkSpan(trace TraceID, id, parent SpanID, name, proc string, kind Kind, start, end int64) Span {
	return Span{Trace: trace, ID: id, Parent: parent, Name: name, Proc: proc, Kind: kind, StartNs: start, EndNs: end}
}

func TestAssembleChain(t *testing.T) {
	spans := []Span{
		// Deliberately shuffled; two procs with unrelated clock bases.
		mkSpan(9, 4, 3, StageInstall, "ctl", KindStage, 300, 340),
		mkSpan(9, 1, 0, StageDigestWait, "gw0", KindStage, 1000, 1100),
		mkSpan(9, 3, 2, StageClassify, "ctl", KindStage, 250, 300),
		mkSpan(9, 2, 1, StageFanInWait, "ctl", KindStage, 200, 250),
		mkSpan(9, 5, 4, DetailApply, "gw0", KindDetail, 1150, 1160),
	}
	sums := Assemble(spans)
	if len(sums) != 1 {
		t.Fatalf("got %d traces, want 1", len(sums))
	}
	ts := sums[0]
	if !ts.Complete {
		t.Fatalf("trace not complete: %+v", ts)
	}
	wantChain := []string{StageDigestWait, StageFanInWait, StageClassify, StageInstall}
	if len(ts.Stages) != len(wantChain) {
		t.Fatalf("chain length %d, want %d", len(ts.Stages), len(wantChain))
	}
	for i, name := range wantChain {
		if ts.Stages[i].Name != name {
			t.Fatalf("stage %d = %q, want %q", i, ts.Stages[i].Name, name)
		}
	}
	if len(ts.Details) != 1 || ts.Details[0].Name != DetailApply {
		t.Fatalf("details: %+v", ts.Details)
	}
	// E2E is the sum of stage durations: 100+50+50+40.
	if ts.E2E != 240 {
		t.Fatalf("E2E = %d, want 240", ts.E2E)
	}
	var sum time.Duration
	for _, sp := range ts.Stages {
		sum += sp.Duration()
	}
	if sum != ts.E2E {
		t.Fatalf("stage sum %d != E2E %d", sum, ts.E2E)
	}
	if probs := Verify(sums); len(probs) != 0 {
		t.Fatalf("unexpected problems: %v", probs)
	}
}

func TestAssembleOrphanAndMalformed(t *testing.T) {
	spans := []Span{
		mkSpan(7, 1, 0, StageDigestWait, "gw0", KindStage, 0, 10),
		mkSpan(7, 3, 99, StageClassify, "ctl", KindStage, 5, 8), // parent missing
		mkSpan(8, 1, 0, "bad", "ctl", KindStage, 50, 40),        // ends before start
	}
	sums := Assemble(spans)
	if len(sums) != 2 {
		t.Fatalf("got %d traces", len(sums))
	}
	for _, ts := range sums {
		if ts.Complete {
			t.Fatalf("trace %d should be incomplete", ts.Trace)
		}
	}
	probs := Verify(sums)
	if len(probs) != 2 {
		t.Fatalf("want 2 problems, got %v", probs)
	}
}

func TestVerifyFlagsNonMonotonicSameProc(t *testing.T) {
	spans := []Span{
		mkSpan(5, 1, 0, "a", "ctl", KindStage, 100, 200),
		mkSpan(5, 2, 1, "b", "ctl", KindStage, 50, 250), // starts before predecessor on same proc
	}
	probs := Verify(Assemble(spans))
	if len(probs) != 1 || !strings.Contains(probs[0], "starts before") {
		t.Fatalf("want monotonicity problem, got %v", probs)
	}
}

func TestQuantile(t *testing.T) {
	durs := []time.Duration{5, 1, 3, 2, 4}
	if q := Quantile(durs, 0); q != 1 {
		t.Fatalf("q0 = %d", q)
	}
	if q := Quantile(durs, 0.5); q != 3 {
		t.Fatalf("q50 = %d", q)
	}
	if q := Quantile(durs, 1); q != 5 {
		t.Fatalf("q100 = %d", q)
	}
	if q := Quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty = %d", q)
	}
}

func TestRearmResetsState(t *testing.T) {
	tr := NewTracer()
	tr.Arm("p", 1, 16)
	tr.StartTrace("x").End()
	tr.Arm("p", 1, 16)
	if tr.Total() != 0 {
		t.Fatal("re-arm kept old spans")
	}
	tr.Disarm()
	if tr.Enabled() {
		t.Fatal("still enabled after disarm")
	}
}
