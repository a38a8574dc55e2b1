package drift

import (
	"bytes"
	"testing"

	"p4guard/internal/telemetry"
)

// TestJournalHookRoundTrip: crossing events written through JournalHook
// must come back intact through telemetry.ReadJournal — the contract
// p4guard-obs's drift section relies on.
func TestJournalHookRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := telemetry.NewJournal(&buf, "run-drift")
	m := NewMonitor()
	m.OnCross(JournalHook(j))

	want := []CrossEvent{
		{Shard: 0, Up: true, Score: 0.41, Threshold: 0.25, Observations: 64},
		{Shard: FleetShard, Up: true, Score: 0.33, Threshold: 0.25, Observations: 64},
		{Shard: 0, Up: false, Score: 0.12, Threshold: 0.25, Observations: 640},
	}
	for _, ev := range want {
		m.fire(ev)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}

	recs, err := telemetry.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("%d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.Kind != CrossRecord {
			t.Fatalf("record %d kind = %q", i, rec.Kind)
		}
		var ev CrossEvent
		if err := rec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, ev, want[i])
		}
	}
	if got := m.Crossings(); got != 2 {
		t.Fatalf("crossings = %d, want 2 (upward only)", got)
	}
}
