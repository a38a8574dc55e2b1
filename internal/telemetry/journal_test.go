package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

// TestJournalConcurrentWritersWellFormed hammers one journal from many
// goroutines and asserts the resulting stream is line-by-line valid
// JSON with a dense, strictly increasing sequence — the property the
// offline analyzer depends on.
func TestJournalConcurrentWritersWellFormed(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf, "run-test")
	const writers, events = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				if err := j.Event("tick", map[string]any{"writer": w, "i": i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != writers*events {
		t.Fatalf("%d records, want %d", len(recs), writers*events)
	}
	seen := make(map[uint64]bool, len(recs))
	for i, rec := range recs {
		if rec.RunID != "run-test" {
			t.Fatalf("record %d: run id %q", i, rec.RunID)
		}
		if rec.Seq == 0 || rec.Seq > uint64(len(recs)) || seen[rec.Seq] {
			t.Fatalf("record %d: bad or duplicate seq %d", i, rec.Seq)
		}
		seen[rec.Seq] = true
		if rec.Kind != "tick" {
			t.Fatalf("record %d: kind %q", i, rec.Kind)
		}
		var f struct {
			Writer int `json:"writer"`
			I      int `json:"i"`
		}
		if err := rec.Decode(&f); err != nil {
			t.Fatalf("record %d: fields: %v", i, err)
		}
	}
	// Records must appear in seq order: one mutex serializes assignment
	// and write, so interleaving cannot reorder lines.
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("record %d: seq %d after %d", i, recs[i].Seq, recs[i-1].Seq)
		}
	}
}

func TestJournalFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/run.jsonl"
	j, err := OpenJournal(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if j.RunID() == "" {
		t.Fatal("empty generated run id")
	}
	if err := j.Event("run_start", map[string]any{"seed": 7}); err != nil {
		t.Fatal(err)
	}
	if err := j.Event("run_end", nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Kind != "run_start" || recs[1].Kind != "run_end" {
		t.Fatalf("records = %+v", recs)
	}
	if recs[1].MonoNs < recs[0].MonoNs {
		t.Fatalf("monotonic offsets went backwards: %d then %d", recs[0].MonoNs, recs[1].MonoNs)
	}
	if recs[1].Fields != nil {
		t.Fatalf("nil fields serialized as %s", recs[1].Fields)
	}
	var start struct{ Seed int }
	if err := recs[0].Decode(&start); err != nil || start.Seed != 7 {
		t.Fatalf("run_start fields = %+v, %v", start, err)
	}
}

// mixedKinds are payloads shaped like the records the daemons write:
// a control-loop event, a trace span and a sampled explanation.
var mixedKinds = []struct {
	kind   string
	fields any
}{
	{"tick", map[string]int{"i": 0}},
	{"span", struct {
		Trace   uint64 `json:"trace_id"`
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}{7, "classify", 100, 250}},
	{"explain", struct {
		Switch  string `json:"switch"`
		Tables  []any  `json:"tables"`
		Agrees  bool   `json:"agrees"`
		Verdict struct {
			Allowed bool `json:"allowed"`
		} `json:"verdict"`
	}{Switch: "gw0", Tables: []any{map[string]any{"table": "iot_detector", "key": []byte{1, 2}}}, Agrees: true}},
	{"tick", map[string]int{"i": 3}},
}

// writeMixed journals mixedKinds and returns the lines.
func writeMixed(t *testing.T, runID string) []string {
	t.Helper()
	var buf bytes.Buffer
	j := NewJournal(&buf, runID)
	for _, m := range mixedKinds {
		if err := j.Event(m.kind, m.fields); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	return strings.SplitAfter(buf.String(), "\n")[:len(mixedKinds)]
}

// TestReadJournalToleratesPartialTrailingLine simulates a writer killed
// mid-record, on each kind of record: the clean prefix must still parse,
// payloads intact, with the error reported.
func TestReadJournalToleratesPartialTrailingLine(t *testing.T) {
	lines := writeMixed(t, "run-crash")
	for n := 1; n <= len(lines); n++ {
		doc := strings.Join(lines[:n], "")
		doc = doc[:len(doc)-10] // chop mid-way through record n
		recs, err := ReadJournal(strings.NewReader(doc))
		if err == nil {
			t.Fatalf("journal cut in its %s record parsed without error", mixedKinds[n-1].kind)
		}
		if len(recs) != n-1 {
			t.Fatalf("cut in record %d: %d clean records recovered, want %d", n, len(recs), n-1)
		}
		for i, rec := range recs {
			var got, want map[string]any
			b, _ := json.Marshal(mixedKinds[i].fields)
			if rec.Kind != mixedKinds[i].kind || rec.Decode(&got) != nil || json.Unmarshal(b, &want) != nil ||
				fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("clean record %d = %s %v, want %s %v", i, rec.Kind, got, mixedKinds[i].kind, want)
			}
		}
	}
}

// TestReadJournalMidFileCorruption covers corruption in the *interior*
// of a journal — a torn write or disk fault in the middle, not just a
// crashed tail — here in an explain record between a span and a tick.
// The records before the bad line must come back clean and the error
// must name the offending line.
func TestReadJournalMidFileCorruption(t *testing.T) {
	lines := writeMixed(t, "run-mid")

	cases := map[string]struct {
		corrupt string // replaces line 3 (index 2)
		clean   int
		errLine string
	}{
		"garbage line":   {"!!not json!!\n", 2, "line 3"},
		"truncated line": {lines[2][:len(lines[2])/2] + "\n", 2, "line 3"},
		"binary splice":  {"\x00\x01\x02\n", 2, "line 3"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			doc := lines[0] + lines[1] + tc.corrupt + lines[3]
			recs, err := ReadJournal(strings.NewReader(doc))
			if err == nil {
				t.Fatal("corrupt interior line parsed without error")
			}
			if !strings.Contains(err.Error(), tc.errLine) {
				t.Fatalf("error %q does not name %s", err, tc.errLine)
			}
			if len(recs) != tc.clean {
				t.Fatalf("%d clean records recovered, want %d", len(recs), tc.clean)
			}
			for i, rec := range recs {
				if rec.Kind != mixedKinds[i].kind || rec.Seq != uint64(i+1) {
					t.Fatalf("clean prefix record %d = %+v", i, rec)
				}
			}
		})
	}
}

// TestReadJournalSkipsBlankInteriorLines: blank lines (e.g. from an
// append with a spurious newline) are not corruption.
func TestReadJournalSkipsBlankInteriorLines(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf, "run-blank")
	_ = j.Event("a", nil)
	_ = j.Event("b", nil)
	_ = j.Flush()
	lines := strings.SplitAfter(buf.String(), "\n")[:2]
	recs, err := ReadJournal(strings.NewReader(lines[0] + "\n\n" + lines[1]))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Kind != "a" || recs[1].Kind != "b" {
		t.Fatalf("records = %+v", recs)
	}
}

func TestNewRunIDUnique(t *testing.T) {
	a, b := NewRunID(), NewRunID()
	if a == b {
		t.Fatalf("duplicate run ids %q", a)
	}
	if !strings.HasPrefix(a, "run-") {
		t.Fatalf("run id %q", a)
	}
}
