package p4

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"p4guard/internal/match"
	"p4guard/internal/match/matchtest"
)

// rangeTable is a range table over a width-byte key holding rows, with
// priorities 0–3 and a class per row (so a verdict names its row).
func rangeTable(t testing.TB, rng *rand.Rand, width int, rows []match.RangeRow) *Table {
	t.Helper()
	tbl := NewTable("det", MatchRange, []FieldSpec{{Name: "k", Offset: 0, Width: width}}, 0, Action{Type: ActionAllow})
	prog := make([]Entry, 0, len(rows))
	for i, row := range rows {
		if !rangeMatch(row.Lo, row.Lo, row.Hi) { // tables refuse the generator's dead rows
			continue
		}
		prog = append(prog, Entry{Priority: rng.Intn(4), Lo: row.Lo, Hi: row.Hi, Action: Action{Type: ActionDrop, Class: i + 1}})
	}
	if err := tbl.Replace(prog); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// checkState holds a generation to the scan of its own entries.
func checkState(t *testing.T, what string, st *lookupState, keys [][]byte) {
	t.Helper()
	for _, k := range keys {
		got, row := st.find(k, nil)
		if want := st.findLinear(k); got != want {
			t.Fatalf("%s: key %x: index finds %+v, scan %+v", what, k, got, want)
		}
		if got != nil && st.byID[row] != got {
			t.Fatalf("%s: key %x: row id %d is not the entry found", what, k, row)
		}
	}
}

// TestOldGenerationsAnswerAsTheyDid is generation isolation at the table:
// a lookup state kept while 600 point rows are installed after it —
// ahead of, between and behind the range rows, into the hash and the
// byID array it still reads, across several doublings — answers every
// key, the installed ones too, as the scan of its own entries does. Two
// readers hold the first generation to that while the installs run.
func TestOldGenerationsAnswerAsTheyDid(t *testing.T) {
	const width, installs = 3, 600
	rng := rand.New(rand.NewSource(29))
	rows := matchtest.Rows(rng, width, 48, 0.5)
	tbl := rangeTable(t, rng, width, rows)

	var fresh [][]byte
	taken := map[string]bool{}
	for _, row := range rows {
		taken[string(row.Lo)] = true // a held key is declined, and the table compiled
	}
	for len(fresh) < installs {
		k := []byte{byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(256))}
		if !taken[string(k)] {
			taken[string(k)] = true
			fresh = append(fresh, k)
		}
	}
	probes := append(matchtest.Keys(rng, width, 500, rows), fresh...)

	first := tbl.state.Load()
	was := make([]*Entry, len(probes))
	for i, k := range probes {
		was[i] = first.findLinear(k)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if got, _ := first.find(probes[i%len(probes)], nil); got != was[i%len(probes)] {
					t.Errorf("first generation, key %x: finds %+v, found %+v", probes[i%len(probes)], got, was[i%len(probes)])
					return
				}
			}
		}(r)
	}
	kept := []*lookupState{first}
	for n, k := range fresh {
		if _, err := tbl.Insert(Entry{Priority: rng.Intn(6) - 1, Lo: k, Hi: k, Action: Action{Type: ActionDrop, Class: 1000 + n}}); err != nil {
			t.Fatal(err)
		}
		if n%41 == 0 || n == installs-1 {
			kept = append(kept, tbl.state.Load())
		}
	}
	close(stop)
	wg.Wait()

	last := kept[len(kept)-1]
	if &last.byID[0] == &last.entries[0] || last.byID[len(last.byID)-1].Action.Class != 1000+installs-1 {
		t.Fatal("a fresh point row was compiled in, not derived")
	}
	for g, st := range kept {
		checkState(t, fmt.Sprintf("generation %d (%d rows)", g, len(st.entries)), st, probes)
	}
}

// TestStatsReadsOneGeneration: every entry of the table has counted 100
// bytes and nothing is looked up any more, so whatever generation Stats
// reads holds 100 bytes per entry. Entries are deleted one by one while
// Stats is read; Entries and HitBytes taken from two generations disagree
// (with one processor the two reads are never apart, and the test says
// nothing).
func TestStatsReadsOneGeneration(t *testing.T) {
	const n = 48
	tbl := NewTable("t", MatchRange, key1(), 0, Action{Type: ActionAllow})
	prog := make([]Entry, n)
	for i := range prog {
		prog[i] = point(byte(i), Action{Type: ActionDrop})
	}
	frame := make([]byte, 100)
	for round := 0; round < 300 && !t.Failed(); round++ {
		if err := tbl.Replace(prog); err != nil {
			t.Fatal(err)
		}
		for i := range prog {
			frame[0] = byte(i)
			tbl.Lookup(frame)
		}
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if s := tbl.Stats(); s.HitBytes != uint64(100*s.Entries) {
					t.Errorf("Stats: %d entries with %d hit bytes", s.Entries, s.HitBytes)
					return
				}
			}
		}()
		for _, e := range tbl.Entries() {
			if err := tbl.Delete(e.ID); err != nil {
				t.Fatal(err)
			}
		}
		stop.Store(true)
		wg.Wait()
	}
}

// TestRangeInsertAllocsIndependentOfHash: a reactive install into a range
// table of 8 192 rows allocates the copy of the sorted entry list, 8 B a
// row, and a few fixed-size structs — not a hash (24 B × 32 768 slots
// here) and not a row map. Measured over batches of installs and taking
// the cheapest, which is one away from a doubling of the hash or of byID;
// the allocator rounds the list up to whole 8 KB pages.
func TestRangeInsertAllocsIndependentOfHash(t *testing.T) {
	const rows, batch = 8192, 16
	rng := rand.New(rand.NewSource(31))
	tbl := NewTable("det", MatchRange, scaleKey(), 0, Action{Type: ActionAllow})
	if err := tbl.Replace(learnedPlusPoints(rng, rows-16)); err != nil {
		t.Fatal(err)
	}
	installs := learnedPlusPoints(rng, 8*batch)[16:]
	best, bestAllocs := ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats
	for len(installs) > 0 {
		runtime.ReadMemStats(&before)
		for _, e := range installs[:batch] {
			if _, err := tbl.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		installs = installs[batch:]
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/batch)
		bestAllocs = min(bestAllocs, (after.Mallocs-before.Mallocs)/batch)
	}
	st := tbl.state.Load()
	if &st.byID[0] == &st.entries[0] {
		t.Fatal("the installs were compiled in, not derived")
	}
	if limit := uint64(8*tbl.Len() + 8192 + 1024); best > limit || bestAllocs > 5 {
		t.Fatalf("%d B and %d allocations an install at %d rows, want at most %d B and 5", best, bestAllocs, tbl.Len(), limit)
	}
}

// TestExplainOrderWithInterleavedInserts: match order and row id part
// ways as soon as a row is installed, and Explain reports match order.
// Programmed rows, installed points on every side of the range rows,
// installed ranges (which compile the table and renumber its rows),
// second rows on held keys and deletes are interleaved; after each step
// the winner, its match order and the rows it beat must be what a scan of
// Entries() says, and all of it together hashes to what the table
// answered before rows had ids.
func TestExplainOrderWithInterleavedInserts(t *testing.T) {
	const width = 2
	rng := rand.New(rand.NewSource(37))
	rows := matchtest.Rows(rng, width, 32, 0.6)
	tbl := rangeTable(t, rng, width, rows)
	frames := matchtest.Keys(rng, width, 48, rows)
	var installed []uint64
	sum := fnv.New64a()
	for step := 0; step < 80; step++ {
		row := matchtest.Rows(rng, width, 1, 1)[0]
		switch op := step % 10; {
		case op == 3: // a range row
			row = matchtest.Rows(rng, width, 1, 0)[0]
			for i := range row.Lo {
				row.Lo[i], row.Hi[i] = min(row.Lo[i], row.Hi[i]), max(row.Lo[i], row.Hi[i])
			}
		case op == 6: // a key some row holds
			e := tbl.Entries()[rng.Intn(tbl.Len())]
			row = match.RangeRow{Lo: e.Lo, Hi: e.Lo}
		case op == 8 && len(installed) > 0:
			i := rng.Intn(len(installed))
			if err := tbl.Delete(installed[i]); err != nil {
				t.Fatal(err)
			}
			installed = append(installed[:i], installed[i+1:]...)
			row.Lo = nil
		}
		if row.Lo != nil {
			id, err := tbl.Insert(Entry{Priority: rng.Intn(6) - 1, Lo: row.Lo, Hi: row.Hi, Action: Action{Type: ActionDrop, Class: 100 + step}})
			if err != nil {
				t.Fatal(err)
			}
			installed = append(installed, id)
			frames[step%len(frames)] = row.Lo
		}

		entries := tbl.Entries()
		for _, frame := range frames {
			ex := tbl.Explain(frame)
			w := len(entries)
			for i, e := range entries {
				if rangeMatch(frame, e.Lo, e.Hi) {
					w = i
					break
				}
			}
			what := fmt.Sprintf("step %d frame %x", step, frame)
			if ex.Matched != (w < len(entries)) || ex.BeatenTotal != w || len(ex.Beaten) != min(w, match.MaxBeaten) {
				t.Fatalf("%s: matched %v, %d beaten (%d listed); scan says row %d of %d", what, ex.Matched, ex.BeatenTotal, len(ex.Beaten), w, len(entries))
			}
			if ex.Matched && (ex.Winner.ID != entries[w].ID || ex.Winner.MatchOrder != w) {
				t.Fatalf("%s: winner id %d order %d, scan says id %d order %d", what, ex.Winner.ID, ex.Winner.MatchOrder, entries[w].ID, w)
			}
			for i, b := range ex.Beaten {
				if b.ID != entries[i].ID || b.MatchOrder != i || b.Matched {
					t.Fatalf("%s: beaten[%d] = id %d order %d matched %v, want id %d", what, i, b.ID, b.MatchOrder, b.Matched, entries[i].ID)
				}
			}
			js, err := json.Marshal(ex)
			if err != nil {
				t.Fatal(err)
			}
			sum.Write(js)
		}
	}
	if got, want := sum.Sum64(), uint64(0xe747522b619a0dde); got != want {
		t.Fatalf("explanations hash to %#x, before rows had ids %#x", got, want)
	}
}
