package p4

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"p4guard/internal/match"
	"p4guard/internal/match/matchtest"
	"p4guard/internal/packet"
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

// compiled reports whether st came out of reindex: only a compile hands
// the index and the match-ordered list one array, all of it covered.
func (st *lookupState) compiled() bool {
	return st.covered == len(st.byID) && len(st.byID) > 0 && &st.byID[0] == &st.sorted[0]
}

// freshPointKeys returns n distinct 3-byte keys no row starts at: a point
// installed on a key some point row holds is declined by the editor, and
// the table compiled.
func freshPointKeys(rng *rand.Rand, rows []match.RangeRow, n int) (fresh [][]byte) {
	taken := map[string]bool{}
	for _, row := range rows {
		taken[string(row.Lo)] = true
	}
	for len(fresh) < n {
		k := []byte{byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(256))}
		if !taken[string(k)] {
			taken[string(k)] = true
			fresh = append(fresh, k)
		}
	}
	return fresh
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
// readers hold the first generation to that while the installs run. The
// match-ordered list is merged from that same array when somebody asks, so
// every generation kept is also held to listing its own rows, in order, and
// none installed after it. A full swap (Program) closes the run: the kept
// generations are read only after it, through all six readers.
func TestOldGenerationsAnswerAsTheyDid(t *testing.T) {
	const width, installs = 3, 600
	rng := rand.New(rand.NewSource(29))
	rows := matchtest.Rows(rng, width, 48, 0.5)
	tbl := rangeTable(t, rng, width, rows)

	fresh := freshPointKeys(rng, rows, installs)
	probes := append(matchtest.Keys(rng, width, 500, rows), fresh...)

	first := tbl.state.Load()
	was := make([]*row, len(probes))
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
	// Each kept generation with its rows in match order, worked out from
	// the table's own pools while it was current and without a reader
	// touching it.
	type keptGeneration struct {
		st   *lookupState
		rows []*row
	}
	keep := func() keptGeneration {
		rows := append(slices.Clone(tbl.prog), tbl.inserted...)
		sortByPriority(rows)
		return keptGeneration{tbl.state.Load(), rows}
	}
	kept := []keptGeneration{keep()}
	for n, k := range fresh {
		if _, err := tbl.Insert(Entry{Priority: rng.Intn(6) - 1, Lo: k, Hi: k, Action: Action{Type: ActionDrop, Class: 1000 + n}}); err != nil {
			t.Fatal(err)
		}
		if n%50 == 0 && n <= installs-100 {
			kept = append(kept, keep())
		}
	}
	last := tbl.state.Load()
	if last.compiled() || last.byID[len(last.byID)-1].Action.Class != 1000+installs-1 {
		t.Fatal("a fresh point row was compiled in, not derived")
	}
	// A full swap, with the two readers still on the first generation: the
	// table now serves out of a slab it was handed — its rows are the
	// builder's own — and every generation kept answers out of the
	// slab it was built on, which the swap left alone.
	swapped := make([]Entry, 0, 64)
	for i, k := range fresh[:64] {
		swapped = append(swapped, Entry{Priority: i % 3, Lo: k, Hi: k, Action: Action{Type: ActionAllow, Class: 5000 + i}})
	}
	built := rowsOf(tbl, swapped)
	slab := built.rows
	if err := tbl.Program(tbl.KeySpecs(), Action{Type: ActionDigest}, built); err != nil {
		t.Fatal(err)
	}
	now := tbl.state.Load()
	for i, e := range tbl.prog {
		if e != &slab[i] {
			t.Fatalf("after Program, row %d is not the builder's", i)
		}
	}
	if now.rows != len(swapped) || now.def.Type != ActionDigest {
		t.Fatalf("after Program: %d rows under %v", now.rows, now.def)
	}
	checkState(t, "swapped-in generation", now, probes)
	if act, matched := tbl.Lookup(fresh[3]); !matched || act.Class != 5003 {
		t.Fatalf("the swapped-in program answers %+v (matched %v) on its own key", act, matched)
	}
	close(stop)
	wg.Wait()

	// Every kept generation is at least 100 installs old by now, and the
	// byID array it shares with the current one holds them all: each of the
	// six readers must list its rows and no later one, read through a table
	// whose state is the kept generation.
	for g, k := range kept {
		what := fmt.Sprintf("generation %d (%d rows)", g, len(k.rows))
		if g > 0 && k.st.merged != nil {
			t.Fatalf("%s: nothing read it, yet it holds a merged list", what)
		}
		checkState(t, what, k.st, probes)
		held := &Table{Name: "held"}
		held.state.Store(k.st)
		entries, snaps := held.Entries(), held.EntrySnapshots()
		if held.Len() != len(k.rows) || held.Stats().Entries != len(k.rows) || len(entries) != len(k.rows) || len(snaps) != len(k.rows) {
			t.Fatalf("%s: Len %d, Stats %d, %d Entries, %d EntrySnapshots", what, held.Len(), held.Stats().Entries, len(entries), len(snaps))
		}
		for i, e := range k.rows {
			if entries[i].ID != e.ID || snaps[i].ID != e.ID {
				t.Fatalf("%s: place %d holds id %d (Entries) and %d (EntrySnapshots), want %d", what, i, entries[i].ID, snaps[i].ID, e.ID)
			}
		}
		for _, key := range probes {
			w, want := slices.IndexFunc(k.rows, func(e *row) bool { return rangeMatch(key, e.lo(), e.hi()) }), k.st.def
			if w < 0 {
				w = len(k.rows)
			} else {
				want = k.rows[w].Action
			}
			ex := held.Explain(key)
			if act, _ := held.LookupOracle(key); act != want || ex.Action != want {
				t.Fatalf("%s key %x: scan %+v, Explain %+v, want %+v", what, key, act, ex.Action, want)
			}
			if ex.BeatenTotal != w || (ex.Matched && (ex.Winner.ID != k.rows[w].ID || ex.Winner.MatchOrder != w)) {
				t.Fatalf("%s key %x: Explain ranks the winner %d, its rows say %d", what, key, ex.BeatenTotal, w)
			}
			for i, b := range ex.Beaten {
				if b.ID != k.rows[i].ID {
					t.Fatalf("%s key %x: beaten[%d] is id %d, want %d", what, key, i, b.ID, k.rows[i].ID)
				}
			}
		}
		if a, b := k.st.ordered(), k.st.ordered(); g > 0 && (k.st.merged == nil || &a[0] != &b[0]) {
			t.Fatalf("%s: the merged list was not kept for the second reader", what)
		}
	}
}

// TestReadersRaceInstalls: the match-ordered list is merged by whichever
// reader asks first, out of an array the installer is appending to. One
// goroutine reads Entries, Stats and Explain, one runs ProcessBatch, while
// rows are installed at priorities on every side of the programmed ones;
// the installer waits for a read between installs, so the two stay
// interleaved from the first row to the last. Every list seen must be one
// generation's: the program plus the first k installs and nothing of the
// k+1st, in match order, with k never going back.
func TestReadersRaceInstalls(t *testing.T) {
	const width, installs = 3, 300
	rng := rand.New(rand.NewSource(41))
	rows := matchtest.Rows(rng, width, 48, 0.5)
	tbl := rangeTable(t, rng, width, rows)
	base := tbl.Len()
	fresh := freshPointKeys(rng, rows, installs)

	var installed, reads atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // Entries, Stats, Explain
		defer wg.Done()
		seen := 0
		for i := 0; !stop.Load() && !t.Failed(); i++ {
			floor := int(installed.Load())
			entries := tbl.Entries()
			k, top := 0, 999
			for j, e := range entries {
				if e.Action.Class >= 1000 {
					k, top = k+1, max(top, e.Action.Class)
				}
				if j > 0 && (entries[j-1].Priority < e.Priority || entries[j-1].Priority == e.Priority && entries[j-1].ID > e.ID) {
					t.Errorf("Entries out of match order at %d: priority %d id %d, then priority %d id %d", j, entries[j-1].Priority, entries[j-1].ID, e.Priority, e.ID)
				}
			}
			if len(entries) != base+k || top != 999+k || k < max(seen, floor) {
				t.Errorf("Entries lists %d rows, %d of them installs up to class %d, after a list of %d installs and %d finished", len(entries), k, top, seen, floor)
			}
			seen = k
			if s := tbl.Stats(); s.Entries < len(entries) || s.Entries > base+installs {
				t.Errorf("Stats counts %d entries after Entries listed %d", s.Entries, len(entries))
			}
			ex := tbl.Explain(fresh[i%installs])
			if i%installs < k && !ex.Matched {
				t.Errorf("Explain misses key %x, installed %d rows ago", fresh[i%installs], k-i%installs)
			}
			if len(ex.Beaten) != min(ex.BeatenTotal, match.MaxBeaten) || ex.Matched && ex.Winner.MatchOrder != ex.BeatenTotal {
				t.Errorf("Explain lists %d of %d beaten, winner %+v", len(ex.Beaten), ex.BeatenTotal, ex.Winner)
			}
			for _, b := range ex.Beaten {
				if b.Matched {
					t.Errorf("Explain: beaten row %d matches key %x", b.ID, fresh[i%installs])
				}
			}
			reads.Add(1)
		}
	}()
	go func() { // ProcessBatch
		defer wg.Done()
		pkts := make([]*packet.Packet, installs)
		for i, k := range fresh {
			pkts[i] = &packet.Packet{Link: packet.LinkEthernet, Bytes: k}
		}
		p := NewPipeline(tbl, 0)
		var ws BatchWorkspace
		for !stop.Load() && !t.Failed() {
			floor := int(installed.Load())
			got := burstOf(p, pkts, &ws)
			for i := 0; i < floor; i++ {
				if !got[i].Matched {
					t.Errorf("ProcessBatch misses key %x after its install finished", fresh[i])
				}
			}
		}
	}()
	for n, k := range fresh {
		if _, err := tbl.Insert(Entry{Priority: rng.Intn(6) - 1, Lo: k, Hi: k, Action: Action{Type: ActionDrop, Class: 1000 + n}}); err != nil {
			t.Fatal(err)
		}
		installed.Store(int64(n + 1))
		for was := reads.Load(); reads.Load() == was && !t.Failed(); {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()
	if st := tbl.state.Load(); st.compiled() || len(st.byID)-st.covered != installs {
		t.Fatal("the installs were compiled in, not derived")
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

// TestRangeInsertAllocsIndependentOfHash: a reactive install allocates the
// entry, the generation and the index header — the same at 8 192 rows and at
// 131 072. Not a hash (24 B × 32 768 slots at the smaller size), not a row
// map, and not the match-ordered list, which no install builds: the table
// nothing read has none. Measured over batches of installs and taking the
// cheapest, which is one away from a doubling of the hash or of byID.
func TestRangeInsertAllocsIndependentOfHash(t *testing.T) {
	const batch = 16
	cost := func(rows int) (bytes, allocs uint64) {
		rng := rand.New(rand.NewSource(31))
		tbl := NewTable("det", MatchRange, scaleKey(), 0, Action{Type: ActionAllow})
		if err := tbl.Replace(learnedPlusPoints(rng, rows-16)); err != nil {
			t.Fatal(err)
		}
		installs := learnedPlusPoints(rng, 8*batch)[16:]
		bytes, allocs = ^uint64(0), ^uint64(0)
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
			bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/batch)
			allocs = min(allocs, (after.Mallocs-before.Mallocs)/batch)
		}
		st := tbl.state.Load()
		if st.compiled() || len(st.byID)-st.covered != 8*batch {
			t.Fatalf("%d rows: the installs were compiled in, not derived", rows)
		}
		if st.merged != nil {
			t.Fatalf("%d rows: nothing read the table, yet it holds a merged list", rows)
		}
		if tbl.Len() != rows+8*batch || len(tbl.Entries()) != tbl.Len() {
			t.Fatalf("%d rows and %d installs: Len %d, %d Entries", rows, 8*batch, tbl.Len(), len(tbl.Entries()))
		}
		return bytes, allocs
	}
	small, smallAllocs := cost(8192)
	large, largeAllocs := cost(131072)
	if small > 2048 || large > 2048 || 2*large > 3*small || 2*small > 3*large || smallAllocs > 4 || largeAllocs > 4 {
		t.Fatalf("an install allocates %d B in %d allocations at 8192 rows, %d B in %d at 131072: want at most 2048 B and 4, within 1.5x of each other",
			small, smallAllocs, large, largeAllocs)
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
