package p4

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"p4guard/internal/match/matchtest"
	"p4guard/internal/packet"
)

// deltaChurn is a range table fed deltas, reactive installs and deletes,
// beside what it must equal after every step: a fresh table Replaced with
// the same program and given the same installs in the same order.
type deltaChurn struct {
	t     *testing.T
	rng   *rand.Rand
	width int
	tbl   *Table
	prog  []Entry
	class int // a class per row made, so a verdict names its row and any edit is a computable delta

	reactive    []Entry  // live installs, oldest first
	reactiveIDs []uint64 // their ids in tbl
	probes      [][]byte
	held        []heldGeneration
	derived     int // steps the editor took; the rest were compiled

	// counted is what every lookup so far drew from each row, by the row's
	// id: the check's own, and the bursts forwarded under each mutation.
	counted drawn
	frames  []*packet.Packet
	pipe    *Pipeline      // the forwarder's, over tbl
	ws      BatchWorkspace // the forwarder's, kept across steps as a worker's is
}

// drawn is a per-packet count of the hits and frame bytes lookups drew from
// each row, by id — a row that survives an Apply keeps its id, a re-created
// one gets a new one: the oracle the rows' direct counters are held to.
type drawn map[uint64][2]uint64

func (d drawn) count(e *row, frame []byte) {
	if e != nil {
		n := d[e.ID]
		d[e.ID] = [2]uint64{n[0] + 1, n[1] + uint64(len(frame))}
	}
}

// burstRow is the row frame resolves to, by the scalar probe, in the
// generation ws's last burst read, and the verdict that makes: what the
// burst must have answered and counted for it.
func burstRow(ws *BatchWorkspace, frame []byte) (*row, Verdict) {
	st := ws.cache.state
	e, _ := st.find(ExtractKey(frame, st.key), nil)
	if e == nil {
		return nil, verdictOf(st.def, false)
	}
	return e, verdictOf(e.Action, true)
}

// heldGeneration is a lookup state kept past its time and what it
// answered, by scan, when it was current.
type heldGeneration struct {
	st   *lookupState
	keys [][]byte
	was  []*row
}

func newDeltaChurn(t *testing.T, seed int64, width, rows int, pointShare float64) *deltaChurn {
	c := &deltaChurn{t: t, rng: rand.New(rand.NewSource(seed)), width: width}
	c.tbl = NewTable("det", MatchRange, []FieldSpec{{Name: "k", Offset: 0, Width: width}}, 0, Action{Type: ActionAllow, Class: 9})
	gen := matchtest.Rows(c.rng, width, rows, pointShare)
	for _, row := range gen {
		c.prog = append(c.prog, c.entry(row.Lo, row.Hi, c.rng.Intn(4)))
	}
	if err := c.tbl.Replace(c.prog); err != nil {
		t.Fatal(err)
	}
	c.probes = matchtest.Keys(c.rng, width, 300, gen)
	c.counted = drawn{}
	c.pipe = NewPipeline(c.tbl, 0)
	for i, k := range c.probes { // each padded to a length of its own
		c.frames = append(c.frames, &packet.Packet{Link: packet.LinkEthernet, Bytes: append(slices.Clone(k), make([]byte, i%9)...)})
	}
	return c
}

// forwardDuring runs mutate under what a switch's Run loop is to the
// table: bursts of frames through ProcessBatch on another goroutine, the
// first before the mutation starts and the last after it has returned,
// counting per packet the row each resolved to in whatever generation the
// burst loaded, and holding its verdict to that row's.
func (c *deltaChurn) forwardDuring(mutate func() error) error {
	var bursts atomic.Int32
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		active, out := allIdx(len(c.frames)), make([]Verdict, len(c.frames))
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.pipe.ProcessBatch(c.frames, active, &c.ws, out)
			for i, f := range c.frames {
				e, want := burstRow(&c.ws, f.Bytes)
				if out[i] != want {
					c.t.Errorf("frame %x: burst %+v, its generation's row says %+v", f.Bytes, out[i], want)
				}
				c.counted.count(e, f.Bytes)
			}
			bursts.Add(1)
		}
	}()
	for bursts.Load() == 0 {
		runtime.Gosched()
	}
	err := mutate()
	for n := bursts.Load(); bursts.Load() <= n+1; { // a burst that began after the mutation has ended
		runtime.Gosched()
	}
	close(stop)
	<-done
	return err
}

// carried holds every row the table has to the per-packet count: a row
// that survived an Apply — most have, dozens of them — is the row it was,
// so its counters read what every lookup of its life drew from it, bursts
// forwarded while it was being carried over included, and a re-created one
// (a move) starts from nothing. A row copied across an Apply would have
// lost what it counted before, or what was counted while it was copied.
func (c *deltaChurn) carried() {
	c.t.Helper()
	hit := 0
	for _, e := range append(slices.Clone(c.tbl.prog), c.tbl.inserted...) {
		want := c.counted[e.ID]
		if got := [2]uint64{atomic.LoadUint64(&e.hits), atomic.LoadUint64(&e.bytes)}; got != want {
			c.t.Fatalf("row %d (class %d) counts %d hits and %d bytes, its lookups drew %d and %d", e.ID, e.Action.Class, got[0], got[1], want[0], want[1])
		}
		if want[0] > 0 {
			hit++
		}
	}
	if hit < 8 {
		c.t.Fatalf("%d of %d rows were ever hit: the count proves little", hit, len(c.tbl.prog))
	}
}

// entry makes a row of its own class; the generator's dead rows are
// turned round, as tables refuse them.
func (c *deltaChurn) entry(lo, hi []byte, prio int) Entry {
	c.class++
	lo, hi = slices.Clone(lo), slices.Clone(hi)
	for i := range lo {
		if lo[i] > hi[i] {
			lo[i], hi[i] = hi[i], lo[i]
		}
	}
	return Entry{Priority: prio, Lo: lo, Hi: hi, Action: Action{Type: ActionDrop, Class: c.class}}
}

func (c *deltaChurn) point(key []byte, prio int) Entry { return c.entry(key, key, prio) }

func (c *deltaChurn) freshKey() []byte { return matchtest.Keys(c.rng, c.width, 1, nil)[0] }

// pointRow returns the place of a random point row of the program, -1
// when it has none.
func (c *deltaChurn) pointRow() int {
	var at []int
	for i, e := range c.prog {
		if string(e.Lo) == string(e.Hi) {
			at = append(at, i)
		}
	}
	if len(at) == 0 {
		return -1
	}
	return at[c.rng.Intn(len(at))]
}

// deploy moves the table to next by delta and checks everything.
func (c *deltaChurn) deploy(what string, next []Entry) {
	c.t.Helper()
	d, ok := ComputeDelta(c.prog, next)
	if !ok {
		c.t.Fatalf("%s: delta not computable", what)
	}
	c.probes = append(c.probes, c.touched(d)...)
	c.step(what, func() error { return c.tbl.Apply(d) })
	c.prog = next
	c.check(what)
}

// touched lists the keys a delta's rows start at: the ones whose answer
// is most likely to change.
func (c *deltaChurn) touched(d Delta) (keys [][]byte) {
	for _, i := range d.Deletes {
		keys = append(keys, c.prog[i].Lo)
	}
	for _, m := range d.Moves {
		keys = append(keys, c.prog[m.Base].Lo)
	}
	for _, a := range d.Adds {
		keys = append(keys, a.Entry.Lo)
	}
	return keys
}

// step runs one mutation, holding the generation it supersedes and
// counting whether the next one was derived from it or compiled.
func (c *deltaChurn) step(what string, mutate func() error) {
	c.t.Helper()
	prev := c.tbl.state.Load()
	if c.rng.Intn(4) == 0 {
		h := heldGeneration{st: prev, keys: slices.Clone(c.probes)}
		for _, k := range h.keys {
			h.was = append(h.was, prev.findLinear(k))
		}
		c.held = append(c.held, h)
	}
	if err := c.forwardDuring(mutate); err != nil {
		c.t.Fatalf("%s: %v", what, err)
	}
	if st := c.tbl.state.Load(); st.rows > 0 && !st.compiled() {
		c.derived++
	}
}

func (c *deltaChurn) install(what string, e Entry) {
	c.t.Helper()
	c.probes = append(c.probes, e.Lo)
	c.step(what, func() error {
		id, err := c.tbl.Insert(e)
		c.reactive, c.reactiveIDs = append(c.reactive, e), append(c.reactiveIDs, id)
		return err
	})
	c.check(what)
}

func (c *deltaChurn) uninstall(what string, i int) {
	c.t.Helper()
	c.step(what, func() error { return c.tbl.Delete(c.reactiveIDs[i]) })
	c.reactive, c.reactiveIDs = slices.Delete(c.reactive, i, i+1), slices.Delete(c.reactiveIDs, i, i+1)
	c.check(what)
}

// replace swaps the whole program in, which drops the installs.
func (c *deltaChurn) replace(what string, next []Entry) {
	c.t.Helper()
	c.step(what, func() error { return c.tbl.Replace(next) })
	c.prog, c.reactive, c.reactiveIDs = next, nil, nil
	c.check(what)
}

// sameRows compares two entry lists field for field, ids aside.
func sameRows(a, b []Entry) bool {
	strip := func(es []Entry) []Entry {
		out := slices.Clone(es)
		for i := range out {
			out[i].ID = 0
		}
		return out
	}
	return reflect.DeepEqual(strip(a), strip(b))
}

// check holds the table to a fresh one with the same program and
// installs — signature, the six readers of the match-ordered list (Len,
// Entries, EntrySnapshots, Stats, and on every probe key the scan and
// Explain's winner rank and beaten rows), the program in wire order, Lookup
// and ProcessBatch — and every held generation to what it answered when it
// was current.
func (c *deltaChurn) check(what string) {
	c.t.Helper()
	t := c.t
	fresh := NewTable("fresh", MatchRange, c.tbl.KeySpecs(), 0, c.tbl.DefaultAction)
	if err := fresh.Replace(c.prog); err != nil {
		t.Fatal(err)
	}
	for _, e := range c.reactive {
		if _, err := fresh.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	gn, gh := c.tbl.ProgramSignature()
	wn, wh := fresh.ProgramSignature()
	if gn != wn || gh != wh {
		t.Fatalf("%s: signature (%d, %#x), a fresh table's (%d, %#x)", what, gn, gh, wn, wh)
	}
	if !sameRows(c.tbl.Entries(), fresh.Entries()) {
		t.Fatalf("%s: Entries differ from a fresh table's:\n got  %+v\n want %+v", what, c.tbl.Entries(), fresh.Entries())
	}
	snaps, wantSnaps, stats := c.tbl.EntrySnapshots(), fresh.EntrySnapshots(), c.tbl.Stats()
	if n := len(wantSnaps); c.tbl.Len() != n || stats.Entries != n || len(snaps) != n {
		t.Fatalf("%s: Len %d, Stats %d, %d EntrySnapshots; a fresh table holds %d", what, c.tbl.Len(), stats.Entries, len(snaps), n)
	}
	var hitBytes uint64
	for i, s := range snaps {
		if s.Priority != wantSnaps[i].Priority || s.Action != wantSnaps[i].Action {
			t.Fatalf("%s: EntrySnapshots[%d] is %+v, a fresh table's %+v", what, i, s, wantSnaps[i])
		}
		hitBytes += s.Bytes
	}
	if stats.HitBytes != hitBytes {
		t.Fatalf("%s: Stats counts %d hit bytes, the entries' counters %d", what, stats.HitBytes, hitBytes)
	}
	// The program in wire order is what the next delta's indices name.
	if len(c.tbl.prog) != len(c.prog) {
		t.Fatalf("%s: %d programmed entries, the program has %d", what, len(c.tbl.prog), len(c.prog))
	}
	for i, e := range c.tbl.prog {
		if got := (Entry{Priority: int(e.Priority), Lo: e.lo(), Hi: e.hi(), Action: e.Action}); !sameRows([]Entry{got}, c.prog[i:i+1]) {
			t.Fatalf("%s: programmed entry %d is %+v, the program's %+v", what, i, got, c.prog[i])
		}
	}
	pkts := make([]*packet.Packet, len(c.probes))
	for i, k := range c.probes {
		pkts[i] = &packet.Packet{Link: packet.LinkEthernet, Bytes: k}
	}
	var ws BatchWorkspace
	got := burstOf(c.pipe, pkts, &ws)
	for i, k := range c.probes {
		want, wantMatched := fresh.Lookup(k)
		e, _ := burstRow(&ws, k)
		c.counted.count(e, k) // the burst's lookup of k, then the scalar one
		c.counted.count(e, k)
		if act, matched := c.tbl.Lookup(k); act != want || matched != wantMatched {
			t.Fatalf("%s key %x: Lookup (%+v,%v), a fresh table's (%+v,%v)", what, k, act, matched, want, wantMatched)
		}
		if v := verdictOf(want, wantMatched); got[i] != v {
			t.Fatalf("%s key %x: ProcessBatch %+v, a fresh table's %+v", what, k, got[i], v)
		}
		if act, matched := c.tbl.LookupOracle(k); act != want || matched != wantMatched {
			t.Fatalf("%s key %x: scan (%+v,%v), a fresh table's (%+v,%v)", what, k, act, matched, want, wantMatched)
		}
		ex, wantEx := c.tbl.Explain(k), fresh.Explain(k)
		if ex.Action != want || ex.Matched != wantMatched {
			t.Fatalf("%s key %x: Explain (%+v,%v), a fresh table's (%+v,%v)", what, k, ex.Action, ex.Matched, want, wantMatched)
		}
		// A row's class is its own, so rank and class name the same row in
		// both tables whatever ids they gave it.
		if ex.BeatenTotal != wantEx.BeatenTotal || len(ex.Beaten) != len(wantEx.Beaten) ||
			(ex.Matched && ex.Winner.MatchOrder != wantEx.Winner.MatchOrder) {
			t.Fatalf("%s key %x: Explain ranks the winner %d with %d beaten listed, a fresh table %d with %d",
				what, k, ex.BeatenTotal, len(ex.Beaten), wantEx.BeatenTotal, len(wantEx.Beaten))
		}
		for j, b := range ex.Beaten {
			if w := wantEx.Beaten[j]; b.Class != w.Class || b.Priority != w.Priority || b.MatchOrder != w.MatchOrder {
				t.Fatalf("%s key %x: beaten[%d] is class %d priority %d, a fresh table's class %d priority %d",
					what, k, j, b.Class, b.Priority, w.Class, w.Priority)
			}
		}
	}
	for g, h := range c.held {
		for i, k := range h.keys {
			if got, _ := h.st.find(k, nil); got != h.was[i] {
				t.Fatalf("%s: held generation %d, key %x: finds %+v, found %+v", what, g, k, got, h.was[i])
			}
		}
	}
}

// TestRangeDeltaChurnDifferential is TestTernaryDeltaChurnDifferential
// for the range table's editor. A scripted opening walks the cases one
// by one — a second row on a held key (compiled), its owner deleted (the
// shadowed row answers), a point deleted and put back, moved, a range
// row added, re-prioritised and removed, one delta that takes the hash
// past half full — and then seeded rounds mix point deltas, range-row
// deltas, installs and deletes. After every step the table must be what a
// fresh table with the same program and installs is, and the generations
// held along the way must answer as they did.
func TestRangeDeltaChurnDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := newDeltaChurn(t, 47*seed, 2, 40, 0.7)
			with := func(e Entry, at int) []Entry { return slices.Insert(slices.Clone(c.prog), at, e) }
			without := func(at int) []Entry { return slices.Delete(slices.Clone(c.prog), at, at+1) }

			k := []byte{201, byte(seed)}                  // a key of its own
			owner, shadow := c.point(k, 9), c.point(k, 8) // above every other row
			c.deploy("owner added", with(owner, 0))
			c.deploy("second row on its key", with(shadow, len(c.prog)))
			if act, _ := c.tbl.Lookup(k); act != owner.Action {
				t.Fatalf("two rows on %x: %+v answers, want the owner %+v", k, act, owner.Action)
			}
			c.deploy("owner deleted", without(0))
			if act, _ := c.tbl.Lookup(k); act != shadow.Action {
				t.Fatalf("owner of %x deleted: %+v answers, want the shadowed row %+v", k, act, shadow.Action)
			}
			c.deploy("last row on the key deleted", without(len(c.prog)-1))
			c.deploy("key put back", with(c.point(k, 2), len(c.prog)/2))
			moved := slices.Clone(c.prog)
			moved[len(c.prog)/2].Priority = 5
			c.deploy("point moved", moved)
			c.install("install on the programmed key", c.point(k, 0))
			c.deploy("range row added", with(c.entry([]byte{200, 0}, []byte{202, 255}, 4), 3))
			moved = slices.Clone(c.prog)
			moved[3].Priority = 6
			c.deploy("range row re-prioritised", moved)
			c.deploy("range row removed", without(3))
			grown := slices.Clone(c.prog)
			for i := 0; i < 3*len(c.prog); i++ {
				grown = slices.Insert(grown, c.rng.Intn(len(grown)+1), c.point(c.freshKey(), c.rng.Intn(4)))
			}
			c.deploy("hash past half full", grown)

			var gone [][]byte // keys deleted by earlier rounds, to put back
			const rounds = 200
			for round := 0; round < rounds; round++ {
				what := fmt.Sprintf("round %d", round)
				switch op := c.rng.Intn(10); {
				case op < 5: // a delta of point rows: deleted, moved, added
					next := slices.Clone(c.prog)
					for n := 1 + c.rng.Intn(4); n > 0; n-- {
						at := c.pointRow()
						switch kind := c.rng.Intn(4); {
						case kind == 0 && at >= 0 && len(next) == len(c.prog): // places still line up
							gone = append(gone, next[at].Lo)
							next = slices.Delete(next, at, at+1)
						case kind == 1 && at >= 0 && len(next) == len(c.prog):
							next[at].Priority = c.rng.Intn(6)
						default:
							key := c.freshKey()
							if c.rng.Intn(3) == 0 && len(gone) > 0 {
								key = gone[c.rng.Intn(len(gone))]
							} else if c.rng.Intn(8) == 0 && at >= 0 {
								key = c.prog[at].Lo // a second row on a held key
							}
							next = slices.Insert(next, c.rng.Intn(len(next)+1), c.point(key, c.rng.Intn(4)))
						}
					}
					c.deploy(what+" (points)", next)
				case op == 5: // a delta that touches a range row
					row := matchtest.Rows(c.rng, c.width, 1, 0)[0]
					next := with(c.entry(row.Lo, row.Hi, c.rng.Intn(4)), c.rng.Intn(len(c.prog)+1))
					if at := c.rng.Intn(len(c.prog)); c.rng.Intn(2) == 0 && string(c.prog[at].Lo) != string(c.prog[at].Hi) {
						next = without(at)
					}
					c.deploy(what+" (range)", next)
				case op < 9: // an install: a point mostly, on a held key now and then
					e := c.point(c.freshKey(), c.rng.Intn(6)-1)
					if at := c.pointRow(); c.rng.Intn(6) == 0 && at >= 0 {
						e = c.point(c.prog[at].Lo, c.rng.Intn(6)-1)
					} else if c.rng.Intn(6) == 0 {
						row := matchtest.Rows(c.rng, c.width, 1, 0)[0]
						e = c.entry(row.Lo, row.Hi, c.rng.Intn(4))
					}
					c.install(what+" (install)", e)
				case c.rng.Intn(8) == 0: // a full swap: the installs go, the chain starts over
					c.replace(what+" (replace)", with(c.point(c.freshKey(), c.rng.Intn(4)), c.rng.Intn(len(c.prog)+1)))
				case len(c.reactive) > 0:
					c.uninstall(what+" (delete)", c.rng.Intn(len(c.reactive)))
				}
			}
			if steps := 12 + rounds; c.derived < steps/3 || c.derived > steps-8 {
				t.Fatalf("the editor derived %d generations of at most %d: want both it and the compile it falls back to exercised", c.derived, steps)
			}

			// Every key there is, once, against a fresh table.
			c.probes = c.probes[:0]
			for i := 0; i < 1<<16; i++ {
				c.probes = append(c.probes, []byte{byte(i >> 8), byte(i)})
			}
			c.held = nil
			c.check("every 2-byte key")
			c.carried()
		})
	}
}

// stackDelta replaces n point rows of prog, the same places on every
// call, with rows on fresh keys.
func stackDelta(rng *rand.Rand, prog []Entry, n, class int) []Entry {
	next := slices.Clone(prog)
	for i := 0; i < n; i++ {
		k := make([]byte, 4)
		rng.Read(k)
		next[16+i*len(prog)/(n+1)] = Entry{Priority: 1 << 20, Lo: k, Hi: k, Action: Action{Type: ActionDrop, Class: class}}
	}
	return next
}

// liveHeap is the bytes still reachable once keep's argument is all that
// is kept of the test's tables.
func liveHeap(keep any) uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(keep)
	return m.HeapAlloc
}

// TestStackedDeltasStayBounded feeds a table a thousand deltas and no full
// swap. The ids of departed rows are compacted away as they pile up, so
// what the table holds at the end is within 2x of a fresh table of the
// final program — the first program's slab included, which the sixteen
// range rows that never leave keep whole: one program's worth, the most
// departed rows can pin — and a lookup costs what it costs there (the
// edited hash has no deleted markers). Deltas that keep splitting one gap of the canonical
// order run out of room in it: that surfaces as ErrDeltaBase — the
// controller's cue for a counted full swap — never as a wrong order.
func TestStackedDeltasStayBounded(t *testing.T) {
	const rows, deltas = 2048, 1000
	rng := rand.New(rand.NewSource(53))
	prog := learnedPlusPoints(rng, rows-16)
	base := liveHeap(nil)
	tbl := NewTable("det", MatchRange, scaleKey(), 0, Action{Type: ActionAllow})
	if err := tbl.Replace(prog); err != nil {
		t.Fatal(err)
	}
	compiled := 0
	for i := 0; i < deltas; i++ {
		next := stackDelta(rng, prog, rows/100, 2+i)
		d, ok := ComputeDelta(prog, next)
		if !ok {
			t.Fatalf("delta %d not computable", i)
		}
		if err := tbl.Apply(d); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		prog = next
		if tbl.state.Load().compiled() {
			compiled++
		}
	}
	if compiled == 0 || compiled > deltas/20 {
		t.Fatalf("%d of %d deltas compiled the index: want the few that compact it", compiled, deltas)
	}
	fed := liveHeap(tbl) - base
	tbl = nil
	fresh := NewTable("det", MatchRange, scaleKey(), 0, Action{Type: ActionAllow})
	if err := fresh.Replace(prog); err != nil {
		t.Fatal(err)
	}
	if swapped := liveHeap(fresh) - base; fed > 2*swapped {
		t.Fatalf("a table fed %d deltas holds %d B, a fresh one of the same program %d B: more than twice", deltas, fed, swapped)
	}

	// Lookup cost, on a table fed deltas up to just short of a compaction:
	// the cheapest of alternated passes, taken until the two agree or forty
	// have run, so a scheduler hiccup on one side is not read as a slower
	// table.
	tbl = NewTable("det", MatchRange, scaleKey(), 0, Action{Type: ActionAllow})
	if err := tbl.Replace(prog); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 90; i++ {
		next := stackDelta(rng, prog, rows/100, 2+deltas+i)
		d, _ := ComputeDelta(prog, next)
		if err := tbl.Apply(d); err != nil {
			t.Fatal(err)
		}
		prog = next
	}
	if tbl.state.Load().compiled() {
		t.Fatal("the table timed was compiled, not edited")
	}
	if err := fresh.Replace(prog); err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, 4096)
	for i := range frames {
		frames[i] = prog[16+rng.Intn(len(prog)-16)].Lo
		if i%2 == 0 {
			frames[i] = make([]byte, 4)
			rng.Read(frames[i])
		}
	}
	pass := func(tbl *Table) time.Duration {
		t0 := time.Now()
		for _, f := range frames {
			tbl.Lookup(f)
		}
		return time.Since(t0)
	}
	fedNs, freshNs := pass(tbl), pass(fresh) // warm both
	for try := 0; try < 40 && (try < 10 || float64(fedNs) > 1.10*float64(freshNs)); try++ {
		fedNs, freshNs = min(fedNs, pass(tbl)), min(freshNs, pass(fresh))
	}
	if float64(fedNs) > 1.10*float64(freshNs) {
		t.Fatalf("%d lookups take %v on the table fed deltas, %v on a fresh one: more than 10%% apart", len(frames), fedNs, freshNs)
	}

	// One gap, split again and again: each delta puts a row just ahead of
	// the last one it added, until the gap has no room left.
	var err error
	for i := 0; err == nil; i++ {
		if i > 64 {
			t.Fatal("65 rows fitted into one gap of the canonical order")
		}
		k := []byte{250, 250, 250, byte(i)}
		next := slices.Insert(slices.Clone(prog), 16, Entry{Priority: 1 << 20, Lo: k, Hi: k, Action: Action{Type: ActionDrop, Class: 1}})
		d, _ := ComputeDelta(prog, next)
		before := tbl.Entries()
		if err = tbl.Apply(d); err == nil {
			prog = next
			if err := fresh.Replace(prog); err != nil {
				t.Fatal(err)
			}
			if !sameRows(tbl.Entries(), fresh.Entries()) {
				t.Fatalf("row %d into the gap: match order differs from a fresh table's", i)
			}
		} else if !sameRows(tbl.Entries(), before) {
			t.Fatal("the refused delta changed the table")
		}
	}
	if !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("gap exhausted: %v, want ErrDeltaBase", err)
	}
}

// TestRangeDeltaAllocsIndependentOfRows is the allocation gate of a delta
// apply on a range table: k point rows replaced cost the k entries, the
// two pointer lists (program and match order, 8 B a row each), a flag a
// row, and the copy of the point hash (24 B a slot, 2–4 slots a row) the
// deletes are made in. Not a RangeRow a row, not a second hash, not a
// re-sorted list: eight times the rows may cost eight times those terms
// and nothing else.
func TestRangeDeltaAllocsIndependentOfRows(t *testing.T) {
	const k = 8
	cost := func(rows int) (bytes, slots uint64) {
		rng := rand.New(rand.NewSource(59))
		prog := learnedPlusPoints(rng, rows-16)
		tbl := NewTable("det", MatchRange, scaleKey(), 0, Action{Type: ActionAllow})
		if err := tbl.Replace(prog); err != nil {
			t.Fatal(err)
		}
		slots = 8
		for slots < 2*uint64(rows-16) {
			slots <<= 1
		}
		best := ^uint64(0)
		var before, after runtime.MemStats
		for try := 0; try < 8; try++ {
			next := stackDelta(rng, prog, k, 2+try)
			d, ok := ComputeDelta(prog, next)
			if !ok {
				t.Fatal("delta not computable")
			}
			runtime.ReadMemStats(&before)
			err := tbl.Apply(d)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			prog = next
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		if tbl.state.Load().compiled() {
			t.Fatal("the deltas were compiled in, not derived")
		}
		return best, slots
	}
	small, smallSlots := cost(1024)
	large, largeSlots := cost(8192)
	// Per row: two pointers and a flag; per slot: its copy; then the size
	// classes' rounding on five large allocations.
	limit := small + (8192-1024)*(8+8+1) + (largeSlots-smallSlots)*24 + 5*8192
	if large > limit {
		t.Fatalf("a %d-row delta allocates %d B at 8192 rows and %d B at 1024: more than the pointer lists and the hash copy apart (%d B)", k, large, small, limit)
	}
	if floor := (largeSlots - smallSlots) * 24; large-small < floor {
		t.Fatalf("a %d-row delta allocates %d B at 8192 rows and %d B at 1024: less than the hash copy apart (%d B) — is the gate still measuring the editor?", k, large, small, floor)
	}
}
