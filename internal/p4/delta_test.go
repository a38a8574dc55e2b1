package p4

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/bits"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func key2() []FieldSpec {
	return []FieldSpec{
		{Name: "b0", Offset: 0, Width: 1},
		{Name: "b1", Offset: 1, Width: 1},
	}
}

// randTernaryProgram builds a duplicate-free ternary program over a
// 2-byte key: a small mask pool forces partition reuse, a small
// priority range forces ties resolved by canonical order.
func randTernaryProgram(rng *rand.Rand, n int) []Entry {
	masks := [][]byte{
		{0xff, 0xff}, {0xff, 0x00}, {0xf0, 0x00},
		{0x80, 0x80}, {0x00, 0x00}, {0xc0, 0xff},
	}
	seen := make(map[string]bool, n)
	out := make([]Entry, 0, n)
	for len(out) < n {
		m := masks[rng.Intn(len(masks))]
		v := []byte{byte(rng.Intn(256)) & m[0], byte(rng.Intn(256)) & m[1]}
		k := string(v) + "|" + string(m)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, Entry{
			Priority: rng.Intn(6),
			Value:    v,
			Mask:     append([]byte(nil), m...),
			Action:   Action{Type: ActionDrop, Class: 1 + rng.Intn(5)},
		})
	}
	return out
}

// mutateProgram derives an edited program: deletions, priority moves,
// and insertions at random positions, keeping survivors in base order
// so ComputeDelta always succeeds.
func mutateProgram(rng *rand.Rand, old []Entry) []Entry {
	seen := make(map[string]bool, len(old))
	for i := range old {
		seen[string(old[i].Value)+"|"+string(old[i].Mask)] = true
	}
	out := make([]Entry, 0, len(old))
	for _, e := range old {
		switch rng.Intn(10) {
		case 0: // delete
		case 1, 2: // move
			e.Priority = rng.Intn(6)
			out = append(out, e)
		default:
			out = append(out, e)
		}
	}
	for _, a := range randTernaryProgram(rng, 4) {
		k := string(a.Value) + "|" + string(a.Mask)
		if seen[k] {
			continue
		}
		seen[k] = true
		pos := rng.Intn(len(out) + 1)
		out = append(out[:pos], append([]Entry{a}, out[pos:]...)...)
	}
	return out
}

func ternaryCorpus(rng *rand.Rand, n int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
	}
	return frames
}

func zeroID(e Entry) Entry {
	e.ID = 0
	return e
}

func entriesEqualIgnoringID(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if fmt.Sprintf("%+v", zeroID(a[i])) != fmt.Sprintf("%+v", zeroID(b[i])) {
			return false
		}
	}
	return true
}

// TestApplyMatchesReplace is the delta round-trip property: for random
// base programs and random edits, Apply(ComputeDelta(old, new)) must
// leave the table in exactly the state Replace(new) would — same entries
// in the same match order (IDs aside), same signature hash, same verdict
// for every key
// against both the indexed lookup and the linear oracle.
func TestApplyMatchesReplace(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		oldP := randTernaryProgram(rng, 20+rng.Intn(30))
		newP := mutateProgram(rng, oldP)

		d, ok := ComputeDelta(oldP, newP)
		if !ok {
			t.Fatalf("seed %d: ComputeDelta failed on an order-preserving edit", seed)
		}

		tblA := NewTable("a", MatchTernary, key2(), 0, Action{Type: ActionAllow})
		if err := tblA.Replace(oldP); err != nil {
			t.Fatal(err)
		}
		if err := tblA.Apply(d); err != nil {
			t.Fatalf("seed %d: apply: %v", seed, err)
		}
		tblB := NewTable("b", MatchTernary, key2(), 0, Action{Type: ActionAllow})
		if err := tblB.Replace(newP); err != nil {
			t.Fatal(err)
		}

		if !entriesEqualIgnoringID(tblA.Entries(), tblB.Entries()) {
			t.Fatalf("seed %d: delta-applied program differs from Replace(new)", seed)
		}
		ca, ha := tblA.ProgramSignature()
		cb, hb := tblB.ProgramSignature()
		if ca != cb || ha != hb {
			t.Fatalf("seed %d: signatures differ: (%d,%#x) vs (%d,%#x)", seed, ca, ha, cb, hb)
		}
		for _, frame := range ternaryCorpus(rng, 200) {
			aa, am := tblA.Lookup(frame)
			ba, bm := tblB.Lookup(frame)
			if aa != ba || am != bm {
				t.Fatalf("seed %d: frame %v: delta table (%v,%v) != replace table (%v,%v)",
					seed, frame, aa, am, ba, bm)
			}
			oa, om := tblA.LookupOracle(frame)
			if oa != aa || om != am {
				t.Fatalf("seed %d: frame %v: lookup (%v,%v) != oracle (%v,%v)",
					seed, frame, aa, am, oa, om)
			}
		}
	}
}

func TestApplyBaseMismatch(t *testing.T) {
	prog := []Entry{
		{Priority: 1, Value: []byte{1, 0}, Mask: []byte{0xff, 0x00}, Action: Action{Type: ActionDrop, Class: 1}},
		{Priority: 2, Value: []byte{2, 0}, Mask: []byte{0xff, 0x00}, Action: Action{Type: ActionDrop, Class: 2}},
	}
	tbl := NewTable("det", MatchTernary, key2(), 0, Action{Type: ActionAllow})
	if err := tbl.Replace(prog); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Apply(Delta{BaseCount: 7}); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("count mismatch: err = %v, want ErrDeltaBase", err)
	}
	_, hash := tbl.ProgramSignature()
	if err := tbl.Apply(Delta{BaseCount: 2, BaseHash: hash ^ 1, Deletes: []int{0}}); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("hash mismatch: err = %v, want ErrDeltaBase", err)
	}
	// Zero BaseHash skips the hash check.
	if err := tbl.Apply(Delta{BaseCount: 2, Deletes: []int{1}}); err != nil {
		t.Fatalf("unhashed delta: %v", err)
	}
	if got := tbl.Entries(); len(got) != 1 || got[0].Value[0] != prog[0].Value[0] {
		t.Fatalf("delete left %+v", got)
	}
}

func TestApplyAtomicOnError(t *testing.T) {
	prog := []Entry{
		{Priority: 1, Value: []byte{1, 0}, Mask: []byte{0xff, 0x00}, Action: Action{Type: ActionDrop, Class: 1}},
		{Priority: 2, Value: []byte{2, 0}, Mask: []byte{0xff, 0x00}, Action: Action{Type: ActionDrop, Class: 2}},
	}
	tbl := NewTable("det", MatchTernary, key2(), 0, Action{Type: ActionAllow})
	if err := tbl.Replace(prog); err != nil {
		t.Fatal(err)
	}
	before := tbl.Entries()
	_, beforeHash := tbl.ProgramSignature()

	bad := []Delta{
		{BaseCount: 2, Deletes: []int{5}},                                                                // delete out of range
		{BaseCount: 2, Deletes: []int{0, 0}},                                                             // duplicate removal
		{BaseCount: 2, Moves: []DeltaMove{{Base: 0, Priority: 9, Order: 7}}},                             // order out of range
		{BaseCount: 2, Adds: []DeltaAdd{{Entry: Entry{Value: []byte{1}, Mask: []byte{0xff}}, Order: 2}}}, // bad width
		{BaseCount: 2, Adds: []DeltaAdd{ // colliding orders
			{Entry: Entry{Value: []byte{9, 0}, Mask: []byte{0xff, 0x00}, Action: Action{Type: ActionDrop}}, Order: 2},
			{Entry: Entry{Value: []byte{8, 0}, Mask: []byte{0xff, 0x00}, Action: Action{Type: ActionDrop}}, Order: 2},
		}},
	}
	for i, d := range bad {
		if err := tbl.Apply(d); err == nil {
			t.Fatalf("bad delta %d applied", i)
		}
		if !entriesEqualIgnoringID(tbl.Entries(), before) {
			t.Fatalf("bad delta %d mutated the table", i)
		}
		if _, h := tbl.ProgramSignature(); h != beforeHash {
			t.Fatalf("bad delta %d changed the signature", i)
		}
	}
}

// TestApplyPreservesCountersAndInserted: a delta touches only what it
// names — surviving programmed entries keep their IDs and live hit
// counters, and reactive Inserts stay installed (unlike Replace, which
// wipes them).
func TestApplyPreservesCountersAndInserted(t *testing.T) {
	prog := []Entry{
		{Priority: 5, Value: []byte{1, 0}, Mask: []byte{0xff, 0x00}, Action: Action{Type: ActionDrop, Class: 1}},
		{Priority: 4, Value: []byte{2, 0}, Mask: []byte{0xff, 0x00}, Action: Action{Type: ActionDrop, Class: 2}},
	}
	tbl := NewTable("det", MatchTernary, key2(), 0, Action{Type: ActionAllow})
	if err := tbl.Replace(prog); err != nil {
		t.Fatal(err)
	}
	survivorID := tbl.Entries()[0].ID // prog[0], the highest priority so far
	_, progHash := tbl.ProgramSignature()
	reactiveID, err := tbl.Insert(Entry{Priority: 9, Value: []byte{7, 7}, Mask: []byte{0xff, 0xff},
		Action: Action{Type: ActionDrop, Class: 9}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tbl.Lookup([]byte{1, 0}) // bump the survivor's counter
	}

	d := Delta{
		BaseCount: 2,
		BaseHash:  progHash,
		Deletes:   []int{1},
		Adds: []DeltaAdd{{Entry: Entry{Priority: 3, Value: []byte{3, 0}, Mask: []byte{0xff, 0x00},
			Action: Action{Type: ActionDrop, Class: 3}}, Order: 1}},
	}
	if err := tbl.Apply(d); err != nil {
		t.Fatal(err)
	}
	if hits, ok := entryHits(tbl, survivorID); !ok || hits != 3 {
		t.Fatalf("survivor hits = %d, installed = %v, want 3 kept across Apply", hits, ok)
	}
	if _, ok := entryHits(tbl, reactiveID); !ok {
		t.Fatal("reactive entry lost by Apply")
	}
	if act, _ := tbl.Lookup([]byte{7, 7}); act.Class != 9 {
		t.Fatalf("reactive entry not matching after Apply: %+v", act)
	}
	// Replace wipes reactive state; Apply must not have.
	if err := tbl.Replace(prog); err != nil {
		t.Fatal(err)
	}
	if _, ok := entryHits(tbl, reactiveID); ok {
		t.Fatal("Replace kept a reactive entry")
	}
}

// entryHits reads one installed entry's hit counter.
func entryHits(tbl *Table, id uint64) (hits uint64, ok bool) {
	for _, c := range tbl.EntrySnapshots() {
		if c.ID == id {
			return c.Hits, true
		}
	}
	return 0, false
}

func TestComputeDeltaBails(t *testing.T) {
	mk := func(v byte, prio int) Entry {
		return Entry{Priority: prio, Value: []byte{v, 0}, Mask: []byte{0xff, 0x00},
			Action: Action{Type: ActionDrop, Class: 1}}
	}
	// Duplicate match keys on either side are ambiguous.
	if _, ok := ComputeDelta([]Entry{mk(1, 1), mk(1, 2)}, []Entry{mk(2, 1)}); ok {
		t.Fatal("duplicate old keys accepted")
	}
	if _, ok := ComputeDelta([]Entry{mk(2, 1)}, []Entry{mk(1, 1), mk(1, 2)}); ok {
		t.Fatal("duplicate new keys accepted")
	}
	// Survivors that swap relative order cannot be expressed.
	oldP := []Entry{mk(1, 1), mk(2, 1)}
	newP := []Entry{mk(2, 1), mk(1, 1)}
	if _, ok := ComputeDelta(oldP, newP); ok {
		t.Fatal("survivor reorder accepted")
	}
	// The same swap with a priority change is a move, which is fine.
	newP = []Entry{mk(2, 5), mk(1, 1)}
	d, ok := ComputeDelta(oldP, newP)
	if !ok || len(d.Moves) != 1 {
		t.Fatalf("move-based reorder rejected: ok=%v delta=%+v", ok, d)
	}
}

// matchFieldsKey is an entry's identity in computeDeltaRef: every field
// except priority (so a priority change pairs up as a move).
func matchFieldsKey(e *Entry) string {
	b := make([]byte, 0, 48+len(e.Value)+len(e.Mask)+len(e.Lo)+len(e.Hi))
	var num [8]byte
	for _, v := range []int{int(e.Action.Type), e.Action.Class} {
		binary.BigEndian.PutUint64(num[:], uint64(int64(v)))
		b = append(b, num[:]...)
	}
	for _, f := range [][]byte{e.Value, e.Mask, e.Lo, e.Hi} {
		binary.BigEndian.PutUint64(num[:], uint64(len(f)))
		b = append(b, num[:]...)
		b = append(b, f...)
	}
	return string(b)
}

// computeDeltaRef is the diff ComputeDelta replaced, kept as its oracle:
// two maps over a key string built per row. ComputeDelta must return the
// same Delta and the same ok on every input.
func computeDeltaRef(old, new []Entry) (Delta, bool) {
	d := Delta{BaseCount: len(old)}
	oldIdx := make(map[string]int, len(old))
	for i := range old {
		d.BaseHash ^= HashEntry(&old[i])
		k := matchFieldsKey(&old[i])
		if _, dup := oldIdx[k]; dup {
			return Delta{}, false
		}
		oldIdx[k] = i
	}
	matched := make([]bool, len(old))
	lastSurvivor := -1
	seenNew := make(map[string]bool, len(new))
	for ni := range new {
		k := matchFieldsKey(&new[ni])
		if seenNew[k] {
			return Delta{}, false
		}
		seenNew[k] = true
		oi, found := oldIdx[k]
		if !found {
			d.Adds = append(d.Adds, DeltaAdd{Entry: new[ni], Order: ni})
			continue
		}
		matched[oi] = true
		if old[oi].Priority != new[ni].Priority {
			d.Moves = append(d.Moves, DeltaMove{Base: oi, Priority: new[ni].Priority, Order: ni})
			continue
		}
		if oi < lastSurvivor {
			return Delta{}, false
		}
		lastSurvivor = oi
	}
	for i := range old {
		if !matched[i] {
			d.Deletes = append(d.Deletes, i)
		}
	}
	return d, true
}

// randDiffEntry draws a row of a random kind from a pool small enough
// that rows often agree on all but one field: same bytes under another
// class, another action, another field, nil against empty.
func randDiffEntry(rng *rand.Rand) Entry {
	field := func() []byte {
		switch rng.Intn(8) {
		case 0:
			return nil
		case 1:
			return []byte{}
		default:
			return []byte{byte(rng.Intn(3)), byte(rng.Intn(3))}
		}
	}
	e := Entry{
		ID:       uint64(rng.Intn(100)),
		Priority: rng.Intn(5) - 1,
		Action:   Action{Type: ActionType(1 + rng.Intn(5)), Class: rng.Intn(4) - 1},
	}
	switch rng.Intn(3) {
	case 0:
		e.Value, e.Mask = field(), field()
	case 1:
		e.Lo, e.Hi = field(), field()
	default:
		e.Value = field()
	}
	return e
}

// randDiffPrograms draws a base program and a successor. Most pairs are
// ordinary edits (deletes, replacements, priority moves, inserts); a
// share adds what must make the diff fail (a survivor swap, a duplicate
// on either side), and some are empty or unrelated.
func randDiffPrograms(rng *rand.Rand, maxRows int) (old, new []Entry) {
	seen := map[string]bool{}
	fresh := func() Entry {
		for {
			e := randDiffEntry(rng)
			if k := matchFieldsKey(&e); !seen[k] {
				seen[k] = true
				return e
			}
		}
	}
	if rng.Intn(12) != 0 {
		for n := rng.Intn(maxRows); len(old) < n; {
			old = append(old, fresh())
		}
	}
	switch rng.Intn(12) {
	case 0: // empty successor
	case 1: // unrelated successor
		for n := rng.Intn(maxRows); len(new) < n; {
			new = append(new, randDiffEntry(rng))
		}
	default:
		for _, e := range old {
			switch rng.Intn(12) {
			case 0: // delete
				continue
			case 1: // replace
				e = fresh()
			case 2, 3: // move (or, drawing the same priority, survive)
				e.Priority = rng.Intn(5) - 1
			}
			new = append(new, e)
			if rng.Intn(12) == 0 {
				new = append(new, fresh())
			}
		}
	}
	if len(new) > 1 && rng.Intn(6) == 0 { // swap: fails unless one of the two moved
		i, j := rng.Intn(len(new)), rng.Intn(len(new))
		new[i], new[j] = new[j], new[i]
	}
	if len(new) > 0 && rng.Intn(10) == 0 { // duplicate in new, perhaps under another priority
		e := new[rng.Intn(len(new))]
		e.Priority = rng.Intn(5) - 1
		new = append(new, e)
	}
	if len(old) > 0 && rng.Intn(10) == 0 { // duplicate in old
		old = append(old, old[rng.Intn(len(old))])
	}
	return old, new
}

// TestComputeDeltaMatchesReference is the differential test for the
// diff: on seeded random programs the table-based ComputeDelta and the
// map-based reference return DeepEqual deltas and the same ok.
func TestComputeDeltaMatchesReference(t *testing.T) {
	oks := 0
	const seeds = 4000
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		oldP, newP := randDiffPrograms(rng, 48)
		want, wantOK := computeDeltaRef(oldP, newP)
		got, ok := ComputeDelta(oldP, newP)
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: ComputeDelta = (%+v, %v), reference (%+v, %v)", seed, got, ok, want, wantOK)
		}
		if ok {
			oks++
		}
	}
	if oks < seeds/4 || oks > seeds*3/4 {
		t.Fatalf("%d of %d pairs had a delta: the generator no longer covers both outcomes", oks, seeds)
	}

	// Action types are ints and pair on all of it: 257 is not 1 (allow)
	// for sharing its low byte. A diff that paired the two would carry no
	// edit, and the switch would go on allowing.
	oldP := []Entry{{Priority: 1, Lo: []byte{7}, Hi: []byte{7}, Action: Action{Type: ActionAllow, Class: 2}}}
	newP := []Entry{oldP[0]}
	newP[0].Action.Type = ActionAllow + 256
	want, wantOK := computeDeltaRef(oldP, newP)
	got, ok := ComputeDelta(oldP, newP)
	if !ok || !wantOK || !reflect.DeepEqual(got, want) || len(got.Deletes) != 1 || len(got.Adds) != 1 {
		t.Fatalf("action type 1 against 257: ComputeDelta = (%+v, %v), reference (%+v, %v), want one delete and one add", got, ok, want, wantOK)
	}
}

// TestComputeDeltaOneProbeChain masks the table's hash to zero, so every
// row lands on one probe chain behind the same tag and pairing rests on
// the row compare alone: a tag hit taken for a match would pair every
// row with the first.
func TestComputeDeltaOneProbeChain(t *testing.T) {
	oks := 0
	const seeds = 600
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		oldP, newP := randDiffPrograms(rng, 24)
		want, wantOK := computeDeltaRef(oldP, newP)
		got, ok := diffRows(oldP, newP, (*Entry).deltaRow, 0)
		for i := range got.Adds {
			got.Adds[i].Entry = newP[got.Adds[i].Order]
		}
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: diffRows = (%+v, %v), reference (%+v, %v)", seed, got, ok, want, wantOK)
		}
		if ok {
			oks++
		}
	}
	if oks < seeds/4 {
		t.Fatalf("only %d of %d pairs had a delta", oks, seeds)
	}
}

// hashEntryFNV is HashEntry as first written, on hash/fnv. The zero is
// the word where a field no row carries any more was folded in.
func hashEntryFNV(e *Entry) uint64 {
	h := fnv.New64a()
	var num [8]byte
	for _, v := range []int{e.Priority, 0, int(e.Action.Type), e.Action.Class} {
		binary.BigEndian.PutUint64(num[:], uint64(int64(v)))
		h.Write(num[:])
	}
	for _, b := range [][]byte{e.Value, e.Mask, e.Lo, e.Hi} {
		binary.BigEndian.PutUint64(num[:], uint64(len(b)))
		h.Write(num[:])
		h.Write(b)
	}
	return h.Sum64()
}

// TestHashEntryMatchesFNV1a pins HashEntry to FNV-1a. A switch compares
// a delta's BaseHash with the signature it keeps itself, and the two
// ends may be different builds: a faster hash that is not bit-identical
// would turn every delta into a base-mismatch fallback. The golden
// values were printed by the hash/fnv implementation.
func TestHashEntryMatchesFNV1a(t *testing.T) {
	golden := []struct {
		e    Entry
		want uint64
	}{
		{Entry{}, 0xb9b23f3a46fd0825},
		{Entry{Priority: 7, Lo: []byte{10, 0, 0, 0, 0, 1}, Hi: []byte{20, 255, 255, 255, 255, 1},
			Action: Action{Type: ActionDrop, Class: 3}}, 0x10456d8f1fdb7881},
		{Entry{Priority: -2, Value: []byte{0xde, 0xad, 0xbe, 0xef}, Mask: []byte{0xff, 0xff, 0xf8, 0x00},
			Action: Action{Type: 4, Class: -5}}, 0xa4470a787dcdc4a6}, // a type no table defines hashes all the same
	}
	for i := range golden {
		if got := HashEntry(&golden[i].e); got != golden[i].want {
			t.Errorf("golden %d: HashEntry = %#x, want %#x", i, got, golden[i].want)
		}
	}
	rng := rand.New(rand.NewSource(11))
	field := func() []byte {
		b := make([]byte, []int{0, 1, 6, 20}[rng.Intn(4)])
		rng.Read(b)
		return b
	}
	num := func() int { // every byte length, both signs
		return int(int64(rng.Uint64()) >> uint(rng.Intn(64)))
	}
	for i := 0; i < 2000; i++ {
		e := Entry{ID: rng.Uint64(), Priority: num(),
			Value: field(), Mask: field(), Lo: field(), Hi: field(),
			Action: Action{Type: ActionType(num()), Class: num()}}
		if got, want := HashEntry(&e), hashEntryFNV(&e); got != want {
			t.Fatalf("entry %d (%+v): HashEntry = %#x, hash/fnv gives %#x", i, e, got, want)
		}
	}
}

// churnedRangeProgram builds an n-row range program and a successor in
// which churn rows, spread evenly over the table, are replaced.
func churnedRangeProgram(n, churn int) (old, new []Entry) {
	row := func(i, class int) Entry {
		return Entry{Priority: n - i, Lo: []byte{byte(i >> 8), byte(i), 0}, Hi: []byte{byte(i >> 8), byte(i), 9},
			Action: Action{Type: ActionDrop, Class: class}}
	}
	old, new = make([]Entry, n), make([]Entry, n)
	for i := range old {
		old[i] = row(i, 1)
		new[i] = old[i]
	}
	for k := 0; k < churn; k++ {
		i := k * n / churn
		new[i] = row(i, 2)
	}
	return old, new
}

// TestComputeDeltaAllocsIndependentOfRows is the allocation gate: what
// a diff allocates is the table, the matched flags, Deletes and the
// growth of Moves and Adds, so 512 times the rows at the same 1 % churn
// may add only the doublings that take Adds from 1 row to 82. A key
// string or a map bucket per row would add thousands.
func TestComputeDeltaAllocsIndependentOfRows(t *testing.T) {
	allocs := func(n, churn int) float64 {
		oldP, newP := churnedRangeProgram(n, churn)
		return testing.AllocsPerRun(10, func() {
			if d, ok := ComputeDelta(oldP, newP); !ok || len(d.Adds) != churn || len(d.Deletes) != churn {
				t.Fatalf("%d rows: delta (%d adds, %d deletes, ok %v), want %d replaced", n, len(d.Adds), len(d.Deletes), ok, churn)
			}
		})
	}
	small, large := allocs(16, 1), allocs(8192, 82)
	if growth := float64(bits.Len(82)); large-small > growth {
		t.Fatalf("diff of 8192 rows allocates %.0f times, of 16 rows %.0f: more than the %.0f doublings of Adds apart",
			large, small, growth)
	}
}

// TestApplyRangeTable covers the non-ternary Apply path (full reindex):
// the edit semantics are identical even though the index is rebuilt.
func TestApplyRangeTable(t *testing.T) {
	mk := func(lo, hi byte, prio, class int) Entry {
		return Entry{Priority: prio, Lo: []byte{lo, 0}, Hi: []byte{hi, 0xff},
			Action: Action{Type: ActionDrop, Class: class}}
	}
	oldP := []Entry{mk(0, 50, 3, 1), mk(51, 100, 2, 2), mk(101, 200, 1, 3)}
	newP := []Entry{mk(0, 50, 3, 1), mk(101, 200, 1, 3), mk(201, 250, 1, 4)}
	d, ok := ComputeDelta(oldP, newP)
	if !ok {
		t.Fatal("range delta not computed")
	}
	tblA := NewTable("ra", MatchRange, key2(), 0, Action{Type: ActionAllow})
	if err := tblA.Replace(oldP); err != nil {
		t.Fatal(err)
	}
	if err := tblA.Apply(d); err != nil {
		t.Fatal(err)
	}
	tblB := NewTable("rb", MatchRange, key2(), 0, Action{Type: ActionAllow})
	if err := tblB.Replace(newP); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 256; v++ {
		frame := []byte{byte(v), 9}
		aa, am := tblA.Lookup(frame)
		ba, bm := tblB.Lookup(frame)
		if aa != ba || am != bm {
			t.Fatalf("byte %d: delta (%v,%v) != replace (%v,%v)", v, aa, am, ba, bm)
		}
	}
}

// TestTernaryDeltaChurnDifferential hammers a ternary table with
// concurrent lock-free readers while the writer churns it through
// Apply deltas, reactive Inserts, and Deletes, asserting after every
// mutation that the trie-backed Lookup, the linear oracle, and Explain
// agree on a spread of keys, and that the generation held from before the
// first of the 100 mutations still answers every one of them as it did:
// each mutation compiles a new store, and none may write to one already
// published. Run with -race this is the store's publication-safety proof.
func TestTernaryDeltaChurnDifferential(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(workers) * 97))
			tbl := NewTable("det", MatchTernary, key2(), 0, Action{Type: ActionAllow})
			prog := randTernaryProgram(rng, 40)
			if err := tbl.Replace(prog); err != nil {
				t.Fatal(err)
			}
			frames := ternaryCorpus(rng, 64)
			first := tbl.state.Load()
			was := make([]*row, len(frames))
			for i, frame := range frames {
				was[i] = first.findLinear(frame)
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					for {
						select {
						case <-stop:
							return
						default:
							tbl.Lookup([]byte{byte(r.Intn(256)), byte(r.Intn(256))})
						}
					}
				}(int64(w + 1))
			}

			var reactive []uint64
			for round, mutations := 0, 0; mutations < 100; round++ {
				switch rng.Intn(4) {
				case 0:
					id, err := tbl.Insert(Entry{
						Priority: rng.Intn(6),
						Value:    []byte{byte(rng.Intn(256)), byte(rng.Intn(256))},
						Mask:     []byte{0xff, 0xff},
						Action:   Action{Type: ActionDrop, Class: 7},
					})
					if err != nil {
						t.Fatal(err)
					}
					reactive = append(reactive, id)
					mutations++
				case 1:
					if len(reactive) > 0 {
						i := rng.Intn(len(reactive))
						if err := tbl.Delete(reactive[i]); err != nil {
							t.Fatal(err)
						}
						reactive = append(reactive[:i], reactive[i+1:]...)
						mutations++
					}
				default:
					next := mutateProgram(rng, prog)
					d, ok := ComputeDelta(prog, next)
					if !ok {
						t.Fatalf("round %d: delta not computable", round)
					}
					if err := tbl.Apply(d); err != nil {
						t.Fatalf("round %d: apply: %v", round, err)
					}
					prog = next
					mutations++
				}
				for i, frame := range frames {
					if got, _ := first.find(frame, make([]byte, len(frame))); got != was[i] {
						t.Fatalf("round %d frame %v: the first generation finds %+v, found %+v", round, frame, got, was[i])
					}
					la, lm := tbl.Lookup(frame)
					oa, om := tbl.LookupOracle(frame)
					if la != oa || lm != om {
						t.Fatalf("round %d frame %v: lookup (%v,%v) != oracle (%v,%v)",
							round, frame, la, lm, oa, om)
					}
				}
				explainLookupAgree(t, tbl, frames)
			}
			close(stop)
			wg.Wait()
		})
	}
}

// HashEntry hashes one entry's match fields (ID and counters excluded)
// with FNV-1a. Program signatures XOR per-entry hashes, so they are
// order-independent and incrementally maintainable: controller and
// switch compute identical signatures for identical entry multisets
// without exchanging the entries.
func HashEntry(e *Entry) uint64 {
	var r DeltaRow
	e.deltaRow(&r)
	return r.hash()
}
