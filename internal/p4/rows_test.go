package p4

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// cloneEntries copies entries and every buffer they name.
func cloneEntries(entries []Entry) []Entry {
	out := slices.Clone(entries)
	for i := range out {
		e := &out[i]
		e.Value, e.Mask, e.Lo, e.Hi = slices.Clone(e.Value), slices.Clone(e.Mask), slices.Clone(e.Lo), slices.Clone(e.Hi)
	}
	return out
}

// scribble overwrites every key buffer the entries name: what a caller does
// who reuses them for the next request.
func scribble(entries []Entry) {
	for i := range entries {
		for _, b := range [][]byte{entries[i].Value, entries[i].Mask, entries[i].Lo, entries[i].Hi} {
			for j := range b {
				b[j] ^= 0x5a
			}
		}
	}
}

// TestTableOwnsItsKeyBytes: a table copies the key bytes it stores, however
// an entry reaches it — Replace, Insert, a builder handed to Program, the
// adds of a delta — so a caller that overwrites its buffers afterwards
// changes nothing: a twin table fed untouched copies of the same entries
// holds the same Entries and signature, the index and the scan agree with
// each other and with the twin on every key touched, and a delta computed
// against the program as it was written still finds its base.
func TestTableOwnsItsKeyBytes(t *testing.T) {
	for _, kind := range []MatchKind{MatchRange, MatchTernary} {
		row := func(k, prio, class int) Entry {
			key, e := []byte{byte(k), byte(k >> 8)}, Entry{Priority: prio, Action: Action{Type: ActionDrop, Class: class}}
			if kind == MatchTernary {
				e.Value, e.Mask = key, []byte{0xff, 0xff}
			} else {
				e.Lo, e.Hi = key, slices.Clone(key)
			}
			return e
		}
		tbl := NewTable("det", kind, key2(), 0, Action{Type: ActionAllow})
		twin := NewTable("twin", kind, key2(), 0, Action{Type: ActionAllow})
		check := func(step string) {
			t.Helper()
			got, want := tbl.Entries(), twin.Entries()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v, %s: the table holds\n%+v\nits twin, fed untouched copies,\n%+v", kind, step, got, want)
			}
			gc, gh := tbl.ProgramSignature()
			if wc, wh := twin.ProgramSignature(); gc != wc || gh != wh {
				t.Fatalf("%v, %s: signature (%d, %#x), the twin's (%d, %#x)", kind, step, gc, gh, wc, wh)
			}
			for k := 0; k < 64; k++ {
				for _, frame := range [][]byte{{byte(k), 0}, {byte(k) ^ 0x5a, 0x5a}} {
					act, matched := tbl.Lookup(frame)
					oa, om := tbl.LookupOracle(frame)
					ta, tm := twin.Lookup(frame)
					if act != oa || matched != om || act != ta || matched != tm {
						t.Fatalf("%v, %s, frame %v: lookup (%+v,%v), scan (%+v,%v), twin (%+v,%v)", kind, step, frame, act, matched, oa, om, ta, tm)
					}
				}
			}
		}

		var prog []Entry
		for k := 0; k < 16; k++ {
			prog = append(prog, row(k, k%3, k+1))
		}
		written := cloneEntries(prog)
		if err := errors.Join(tbl.Replace(prog), twin.Replace(written)); err != nil {
			t.Fatal(err)
		}
		scribble(prog)
		check("Replace")

		e := row(20, 5, 100)
		kept := cloneEntries([]Entry{e})
		_, err := tbl.Insert(e)
		_, errTwin := twin.Insert(kept[0])
		if err := errors.Join(err, errTwin); err != nil {
			t.Fatal(err)
		}
		scribble([]Entry{e})
		check("Insert")

		// A delta against the program as it was written: row 3 leaves, row 5
		// moves up, two rows join.
		apply := func(step string, base []Entry) []Entry {
			t.Helper()
			next := slices.Delete(cloneEntries(base), 3, 4)
			next[4].Priority += 7
			next = slices.Insert(next, 2, row(40+len(base), 1, 200), row(50+len(base), 2, 201))
			nextTwin := cloneEntries(next)
			d, ok := ComputeDelta(base, next)
			dTwin, okTwin := ComputeDelta(base, nextTwin)
			if !ok || !okTwin || len(d.Adds) != 2 || len(d.Moves) != 1 || len(d.Deletes) != 1 {
				t.Fatalf("%v, %s: delta %+v (%v)", kind, step, d, ok)
			}
			if err := errors.Join(tbl.Apply(d), twin.Apply(dTwin)); err != nil {
				t.Fatalf("%v, %s: %v", kind, step, err)
			}
			scribble(next)
			check(step)
			return nextTwin
		}
		written = apply("Apply", written)

		prog = prog[:0]
		for k := 30; k < 40; k++ {
			prog = append(prog, row(k, k%2, k))
		}
		written = cloneEntries(prog)
		built := rowsOf(tbl, prog)
		scribble(prog) // Add has copied: the buffers are the caller's before Program is called
		if err := errors.Join(tbl.Program(key2(), Action{Type: ActionDigest}, built),
			twin.Program(key2(), Action{Type: ActionDigest}, rowsOf(twin, written))); err != nil {
			t.Fatal(err)
		}
		check("Program")
		apply("Apply after Program", written)
	}
}

// liveBytes is the heap build leaves behind, with what it returns all that
// is kept: the cheapest of three readings, each a liveHeap difference — live
// bytes after two collections, the way the benchmark reads heap_mb.
func liveBytes(build func() any) int {
	best := math.MaxInt
	for i := 0; i < 3; i++ {
		before := liveHeap(nil)
		best = min(best, int(liveHeap(build()))-int(before))
	}
	return best
}

// TestStoredRowFootprint gates what a row costs the switch, which is what
// sizes a model that has to fit a table: the stored row itself, the live
// bytes per row of a programmed detector-shaped table (8 192 point rows on
// a 6-byte key: row, key, two pointer lists, the point hash; 140, 156 with
// 24-byte hash slots, 230 when the table stored the exchange struct), and
// what one reactive install retains (144; 160 and 241 then).
func TestStoredRowFootprint(t *testing.T) {
	if size := unsafe.Sizeof(row{}); size > 80 {
		t.Errorf("a stored row is %d bytes, want at most 80", size)
	}
	specs := []FieldSpec{{Name: "k", Offset: 0, Width: 6}}
	key := func(i int) []byte { return []byte{byte(i), byte(i >> 8), byte(i >> 16), 7, 7, 7} }
	const rows = 8192
	programmed := liveBytes(func() any {
		r := &Rows{}
		r.Grow(rows, 12*rows)
		for i := 0; i < rows; i++ {
			r.Add(rows-i, key(i), key(i), Action{Type: ActionDrop, Class: 1})
		}
		tbl := NewTable("det", MatchRange, specs, 0, Action{Type: ActionDigest})
		if err := tbl.Program(specs, Action{Type: ActionDigest}, r); err != nil {
			t.Fatal(err)
		}
		return tbl
	})
	if perRow := programmed / rows; perRow > 147 {
		t.Errorf("a programmed table of %d point rows holds %d live bytes a row, want at most 147", rows, perRow)
	}

	const installs = 1000
	var prog []Entry
	for i := 0; i < 16; i++ {
		prog = append(prog, Entry{Priority: 16 - i, Lo: key(i), Hi: key(i), Action: Action{Type: ActionAllow}})
	}
	program := func() *Table {
		tbl := NewTable("det", MatchRange, specs, 0, Action{Type: ActionDigest})
		if err := tbl.Replace(prog); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	empty := liveBytes(func() any { return program() })
	installed := liveBytes(func() any {
		tbl := program()
		for i := 0; i < installs; i++ {
			k := key(len(prog) + i)
			if _, err := tbl.Insert(Entry{Priority: 1 << 20, Lo: k, Hi: k, Action: Action{Type: ActionDrop, Class: 1}}); err != nil {
				t.Fatal(err)
			}
		}
		return tbl
	})
	if perInstall := (installed - empty) / installs; perInstall > 151 {
		t.Errorf("%d installs into a 16-row table retain %d bytes each, want at most 151", installs, perInstall)
	}
	t.Logf("stored row %d B; %d live B/row programmed; %d B retained an install", unsafe.Sizeof(row{}), programmed/rows, (installed-empty)/installs)
}

// TestRowsBuilder: what Rows promises beside the footprint. A builder with
// more than 1/128 to spare is copied to its length when a table adopts it,
// one within that is adopted where it lies; rows added without room still
// build the program; and the first row a stored row cannot hold — halves of
// two lengths, a number outside 32 bits — is refused by the table with the
// entry's own fields in the error, after any bad row ahead of it.
func TestRowsBuilder(t *testing.T) {
	specs := key1()
	fill := func(r *Rows, n int) {
		for i := 0; i < n; i++ {
			r.Add(n-i, []byte{byte(i)}, []byte{byte(i)}, Action{Type: ActionDrop, Class: i})
		}
	}
	for _, c := range []struct {
		room    int
		adopted bool
	}{{200, true}, {201, true}, {203, false}, {400, false}} {
		r := &Rows{}
		r.Grow(c.room, 2*c.room)
		fill(r, 200)
		slab := r.rows
		tbl := NewTable("det", MatchRange, specs, 0, Action{Type: ActionAllow})
		if err := tbl.Program(specs, Action{Type: ActionAllow}, r); err != nil {
			t.Fatal(err)
		}
		if got := tbl.prog[0] == &slab[0]; got != c.adopted || tbl.Len() != 200 {
			t.Errorf("200 rows built in room for %d: adopted where they lay = %v, want %v", c.room, got, c.adopted)
		}
		for i := 0; i < 200; i++ {
			if e := tbl.prog[i]; cap(e.key) != 2 || e.key[0] != byte(i) {
				t.Fatalf("row %d holds key %v with room for %d bytes", i, e.key, cap(e.key))
			}
		}
	}

	r := &Rows{} // no Grow at all
	fill(r, 50)
	tbl := NewTable("det", MatchRange, specs, 0, Action{Type: ActionAllow})
	if err := tbl.Program(specs, Action{Type: ActionAllow}, r); err != nil || tbl.Len() != 50 {
		t.Fatalf("a builder never grown: %v, %d rows", err, tbl.Len())
	}
	if act, matched := tbl.Lookup([]byte{49}); !matched || act.Class != 49 {
		t.Fatalf("lookup of the last row added: %+v, %v", act, matched)
	}

	for want, add := range map[string]func(*Rows){
		"entry 2: range lo/hi widths 1/3 != key 1":      func(r *Rows) { r.Add(1, []byte{1}, []byte{1, 2, 3}, Action{}) },
		"entry 2: range lo/hi widths 2/0 != key 1":      func(r *Rows) { r.Add(1, []byte{1, 2}, nil, Action{}) },
		"entry 2: priority 4294967296 outside 32 bits":  func(r *Rows) { r.Add(1<<32, []byte{1}, []byte{1}, Action{}) },
		"entry 2: priority -2147483649 outside 32 bits": func(r *Rows) { r.Add(math.MinInt32-1, []byte{1}, []byte{1}, Action{}) },
		"entry 1: range lo>hi at byte 0":                func(r *Rows) { r.rows[1].key[0] = 9; r.Add(1, []byte{1}, nil, Action{}) },
	} {
		r := &Rows{}
		fill(r, 2)
		add(r)
		fill(r, 2)
		r.Add(1, nil, []byte{1}, Action{}) // a second odd row: the first is the one reported
		before := slices.Clone(r.rows)
		err := tbl.Program(specs, Action{Type: ActionDigest}, r)
		if !errors.Is(err, ErrBadEntry) || !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want ErrBadEntry naming %q", err, want)
		}
		if !reflect.DeepEqual(r.rows, before) || tbl.Len() != 50 || tbl.DefaultAction.Type != ActionAllow {
			t.Errorf("%q: the refused program changed its builder or the table", want)
		}
	}
}
