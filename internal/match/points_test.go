package match_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"p4guard/internal/match"
	"p4guard/internal/match/matchtest"
)

// pointShares are the row-set mixes every suite covers: no point row
// (the index is the plain bitset), some, mostly, all (no bitset rows).
var pointShares = []float64{0, 0.3, 0.9, 1}

func compile(t testing.TB, width int, rows []match.RangeRow) *match.KeyIndex {
	t.Helper()
	ix, err := match.CompileRanges(width, rows)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// checkIndex asserts Find and FindBatchIdx agree with the first-match
// scan over rows on every key.
func checkIndex(t testing.TB, what string, ix *match.KeyIndex, width int, rows []match.RangeRow, keys [][]byte) {
	t.Helper()
	model{width: width, rows: rows}.check(t, what, ix, keys)
}

// model is what an index must answer like: rows in priority order and
// the id the index knows each by (nil: compiled, row i has id i).
type model struct {
	width int
	rows  []match.RangeRow
	ids   []int
}

func (m model) check(t testing.TB, what string, ix *match.KeyIndex, keys [][]byte) {
	t.Helper()
	var kb match.KeyBatch
	kb.Reset(m.width, len(keys))
	idxs := make([]int32, len(keys))
	for i, k := range keys {
		copy(kb.Key(i), k)
		idxs[i] = int32(i)
	}
	batch := make([]int32, len(keys))
	ix.FindBatchIdx(&kb, idxs, batch)
	for i, k := range keys {
		want := matchtest.FirstMatch(m.rows, k)
		if want >= 0 && m.ids != nil {
			want = m.ids[want]
		}
		got, ok := ix.Find(k)
		if got != want || ok != (want >= 0) || int(batch[i]) != want {
			t.Fatalf("%s: key %x: Find=(%d,%v) FindBatchIdx=%d scan=%d", what, k, got, ok, batch[i], want)
		}
	}
}

// hashed reports a row the index keeps in its hash rather than its bitset.
func (m model) hashed(row match.RangeRow) bool {
	return m.width > 0 && m.width <= match.PackedKeyMax && bytes.Equal(row.Lo, row.Hi)
}

// above counts the bitset rows ahead of place at.
func (m model) above(at int) int {
	n := 0
	for _, row := range m.rows[:at] {
		if !m.hashed(row) {
			n++
		}
	}
	return n
}

// holds reports a hashed row on the key: what makes Insert decline a
// point row.
func (m model) holds(key []byte) bool {
	for _, row := range m.rows {
		if m.hashed(row) && bytes.Equal(row.Lo, key) {
			return true
		}
	}
	return false
}

// insert puts a point row on key at place at of the model and the index
// alike, under the next id. Insert must decline exactly the keys the hash
// already holds, and then (as p4.Table does) the rows are compiled, which
// renumbers them.
func (m model) insert(t testing.TB, what string, ix *match.KeyIndex, at int, key []byte) (model, *match.KeyIndex) {
	t.Helper()
	row := match.RangeRow{Lo: key, Hi: key}
	derived := ix.Insert(row, m.above(at))
	if (derived == nil) != m.holds(key) {
		t.Fatalf("%s: key %x at %d: derived %v, key held %v", what, key, at, derived != nil, m.holds(key))
	}
	next := model{width: m.width}
	next.rows = append(append(append(next.rows, m.rows[:at]...), row), m.rows[at:]...)
	if derived == nil {
		derived = compile(t, m.width, next.rows)
	} else {
		ids := m.ids
		for i := len(ids); i < len(m.rows); i++ { // m was compiled
			ids = append(ids, i)
		}
		next.ids = append(append(append(next.ids, ids[:at]...), len(m.rows)), ids[at:]...)
	}
	if derived.Rows() != len(next.rows) {
		t.Fatalf("%s: Rows=%d want %d", what, derived.Rows(), len(next.rows))
	}
	return next, derived
}

// TestFindExhaustiveSmallUniverse checks every key of a 2-byte layout
// against the first-match scan on generated row sets of every mix, with
// row counts on both sides of the 64-row word boundary.
func TestFindExhaustiveSmallUniverse(t *testing.T) {
	const width = 2
	keys := make([][]byte, 1<<16)
	for i := range keys {
		keys[i] = []byte{byte(i >> 8), byte(i)}
	}
	rng := rand.New(rand.NewSource(13))
	sets := 208
	if testing.Short() {
		sets = 16
	}
	for s := 0; s < sets; s++ {
		n := rng.Intn(40)
		if s%4 == 0 {
			n = 60 + rng.Intn(90)
		}
		share := pointShares[s%len(pointShares)]
		rows := matchtest.Rows(rng, width, n, share)
		checkIndex(t, fmt.Sprintf("set %d (%d rows, share %.1f)", s, n, share), compile(t, width, rows), width, rows, keys)
	}
}

// TestFindEveryWidth covers the widths on each side of what the point
// hash packs (0 and 17+ keep points in the bitset).
func TestFindEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, width := range []int{0, 1, 6, 16, 17, 64} {
		for _, share := range pointShares {
			for _, n := range []int{0, 1, 30, 200} {
				rows := matchtest.Rows(rng, width, n, share)
				keys := matchtest.Keys(rng, width, 400, rows)
				checkIndex(t, fmt.Sprintf("width %d share %.1f rows %d", width, share, n), compile(t, width, rows), width, rows, keys)
			}
		}
	}
}

// TestInsertRowMatchesCompile derives a chain of generations, one point
// row at a time, and checks each against both the scan and a
// from-scratch compile of the same rows. The row lands ahead of every
// range row, behind every one and anywhere between; its key is mostly
// fresh and sometimes one a row ahead of, at or behind its place already
// holds (the index declines, the rows are compiled, the answer is the
// scan's all the same). Range rows include dead ones, and forty inserts
// into at most a hundred rows cross several doublings of the hash.
func TestInsertRowMatchesCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, width := range []int{1, 2, 6, 16} {
		for _, share := range pointShares {
			m := model{width: width, rows: matchtest.Rows(rng, width, 1+rng.Intn(100), share)}
			ix := compile(t, width, m.rows)
			for step := 0; step < 40; step++ {
				key := matchtest.Keys(rng, width, 1, m.rows)[0]
				at := rng.Intn(len(m.rows) + 1)
				switch step % 8 {
				case 0:
					at = 0
				case 1:
					at = len(m.rows)
				case 2: // a key some row holds, whatever its place
					key = m.rows[rng.Intn(len(m.rows))].Lo
				}
				what := fmt.Sprintf("width %d share %.1f step %d", width, share, step)
				m, ix = m.insert(t, what, ix, at, key)
				keys := append(matchtest.Keys(rng, width, 300, m.rows), key)
				m.check(t, what+" derived", ix, keys)
				checkIndex(t, what+" compiled", compile(t, width, m.rows), width, m.rows, keys)
			}
		}
	}
}

// TestInsertRowHalfFullBoundary walks the point count over every power
// of two up to 512 — the insert that would leave the hash more than half
// full moves to one of twice the size, the one before it does not — with
// the points behind one, two and all three range rows, one of them dead.
func TestInsertRowHalfFullBoundary(t *testing.T) {
	const width = 2
	m := model{width: width, rows: []match.RangeRow{
		{Lo: []byte{0, 0}, Hi: []byte{255, 9}},
		{Lo: []byte{9, 0}, Hi: []byte{1, 255}}, // dead
		{Lo: []byte{0, 0}, Hi: []byte{255, 255}},
	}}
	ix := compile(t, width, m.rows)
	var keys [][]byte
	for n := 0; n < 520; n++ {
		key := []byte{byte(n >> 8), byte(n * 7)} // distinct: 7 is odd
		keys = append(keys, key, []byte{key[0], key[1] + 1})
		what := fmt.Sprintf("point %d", n)
		// Behind the first range row, wherever that is by now.
		at := 1 + n%3
		for m.above(at) < 1+n%3 {
			at++
		}
		m, ix = m.insert(t, what, ix, at, key)
		m.check(t, what, ix, keys)
	}
	if m.ids == nil {
		t.Fatal("a fresh key was compiled in")
	}
}

// TestInsertRowDeclines lists what must be compiled from scratch: a
// range row, a key the hash already holds, a width the hash does not
// pack, a mis-sized row, and the empty (nil) index.
func TestInsertRowDeclines(t *testing.T) {
	ix := compile(t, 2, []match.RangeRow{{Lo: []byte{1, 2}, Hi: []byte{1, 2}}})
	if ix.Insert(match.RangeRow{Lo: []byte{1, 2}, Hi: []byte{1, 3}}, 0) != nil {
		t.Fatal("range row derived")
	}
	if ix.Insert(match.RangeRow{Lo: []byte{1, 2}, Hi: []byte{1, 2}}, 0) != nil {
		t.Fatal("second row on a held key derived")
	}
	if ix.Insert(match.RangeRow{Lo: []byte{1}, Hi: []byte{1}}, 0) != nil {
		t.Fatal("mis-sized row derived")
	}
	wide := make([]byte, 17)
	if compile(t, 17, nil).Insert(match.RangeRow{Lo: wide, Hi: wide}, 0) != nil {
		t.Fatal("17-byte point derived")
	}
	if compile(t, 0, nil).Insert(match.RangeRow{}, 0) != nil {
		t.Fatal("zero-width row derived")
	}
	var empty *match.KeyIndex
	if empty.Insert(match.RangeRow{Lo: []byte{1, 2}, Hi: []byte{1, 2}}, 0) != nil {
		t.Fatal("nil index derived")
	}
	if _, ok := empty.Find([]byte{1, 2}); ok {
		t.Fatal("nil index matched")
	}
}

// TestGenerationIsolation keeps generations of a chain of inserts that
// crosses several doublings. While the chain grows, readers hold the
// first generation to what it answered before any insert; when it has
// grown, each kept generation must still answer every key — those
// inserted after it too, whose slots its probe chains now run into — as
// its own rows do, scanned and compiled afresh.
func TestGenerationIsolation(t *testing.T) {
	const width, inserts = 3, 600
	rng := rand.New(rand.NewSource(23))
	m := model{width: width, rows: matchtest.Rows(rng, width, 40, 0.5)}
	ix := compile(t, width, m.rows)

	// Clustered keys, so that the chains of different generations overlap.
	var fresh [][]byte
	taken := map[string]bool{}
	for len(fresh) < inserts {
		k := []byte{byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(256))}
		if !m.holds(k) && !taken[string(k)] {
			taken[string(k)] = true
			fresh = append(fresh, k)
		}
	}
	probes := append(matchtest.Keys(rng, width, 500, m.rows), fresh...)

	type generation struct {
		m  model
		ix *match.KeyIndex
	}
	kept := []generation{{m, ix}}
	first := make([]int, len(probes))
	for i, k := range probes {
		first[i] = matchtest.FirstMatch(m.rows, k)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int, ix *match.KeyIndex) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k, want := probes[i%len(probes)], first[i%len(probes)]
				if got, _ := ix.Find(k); got != want {
					t.Errorf("first generation, key %x: Find=%d, was %d", k, got, want)
					return
				}
			}
		}(r, ix)
	}
	for n, key := range fresh {
		m, ix = m.insert(t, fmt.Sprintf("insert %d", n), ix, rng.Intn(len(m.rows)+1), key)
		if n%37 == 0 || n == inserts-1 {
			kept = append(kept, generation{m, ix})
		}
	}
	close(stop)
	wg.Wait()
	for g, gen := range kept {
		what := fmt.Sprintf("generation %d (%d rows)", g, len(gen.m.rows))
		gen.m.check(t, what+" kept", gen.ix, probes)
		checkIndex(t, what+" compiled", compile(t, width, gen.m.rows), width, gen.m.rows, probes)
	}
}

// fuzzWidths are the key widths a fuzz input selects from.
var fuzzWidths = []int{0, 1, 2, 3, 6, 17}

// decodeFuzz reads a row set and probe keys from raw bytes: a width
// selector, a row count, then rows (a tag byte choosing point or range,
// then the bounds as given — so dead rows occur), then keys to the end.
func decodeFuzz(data []byte) (width int, rows []match.RangeRow, keys [][]byte) {
	if len(data) < 2 {
		return 0, nil, nil
	}
	width = fuzzWidths[int(data[0])%len(fuzzWidths)]
	n := int(data[1]) % 97
	data = data[2:]
	take := func() []byte {
		if len(data) < width {
			return nil
		}
		b := data[:width:width]
		data = data[width:]
		return b
	}
	for len(rows) < n && len(data) > 0 {
		tag := data[0]
		data = data[1:]
		lo := take()
		hi := lo
		if tag%4 != 0 {
			hi = take()
		}
		if lo == nil || hi == nil {
			break
		}
		rows = append(rows, match.RangeRow{Lo: lo, Hi: hi})
	}
	for _, r := range rows {
		keys = append(keys, r.Lo, r.Hi)
	}
	for k := take(); k != nil && width > 0; k = take() {
		keys = append(keys, k)
	}
	if width == 0 {
		keys = append(keys, []byte{})
	}
	return width, rows, keys
}

// FuzzKeyIndexFind: on any decodable row set, Find and FindBatchIdx
// equal the first-match scan; so does the generation derived by putting
// the first probe key in as a point row wherever the last input byte
// says, and the index it was derived from still answers as before. The
// seed corpus is testdata/fuzz/FuzzKeyIndexFind.
func FuzzKeyIndexFind(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		width, rows, keys := decodeFuzz(data)
		ix := compile(t, width, rows)
		checkIndex(t, "compiled", ix, width, rows, keys)
		if len(keys) == 0 {
			return
		}
		m := model{width: width, rows: rows}
		at := int(data[len(data)-1]) % (len(rows) + 1)
		if row := (match.RangeRow{Lo: keys[0], Hi: keys[0]}); !m.hashed(row) {
			if ix.Insert(row, m.above(at)) != nil {
				t.Fatalf("width %d: point row derived", width)
			}
			return
		}
		next, derived := m.insert(t, "insert", ix, at, keys[0])
		next.check(t, "derived", derived, keys)
		checkIndex(t, "after deriving", ix, width, rows, keys)
	})
}
