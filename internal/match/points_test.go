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
	ix, err := match.CompileRanges(width, len(rows), matchtest.Pack(rows))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// insertRow is Edit for one added row.
func insertRow(ix *match.KeyIndex, row match.RangeRow, above int) *match.KeyIndex {
	return ix.Edit(nil, []match.RangeRow{row}, []int{above})
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

// holds reports a hashed row on the key: what makes Edit decline a
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
// alike, under the next id. Edit must decline exactly the keys the hash
// already holds, and then (as p4.Table does) the rows are compiled, which
// renumbers them.
func (m model) insert(t testing.TB, what string, ix *match.KeyIndex, at int, key []byte) (model, *match.KeyIndex) {
	t.Helper()
	row := match.RangeRow{Lo: key, Hi: key}
	derived := insertRow(ix, row, m.above(at))
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

// shared reports a key two hashed rows are on: what makes Edit decline
// to drop either.
func (m model) shared(key []byte) bool {
	n := 0
	for _, row := range m.rows {
		if m.hashed(row) && bytes.Equal(row.Lo, key) {
			n++
		}
	}
	return n > 1
}

// edit drops the rows at places del (ascending) from the model and the
// index alike, then puts a point row on keys[j] at place at[j] of the
// list as it stands by then, under the next ids. Edit must decline
// exactly what it says it does — a dropped or added row the hash cannot
// hold, a dropped row whose key another shares, an added key held by a
// row that stays or joins — and then the rows are compiled, which
// renumbers them.
func (m model) edit(t testing.TB, what string, ix *match.KeyIndex, del, at []int, keys [][]byte) (model, *match.KeyIndex) {
	t.Helper()
	ids := m.ids
	for i := len(ids); i < len(m.rows); i++ { // m was compiled
		ids = append(ids, i)
	}
	decline := false
	next := model{width: m.width}
	var dropped []match.RangeRow
	for i, row := range m.rows {
		if len(del) > 0 && del[0] == i {
			dropped, del = append(dropped, row), del[1:]
			decline = decline || !m.hashed(row) || m.shared(row.Lo)
			continue
		}
		next.rows, next.ids = append(next.rows, row), append(next.ids, ids[i])
	}
	var added []match.RangeRow
	var above []int
	for j, key := range keys {
		row := match.RangeRow{Lo: key, Hi: key}
		decline = decline || !next.hashed(row) || next.holds(key)
		added, above = append(added, row), append(above, next.above(at[j]))
		next.rows = append(append(append([]match.RangeRow(nil), next.rows[:at[j]]...), row), next.rows[at[j]:]...)
		next.ids = append(append(append([]int(nil), next.ids[:at[j]]...), -1), next.ids[at[j]:]...)
	}
	derived := ix.Edit(dropped, added, above)
	if (derived == nil) != decline {
		t.Fatalf("%s: drop %x add %x: derived %v, want a decline %v", what, dropped, added, derived != nil, decline)
	}
	if derived == nil {
		next.ids = nil
		return next, compile(t, m.width, next.rows)
	}
	for j, n := 0, ix.Rows(); j < len(keys); j++ { // ids in the order the rows were given
		for i, id := range next.ids {
			if id == -1 && bytes.Equal(next.rows[i].Lo, keys[j]) {
				next.ids[i] = n + j
			}
		}
	}
	if derived.Rows() != ix.Rows()+len(keys) {
		t.Fatalf("%s: Rows=%d want %d", what, derived.Rows(), ix.Rows()+len(keys))
	}
	return next, derived
}

// randomEdit draws an edit of m: up to three hashed rows dropped and up
// to three point rows added anywhere — on fresh keys, on a key just
// dropped (a row that moves, or is deleted and put back), and now and
// then on a key a remaining row holds or a second time on one just added.
func randomEdit(rng *rand.Rand, m model) (del, at []int, keys [][]byte) {
	for i, row := range m.rows {
		if m.hashed(row) && len(del) < 3 && rng.Intn(len(m.rows)) < 4 {
			del = append(del, i)
		}
	}
	left := len(m.rows) - len(del)
	for n := rng.Intn(4); n > 0; n-- {
		key := matchtest.Keys(rng, m.width, 1, nil)[0]
		switch k := rng.Intn(12); {
		case k < 4 && len(del) > 0:
			key = m.rows[del[rng.Intn(len(del))]].Lo
		case k == 4 && len(m.rows) > 0:
			key = m.rows[rng.Intn(len(m.rows))].Lo
		case k == 5 && len(keys) > 0:
			key = keys[0]
		}
		at, keys = append(at, rng.Intn(left+1)), append(keys, key)
		left++
	}
	return del, at, keys
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
// hash packs (0 and 17+ keep points in the bitset) and of what one slot
// holds (9 is the first width with a second key word).
func TestFindEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, width := range []int{0, 1, 6, 8, 9, 16, 17, 64} {
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
	for _, width := range []int{1, 2, 6, 8, 9, 16} {
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
	if insertRow(ix, match.RangeRow{Lo: []byte{1, 2}, Hi: []byte{1, 3}}, 0) != nil {
		t.Fatal("range row derived")
	}
	if insertRow(ix, match.RangeRow{Lo: []byte{1, 2}, Hi: []byte{1, 2}}, 0) != nil {
		t.Fatal("second row on a held key derived")
	}
	if insertRow(ix, match.RangeRow{Lo: []byte{1}, Hi: []byte{1}}, 0) != nil {
		t.Fatal("mis-sized row derived")
	}
	wide := make([]byte, 17)
	if insertRow(compile(t, 17, nil), match.RangeRow{Lo: wide, Hi: wide}, 0) != nil {
		t.Fatal("17-byte point derived")
	}
	if insertRow(compile(t, 0, nil), match.RangeRow{}, 0) != nil {
		t.Fatal("zero-width row derived")
	}
	var empty *match.KeyIndex
	if insertRow(empty, match.RangeRow{Lo: []byte{1, 2}, Hi: []byte{1, 2}}, 0) != nil {
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

// TestEditMatchesCompile derives a chain of generations by random edits
// and holds each to the scan and to a from-scratch compile of the same
// rows; the generation an edit was derived from must go on answering as
// its own rows do, whether the edit filled its hash in place, copied it
// or declined. Forty edits of up to a hundred rows cross the half-full
// boundary in both directions.
func TestEditMatchesCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, width := range []int{1, 2, 6, 8, 9, 16, 17} {
		for _, share := range pointShares {
			m := model{width: width, rows: matchtest.Rows(rng, width, 1+rng.Intn(100), share)}
			ix := compile(t, width, m.rows)
			for step := 0; step < 40; step++ {
				what := fmt.Sprintf("width %d share %.1f step %d", width, share, step)
				del, at, added := randomEdit(rng, m)
				prev, prevIx := m, ix
				m, ix = m.edit(t, what, ix, del, at, added)
				keys := append(matchtest.Keys(rng, width, 300, m.rows), added...)
				for _, d := range del {
					keys = append(keys, prev.rows[d].Lo)
				}
				m.check(t, what+" derived", ix, keys)
				checkIndex(t, what+" compiled", compile(t, width, m.rows), width, m.rows, keys)
				prev.check(t, what+" predecessor", prevIx, keys)
			}
		}
	}
}

// TestEditExhaustiveSmallUniverse is TestFindExhaustiveSmallUniverse for
// derived generations: every key of a 2-byte layout, after each of four
// edits of each generated row set, on the derived index and on the one
// it was derived from.
func TestEditExhaustiveSmallUniverse(t *testing.T) {
	const width = 2
	keys := make([][]byte, 1<<16)
	for i := range keys {
		keys[i] = []byte{byte(i >> 8), byte(i)}
	}
	rng := rand.New(rand.NewSource(43))
	sets := 32
	if testing.Short() {
		sets = 8
	}
	for s := 0; s < sets; s++ {
		share := pointShares[1+s%3] // some, mostly, all: an edit needs point rows
		m := model{width: width, rows: matchtest.Rows(rng, width, 4+rng.Intn(60), share)}
		ix := compile(t, width, m.rows)
		for step := 0; step < 4; step++ {
			what := fmt.Sprintf("set %d (share %.1f) edit %d", s, share, step)
			del, at, added := randomEdit(rng, m)
			prev, prevIx := m, ix
			m, ix = m.edit(t, what, ix, del, at, added)
			m.check(t, what, ix, keys)
			prev.check(t, what+" predecessor", prevIx, keys)
		}
	}
}

// TestEditHalfFullBoundary churns a hash that sits exactly half full: an
// edit that drops as many rows as it adds stays in a hash of the same
// size, one row more moves to twice the size, and both leave the
// predecessor's hash as it was.
func TestEditHalfFullBoundary(t *testing.T) {
	const width = 2
	m := model{width: width, rows: []match.RangeRow{{Lo: []byte{0, 0}, Hi: []byte{255, 9}}}}
	for n := 0; n < 64; n++ { // 64 points: 128 slots, half full
		m.rows = append(m.rows, match.RangeRow{Lo: []byte{1, byte(n)}, Hi: []byte{1, byte(n)}})
	}
	ix := compile(t, width, m.rows)
	var keys [][]byte
	for n := 0; n < 256; n++ {
		keys = append(keys, []byte{1, byte(n)}, []byte{2, byte(n)})
	}
	for step := 0; step < 48; step++ {
		what := fmt.Sprintf("step %d", step)
		del := []int{1 + step%3, 7 + step%5} // hashed rows: place 0 is the range row
		at, added := []int{1, len(m.rows) - 2}, [][]byte{{2, byte(2 * step)}, {2, byte(2*step + 1)}}
		if step%8 == 7 { // one more than leave: past half full
			at, added = append(at, 3), append(added, []byte{3, byte(step)})
		}
		prev, prevIx := m, ix
		m, ix = m.edit(t, what, ix, del, at, added)
		if m.ids == nil {
			t.Fatalf("%s: compiled, not derived", what)
		}
		m.check(t, what, ix, keys)
		prev.check(t, what+" predecessor", prevIx, keys)
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
// says, and the one derived from that by an edit the input's last bytes
// choose — hashed rows dropped, probe keys put in as point rows (the
// input's own keys: a dropped row's, a held one's) — and each index an
// edit was derived from still answers as before. The seed corpus is
// testdata/fuzz/FuzzKeyIndexFind.
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
			if insertRow(ix, row, m.above(at)) != nil {
				t.Fatalf("width %d: point row derived", width)
			}
			return
		}
		next, derived := m.insert(t, "insert", ix, at, keys[0])
		next.check(t, "derived", derived, keys)
		checkIndex(t, "after deriving", ix, width, rows, keys)

		// The edit: the tail bytes, read backwards, pick the rows to drop
		// (every hashed row whose turn's bit is set, three at most) and the
		// keys to add (up to three of the probe keys, each at the place the
		// next byte names).
		tail := func(i int) int { return int(data[((len(data)-2-i)%len(data)+len(data))%len(data)]) }
		var del, places []int
		for i, row := range next.rows {
			if next.hashed(row) && len(del) < 3 && tail(i)&1 == 1 {
				del = append(del, i)
			}
		}
		var added [][]byte
		left := len(next.rows) - len(del)
		for j := 0; j < tail(0)%4; j++ {
			added = append(added, keys[tail(1+j)%len(keys)])
			places = append(places, tail(4+j)%(left+1))
			left++
		}
		edited, editedIx := next.edit(t, "edit", derived, del, places, added)
		edited.check(t, "edited", editedIx, keys)
		next.check(t, "after editing", derived, keys)
	})
}
