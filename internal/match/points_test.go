package match_test

import (
	"fmt"
	"math/rand"
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
	var kb match.KeyBatch
	kb.Reset(width, len(keys))
	idxs := make([]int32, len(keys))
	for i, k := range keys {
		copy(kb.Key(i), k)
		idxs[i] = int32(i)
	}
	batch := make([]int32, len(keys))
	ix.FindBatchIdx(&kb, idxs, batch)
	for i, k := range keys {
		want := matchtest.FirstMatch(rows, k)
		got, ok := ix.Find(k)
		if got != want || ok != (want >= 0) || int(batch[i]) != want {
			t.Fatalf("%s: key %x: Find=(%d,%v) FindBatchIdx=%d scan=%d", what, k, got, ok, batch[i], want)
		}
	}
}

// insertRow returns rows with row spliced in at index at.
func insertRow(rows []match.RangeRow, at int, row match.RangeRow) []match.RangeRow {
	out := append([]match.RangeRow(nil), rows[:at]...)
	return append(append(out, row), rows[at:]...)
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
// from-scratch compile of the same rows.
func TestInsertRowMatchesCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, width := range []int{1, 2, 6, 16} {
		for _, share := range pointShares {
			rows := matchtest.Rows(rng, width, 1+rng.Intn(100), share)
			ix := compile(t, width, rows)
			for step := 0; step < 40; step++ {
				// Mostly fresh keys; sometimes one a row already holds.
				key := matchtest.Keys(rng, width, 1, rows)[0]
				at := rng.Intn(len(rows) + 1)
				row := match.RangeRow{Lo: key, Hi: key}
				rows = insertRow(rows, at, row)
				if ix = ix.InsertRow(at, row); ix == nil {
					t.Fatalf("width %d: point row not derived", width)
				}
				if ix.Rows() != len(rows) {
					t.Fatalf("width %d step %d: Rows=%d want %d", width, step, ix.Rows(), len(rows))
				}
				what := fmt.Sprintf("width %d share %.1f step %d", width, share, step)
				keys := append(matchtest.Keys(rng, width, 300, rows), key)
				checkIndex(t, what+" derived", ix, width, rows, keys)
				checkIndex(t, what+" compiled", compile(t, width, rows), width, rows, keys)
			}
		}
	}
}

// TestInsertRowDeclines lists what must be compiled from scratch: a
// range row, a width the hash does not pack, a mis-sized row, and the
// empty (nil) index.
func TestInsertRowDeclines(t *testing.T) {
	ix := compile(t, 2, []match.RangeRow{{Lo: []byte{1, 2}, Hi: []byte{1, 2}}})
	if ix.InsertRow(0, match.RangeRow{Lo: []byte{1, 2}, Hi: []byte{1, 3}}) != nil {
		t.Fatal("range row derived")
	}
	if ix.InsertRow(0, match.RangeRow{Lo: []byte{1}, Hi: []byte{1}}) != nil {
		t.Fatal("mis-sized row derived")
	}
	wide := make([]byte, 17)
	if compile(t, 17, nil).InsertRow(0, match.RangeRow{Lo: wide, Hi: wide}) != nil {
		t.Fatal("17-byte point derived")
	}
	if compile(t, 0, nil).InsertRow(0, match.RangeRow{}) != nil {
		t.Fatal("zero-width row derived")
	}
	var empty *match.KeyIndex
	if empty.InsertRow(0, match.RangeRow{Lo: []byte{1, 2}, Hi: []byte{1, 2}}) != nil {
		t.Fatal("nil index derived")
	}
	if _, ok := empty.Find([]byte{1, 2}); ok {
		t.Fatal("nil index matched")
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
// equal the first-match scan, and deriving a generation with the first
// probe key as a point row equals compiling it. The seed corpus is
// testdata/fuzz/FuzzKeyIndexFind.
func FuzzKeyIndexFind(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		width, rows, keys := decodeFuzz(data)
		ix := compile(t, width, rows)
		checkIndex(t, "compiled", ix, width, rows, keys)
		if len(keys) == 0 {
			return
		}
		at := int(data[len(data)-1]) % (len(rows) + 1)
		row := match.RangeRow{Lo: keys[0], Hi: keys[0]}
		if next := ix.InsertRow(at, row); next != nil {
			checkIndex(t, "derived", next, width, insertRow(rows, at, row), keys)
		}
	})
}
