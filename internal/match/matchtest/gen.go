// Package matchtest generates the mixed point/range row sets that the
// match and p4 differential tests share, and the first-match reference
// they compare against.
package matchtest

import (
	"math/rand"

	"p4guard/internal/match"
)

// Rows draws n width-byte rows in priority order, about pointShare of
// them point rows (0: none, 1: all). Rows cluster on a few anchor keys,
// so the set holds duplicate point keys, points shadowed by an earlier
// range and ranges shadowed by an earlier point; about one range row in
// eight is dead (Lo > Hi on some byte). A zero-width row is a point and
// a range at once.
func Rows(rng *rand.Rand, width, n int, pointShare float64) []match.RangeRow {
	anchors := Keys(rng, width, 1+n/4, nil)
	rows := make([]match.RangeRow, n)
	for r := range rows {
		a := anchors[rng.Intn(len(anchors))]
		lo := append([]byte(nil), a...)
		hi := append([]byte(nil), a...)
		if rng.Float64() >= pointShare {
			for p := range lo {
				switch rng.Intn(3) {
				case 0:
					lo[p], hi[p] = 0, 255
				case 1:
					lo[p] -= byte(rng.Intn(int(lo[p]) + 1))
					hi[p] += byte(rng.Intn(256 - int(hi[p])))
				}
			}
			if p := rng.Intn(8 * (width + 1)); p < width && lo[p] < 255 {
				hi[p], lo[p] = lo[p], lo[p]+1
			}
		}
		rows[r] = match.RangeRow{Lo: lo, Hi: hi}
	}
	return rows
}

// Keys draws n probe keys: uniform ones, and (when rows is non-empty)
// row corners and their one-byte neighbours, which is where an index
// can go wrong.
func Keys(rng *rand.Rand, width, n int, rows []match.RangeRow) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		k := make([]byte, width)
		rng.Read(k)
		if len(rows) > 0 && width > 0 && rng.Intn(4) > 0 {
			row := rows[rng.Intn(len(rows))]
			copy(k, row.Lo)
			if rng.Intn(2) == 0 {
				copy(k, row.Hi)
			}
			if rng.Intn(2) == 0 {
				k[rng.Intn(width)] += byte(rng.Intn(3)) - 1
			}
		}
		keys[i] = k
	}
	return keys
}

// FirstMatch is the reference lookup: the first row admitting every key
// byte, or -1.
func FirstMatch(rows []match.RangeRow, key []byte) int {
next:
	for r, row := range rows {
		for p, b := range key {
			if b < row.Lo[p] || b > row.Hi[p] {
				continue next
			}
		}
		return r
	}
	return -1
}
