package p4

import (
	"fmt"
	"math/rand"
	"testing"
)

// scaleMaskPool is the benchmark's fixed mask-pattern pool: real rule
// sets compile to a bounded set of mask shapes regardless of entry
// count (prefix expansion over a handful of selected offsets), so the
// partition count saturates while entries grow — the property that
// makes the partitioned hash store sublinear in entries.
func scaleMaskPool() [][]byte {
	pool := make([][]byte, 0, 64)
	bytes := []byte{0x00, 0x80, 0xc0, 0xf0, 0xff}
	for _, a := range bytes {
		for _, b := range bytes {
			for _, c := range []byte{0x00, 0xff} {
				pool = append(pool, []byte{a, b, c, 0xff})
			}
		}
	}
	return pool // 50 patterns
}

func scaleKey() []FieldSpec {
	return []FieldSpec{
		{Name: "b0", Offset: 0, Width: 1},
		{Name: "b1", Offset: 1, Width: 1},
		{Name: "b2", Offset: 2, Width: 1},
		{Name: "b3", Offset: 3, Width: 1},
	}
}

func scaleProgram(rng *rand.Rand, n int) []Entry {
	pool := scaleMaskPool()
	out := make([]Entry, n)
	for i := range out {
		m := pool[rng.Intn(len(pool))]
		v := make([]byte, 4)
		rng.Read(v)
		for j := range v {
			v[j] &= m[j]
		}
		out[i] = Entry{
			Priority: rng.Intn(1024),
			Value:    v,
			Mask:     append([]byte(nil), m...),
			Action:   Action{Type: ActionDrop, Class: 1 + rng.Intn(7)},
		}
	}
	return out
}

// BenchmarkTernaryLookup measures single-key lookup latency across four
// decades of table size. With the fixed mask pool the partition count
// saturates around 50, so ns/op must stay within a small constant
// factor from 1k to 1M entries — the CI sublinearity guard
// (CI_GUARD_SUBLINEAR in scripts/ci.sh) pins 1M <= 4x 1k.
func BenchmarkTernaryLookup(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			tbl := NewTable("det", MatchTernary, scaleKey(), 0, Action{Type: ActionAllow})
			if err := tbl.Replace(scaleProgram(rng, n)); err != nil {
				b.Fatal(err)
			}
			frames := make([][]byte, 1024)
			for i := range frames {
				f := make([]byte, 4)
				rng.Read(f)
				frames[i] = f
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tbl.Lookup(frames[i&1023])
			}
		})
	}
}

// learnedPlusPoints is a detector as a gateway under attack holds it: 16
// learned-shaped range rows (each owns a slice of the first key byte and
// bounds one more byte) and n reactive point rows above them.
func learnedPlusPoints(rng *rand.Rand, n int) []Entry {
	out := make([]Entry, 0, 16+n)
	for i := 0; i < 16; i++ {
		lo, hi := []byte{byte(i * 15), 0, 0, 0}, []byte{byte(i*15 + 14), 255, 255, 255}
		j := 1 + rng.Intn(3)
		lo[j], hi[j] = byte(rng.Intn(64)), byte(128+rng.Intn(64))
		out = append(out, Entry{Priority: 16 - i, Lo: lo, Hi: hi, Action: Action{Type: ActionDrop, Class: 1 + i%2}})
	}
	for i := 0; i < n; i++ {
		k := make([]byte, 4)
		rng.Read(k)
		out = append(out, Entry{Priority: 1 << 20, Lo: k, Hi: k, Action: Action{Type: ActionDrop, Class: 1}})
	}
	return out
}

// BenchmarkRangeLookup measures single-key range lookup as reactive point
// rows pile up beside the learned ranges. Half the probe keys are point
// rows' own keys, half are random (hitting a learned range or nothing).
func BenchmarkRangeLookup(b *testing.B) {
	for _, n := range []int{0, 1_000, 8_000, 64_000} {
		b.Run(fmt.Sprintf("points=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			prog := learnedPlusPoints(rng, n)
			tbl := NewTable("det", MatchRange, scaleKey(), 0, Action{Type: ActionAllow})
			if err := tbl.Replace(prog); err != nil {
				b.Fatal(err)
			}
			frames := make([][]byte, 1024)
			for i := range frames {
				f := make([]byte, 4)
				rng.Read(f)
				if n > 0 && i%2 == 0 {
					copy(f, prog[16+rng.Intn(n)].Lo)
				}
				frames[i] = f
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tbl.Lookup(frames[i&1023])
			}
		})
	}
}

// BenchmarkRangeInsert measures one reactive install — a point row above
// everything, as controller.handleDigest installs it — into a detector
// that already holds rows rows. The table is put back to that size
// (timer stopped) after every rows/8 installs, 64 at least, so the row
// count stays within an eighth of the one named. What is left per install
// is a few fixed-size structs — nothing that grows with the table; at a
// power-of-two row count the hash doubles once per refill, which is what
// B/op reads above ~1.4 KB.
func BenchmarkRangeInsert(b *testing.B) {
	for _, rows := range []int{16, 8192, 131072, 1048576} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			prog := learnedPlusPoints(rng, rows-16)
			refill := max(64, rows/8)
			installs := learnedPlusPoints(rng, refill)[16:]
			tbl := NewTable("det", MatchRange, scaleKey(), 0, Action{Type: ActionAllow})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%refill == 0 {
					b.StopTimer()
					if err := tbl.Replace(prog); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if _, err := tbl.Insert(installs[i%refill]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEntriesAfterInstalls is where the list copy an install no longer
// makes went: the first reader of a generation that 64 rows were installed
// into since its list was built sorts those and merges them into a copy of
// it. That is all Stats, EntrySnapshots, Explain and the scan pay on top of
// what they always did (Entries deep-copies every row besides, ~1 ms at
// this size); the readers after the first pay nothing. Each iteration is a
// generation nobody has read.
func BenchmarkEntriesAfterInstalls(b *testing.B) {
	const rows, tail = 8192, 64
	b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
		rng := rand.New(rand.NewSource(42))
		tbl := NewTable("det", MatchRange, scaleKey(), 0, Action{Type: ActionAllow})
		if err := tbl.Replace(learnedPlusPoints(rng, rows-16)); err != nil {
			b.Fatal(err)
		}
		for _, e := range learnedPlusPoints(rng, tail)[16:] {
			if _, err := tbl.Insert(e); err != nil {
				b.Fatal(err)
			}
		}
		last := tbl.state.Load()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			unread := &lookupState{sorted: last.sorted, covered: last.covered, byID: last.byID}
			if got := unread.ordered(); len(got) != rows+tail {
				b.Fatalf("%d rows listed of %d", len(got), rows+tail)
			}
		}
	})
}

// BenchmarkRangeDelta is a 1 % churn of a detector's point rows — every
// hundredth one replaced by a fresh key, the learned range rows left
// alone — applied as a delta (alternating between the two programs, so
// the table is fed deltas only and compacts its row ids as it goes) and,
// for scale, installed as a full Replace of the same program. The delta
// splices two pointer lists, copies the point hash once and edits it: it
// must stay ≥ 4x ahead of the Replace, and cost per edited row about the
// same at either size.
func BenchmarkRangeDelta(b *testing.B) {
	for _, rows := range []int{8192, 131072} {
		rng := rand.New(rand.NewSource(42))
		progs := [2][]Entry{learnedPlusPoints(rng, rows-16)}
		progs[1] = append([]Entry(nil), progs[0]...)
		for i, e := range learnedPlusPoints(rng, rows/100)[16:] {
			progs[1][16+i*100] = e
		}
		b.Run(fmt.Sprintf("rows=%d/apply", rows), func(b *testing.B) {
			var deltas [2]Delta
			for i := range deltas {
				d, ok := ComputeDelta(progs[i], progs[1-i])
				if !ok {
					b.Fatal("no delta between the programs")
				}
				deltas[i] = d
			}
			tbl := NewTable("det", MatchRange, scaleKey(), 0, Action{Type: ActionAllow})
			if err := tbl.Replace(progs[0]); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tbl.Apply(deltas[i&1]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("rows=%d/replace", rows), func(b *testing.B) {
			tbl := NewTable("det", MatchRange, scaleKey(), 0, Action{Type: ActionAllow})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tbl.Replace(progs[(i+1)&1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTernaryReplace is what any mutation of a ternary table costs
// at 1M entries — validate, copy, sort, and build every partition index:
// the store has no edit path.
func BenchmarkTernaryReplace(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	prog := scaleProgram(rng, 1_000_000)
	tbl := NewTable("det", MatchTernary, scaleKey(), 0, Action{Type: ActionAllow})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tbl.Replace(prog); err != nil {
			b.Fatal(err)
		}
	}
}
