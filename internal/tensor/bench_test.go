package tensor

import (
	"math/rand"
	"testing"
)

// benchMatMul runs dst = a×b at the given shape in both the blocked
// kernel and the serial oracle, so the blocked kernel's win over the
// scalar loop is visible in one run.
func benchMatMul(b *testing.B, n, k, m int) {
	rng := rand.New(rand.NewSource(1))
	a, bb := New(n, k), New(k, m)
	a.Randomize(rng, 1)
	bb.Randomize(rng, 1)
	dst := New(n, m)
	b.Run("blocked", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := MatMul(dst, a, bb); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("serial-oracle", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := MatMulSerial(dst, a, bb); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMatMulSmall is a single k-panel with little row reuse: the
// shape where tiling has the least to win.
func BenchmarkMatMulSmall(b *testing.B) { benchMatMul(b, 32, 32, 32) }

// BenchmarkMatMulMLP is the stage-1 attribution shape (batch 64, bit
// inputs, first hidden layer) that dominates p4guard.Train.
func BenchmarkMatMulMLP(b *testing.B) { benchMatMul(b, 64, 320, 48) }

// BenchmarkMatMulWide stresses the cache-blocked path with a k dimension
// past the panel size.
func BenchmarkMatMulWide(b *testing.B) { benchMatMul(b, 256, 512, 128) }

func BenchmarkMatMulATB(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a, bb := New(320, 64), New(320, 48)
	a.Randomize(rng, 1)
	bb.Randomize(rng, 1)
	dst := New(64, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MatMulATB(dst, a, bb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMulABT(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a, bb := New(64, 48), New(320, 48)
	a.Randomize(rng, 1)
	bb.Randomize(rng, 1)
	dst := New(64, 320)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MatMulABT(dst, a, bb); err != nil {
			b.Fatal(err)
		}
	}
}
