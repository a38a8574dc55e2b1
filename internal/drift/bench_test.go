package drift

import (
	"testing"
)

// BenchmarkDriftUpdate measures one armed-path observation: sketch
// update plus the amortized 1/ScoreEvery PSI/KS recompute — the cost a
// controller shard pays per digest while drift tracking is on.
func BenchmarkDriftUpdate(b *testing.B) {
	base := NewBuilder([]int{0, 1, 2, 3, 4, 5}, 0)
	keys := make([][]byte, 256)
	for i := range keys {
		keys[i] = []byte{byte(i), byte(i >> 1), byte(i % 64), byte(i % 16), byte(i % 7), byte(i % 3)}
		base.Observe(keys[i], i%3, float64(i)/1024)
	}
	m := NewMonitor()
	if err := m.Arm(MonitorConfig{Baseline: base.Profile(), ScoreEvery: 64, Window: 4096}); err != nil {
		b.Fatal(err)
	}
	da := m.Armed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		da.Observe(0, keys[i%len(keys)], i%3, float64(i%100)/1024)
	}
}

// BenchmarkDriftScore measures one full PSI/KS composite recompute over
// a 6-feature profile — the periodic cost hidden inside Observe.
func BenchmarkDriftScore(b *testing.B) {
	offs := []int{0, 1, 2, 3, 4, 5}
	base := NewBuilder(offs, 0)
	live := NewBuilder(offs, 0)
	for i := 0; i < 4096; i++ {
		key := []byte{byte(i), byte(i >> 1), byte(i % 64), byte(i % 16), byte(i % 7), byte(i % 3)}
		base.Observe(key, i%3, float64(i%100)/1024)
		live.Observe(key, i%3, float64(i%100)/1024)
	}
	bp, lp := base.Profile(), live.Profile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(bp, lp); err != nil {
			b.Fatal(err)
		}
	}
}
