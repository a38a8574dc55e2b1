package nn

import (
	"math/rand"
	"testing"

	"p4guard/internal/tensor"
)

// BenchmarkTrainStep measures one forward/backward/update step of the
// stage-2-sized MLP. With the workspace arena warmed up it runs at zero
// allocations per step (ReportAllocs is the regression surface).
func BenchmarkTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := NewMLP(rng, 48, []int{32, 16}, 2)
	opt := NewAdam(0.004)
	x := tensor.New(64, 48)
	x.Randomize(rng, 1)
	labels := make([]int, 64)
	for i := range labels {
		labels[i] = i % 2
	}
	target, err := OneHot(labels, 2)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the workspace high-water mark and optimizer state.
	for i := 0; i < 3; i++ {
		if _, err := net.Step(x, target); err != nil {
			b.Fatal(err)
		}
		if err := opt.Update(net.Params(), net.Grads()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Step(x, target); err != nil {
			b.Fatal(err)
		}
		if err := opt.Update(net.Params(), net.Grads()); err != nil {
			b.Fatal(err)
		}
	}
}
