package nn

import (
	"math"
	"math/rand"
	"testing"

	"p4guard/internal/tensor"
)

// textbookAdam is Adam's per-element update exactly as Kingma & Ba write
// it (and as Update computed it before it learned to skip zero steps):
// the oracle TestAdamMatchesTextbook holds Update to.
type textbookAdam struct {
	lr, b1, b2, eps float64
	t               int
	m, v            []float64
}

func (o *textbookAdam) step(p, g []float64) {
	o.t++
	bc1 := 1 - math.Pow(o.b1, float64(o.t))
	bc2 := 1 - math.Pow(o.b2, float64(o.t))
	for j := range p {
		o.m[j] = o.b1*o.m[j] + (1-o.b1)*g[j]
		o.v[j] = o.b2*o.v[j] + (1-o.b2)*g[j]*g[j]
		mhat := o.m[j] / bc1
		vhat := o.v[j] / bc2
		p[j] -= o.lr * mhat / (math.Sqrt(vhat) + o.eps)
	}
}

// TestAdamMatchesTextbook runs Update and the textbook update side by side
// for 50 steps on gradients where a quarter are +0, some are -0 and one
// column is zero throughout, and requires the same bits in every
// parameter and both moments after every step: skipping a zero step
// must be an exact no-op, never an approximation of one.
func TestAdamMatchesTextbook(t *testing.T) {
	const rows, cols, zeroCol = 7, 9, 4
	rng := rand.New(rand.NewSource(29))
	p, g := tensor.New(rows, cols), tensor.New(rows, cols)
	p.Randomize(rng, 1)
	ref := append([]float64(nil), p.Data...)
	opt := NewAdam(0.01)
	oracle := &textbookAdam{lr: opt.LR, b1: opt.Beta1, b2: opt.Beta2, eps: opt.Epsilon,
		m: make([]float64, len(ref)), v: make([]float64, len(ref))}
	negZero := math.Copysign(0, -1)
	sameBits := func(what string, step int, got, want []float64) {
		t.Helper()
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("step %d: %s[%d] = %v (%#x), textbook %v (%#x)", step, what, j,
					got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
			}
		}
	}
	for step := 1; step <= 50; step++ {
		for j := range g.Data {
			switch r := rng.Intn(8); {
			case j%cols == zeroCol || r < 2:
				g.Data[j] = 0
			case r == 2:
				g.Data[j] = negZero
			default:
				g.Data[j] = rng.NormFloat64()
			}
		}
		if err := opt.Update([]*tensor.Matrix{p}, []*tensor.Matrix{g}); err != nil {
			t.Fatal(err)
		}
		oracle.step(ref, g.Data)
		sameBits("param", step, p.Data, ref)
		sameBits("m", step, opt.m[0].Data, oracle.m)
		sameBits("v", step, opt.v[0].Data, oracle.v)
	}
}
