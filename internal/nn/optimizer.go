package nn

import (
	"fmt"
	"math"

	"p4guard/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t    int
	m, v []*tensor.Matrix
}

// NewAdam returns an Adam optimizer with standard defaults for any zero
// hyperparameter.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Update applies one optimization step in place from the accumulated
// gradients. params and grads must be aligned and keep the same identity
// across calls.
func (a *Adam) Update(params, grads []*tensor.Matrix) error {
	if len(params) != len(grads) {
		return fmt.Errorf("adam: %d params vs %d grads", len(params), len(grads))
	}
	if a.m == nil {
		a.m = make([]*tensor.Matrix, len(params))
		a.v = make([]*tensor.Matrix, len(params))
		for i, p := range params {
			a.m[i] = tensor.New(p.Rows, p.Cols)
			a.v[i] = tensor.New(p.Rows, p.Cols)
		}
	}
	a.t++
	b1, b2, lr, eps := a.Beta1, a.Beta2, a.LR, a.Epsilon
	c1, c2 := 1-b1, 1-b2
	bc1 := 1 - math.Pow(b1, float64(a.t))
	bc2 := 1 - math.Pow(b2, float64(a.t))
	skipZero := a.zeroIsNoop(bc1, bc2)
	for i, p := range params {
		pd := p.Data
		g, m, v := grads[i].Data[:len(pd)], a.m[i].Data[:len(pd)], a.v[i].Data[:len(pd)]
		for j := range pd {
			gj := g[j]
			// Inputs that are zero in every training row keep zero
			// gradients on their first-layer weights: skip what would
			// compute and store the zeros already there.
			if skipZero && gj == 0 && math.Float64bits(m[j])|math.Float64bits(v[j]) == 0 {
				continue
			}
			m[j] = b1*m[j] + c1*gj
			v[j] = b2*v[j] + c2*gj*gj
			mhat := m[j] / bc1
			vhat := v[j] / bc2
			pd[j] -= lr * mhat / (math.Sqrt(vhat) + eps)
		}
	}
	return nil
}

// zeroIsNoop reports whether a zero gradient (either sign) on moments that
// are exactly +0 leaves both moments +0 and the parameter unchanged, by
// evaluating that update once. It holds for a finite LR ≥ 0, ε > 0 and
// β1, β2 in [0, 1); under any other setting Update runs every element.
func (a *Adam) zeroIsNoop(bc1, bc2 float64) bool {
	for _, g := range [2]float64{0, math.Copysign(0, -1)} {
		m := a.Beta1*0 + (1-a.Beta1)*g
		v := a.Beta2*0 + (1-a.Beta2)*g*g
		step := a.LR * (m / bc1) / (math.Sqrt(v/bc2) + a.Epsilon)
		if math.Float64bits(m)|math.Float64bits(v)|math.Float64bits(step) != 0 {
			return false
		}
	}
	return true
}
