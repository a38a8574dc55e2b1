// Package nn implements a small from-scratch neural-network stack: dense
// layers, ReLU and sigmoid activations, softmax/cross-entropy and MSE
// losses, the Adam optimizer, and a deterministic minibatch trainer. It replaces
// the deep-learning framework the paper used (TensorFlow-class) as a substrate
// for the two-stage detection pipeline.
//
// All intermediate buffers come from a Workspace arena threaded through the
// layer and loss interfaces, so a steady-state training step allocates
// nothing; see workspace.go.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"p4guard/internal/tensor"
)

// Layer is one differentiable stage of a network. Forward consumes a batch
// (rows are samples) and caches whatever the two backward halves need:
// Backward turns dL/dOutput into dL/dInput, ParamGrads into dL/dParams.
// They are separate because no pass wants both of every layer: training
// reads no input gradient of the first layer, attribution no parameter
// gradient at all. Returned matrices (and cached state) live in ws and
// are only valid until the workspace is next Reset; ws may be nil, at the
// cost of allocations.
type Layer interface {
	// Forward computes the layer output for the batch x.
	Forward(ws *Workspace, x *tensor.Matrix, train bool) (*tensor.Matrix, error)
	// Backward computes dL/dInput given dL/dOutput for the most recent
	// Forward call with train=true. It leaves Grads alone.
	Backward(ws *Workspace, gradOut *tensor.Matrix) (*tensor.Matrix, error)
	// ParamGrads leaves dL/dParams for that Forward call in Grads; a
	// layer without parameters does nothing.
	ParamGrads(gradOut *tensor.Matrix) error
	// Params returns the layer's trainable parameters; may be empty.
	Params() []*tensor.Matrix
	// Grads returns gradient accumulators aligned with Params.
	Grads() []*tensor.Matrix
}

// Dense is a fully connected layer: y = xW + b.
type Dense struct {
	W, B   *tensor.Matrix // B is 1×out
	dW, dB *tensor.Matrix

	lastIn *tensor.Matrix
}

var _ Layer = (*Dense)(nil)

// NewDense returns a Glorot-initialized in→out dense layer.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	w := tensor.New(in, out)
	w.GlorotInit(rng, in, out)
	return &Dense{
		W:  w,
		B:  tensor.New(1, out),
		dW: tensor.New(in, out),
		dB: tensor.New(1, out),
	}
}

// In returns the layer's input width.
func (d *Dense) In() int { return d.W.Rows }

// Out returns the layer's output width.
func (d *Dense) Out() int { return d.W.Cols }

// Forward implements Layer.
func (d *Dense) Forward(ws *Workspace, x *tensor.Matrix, train bool) (*tensor.Matrix, error) {
	out := ws.Take(x.Rows, d.W.Cols)
	if err := tensor.MatMul(out, x, d.W); err != nil {
		return nil, fmt.Errorf("dense forward: %w", err)
	}
	if err := out.AddRowVector(d.B.Row(0)); err != nil {
		return nil, fmt.Errorf("dense bias: %w", err)
	}
	if train {
		// Copy the batch instead of retaining the caller's matrix: a
		// retained reference let callers mutate x between Forward and
		// Backward and silently corrupt dW.
		in := ws.Take(x.Rows, x.Cols)
		copy(in.Data, x.Data)
		d.lastIn = in
	}
	return out, nil
}

// ParamGrads implements Layer.
func (d *Dense) ParamGrads(gradOut *tensor.Matrix) error {
	if d.lastIn == nil {
		return fmt.Errorf("dense backward before forward(train)")
	}
	if err := tensor.MatMulATB(d.dW, d.lastIn, gradOut); err != nil {
		return fmt.Errorf("dense dW: %w", err)
	}
	if err := gradOut.ColSumsInto(d.dB.Row(0)); err != nil {
		return fmt.Errorf("dense dB: %w", err)
	}
	return nil
}

// Backward implements Layer.
func (d *Dense) Backward(ws *Workspace, gradOut *tensor.Matrix) (*tensor.Matrix, error) {
	gradIn := ws.Take(gradOut.Rows, d.W.Rows)
	if err := tensor.MatMulABT(gradIn, gradOut, d.W); err != nil {
		return nil, fmt.Errorf("dense gradIn: %w", err)
	}
	return gradIn, nil
}

// Params implements Layer.
func (d *Dense) Params() []*tensor.Matrix { return []*tensor.Matrix{d.W, d.B} }

// Grads implements Layer.
func (d *Dense) Grads() []*tensor.Matrix { return []*tensor.Matrix{d.dW, d.dB} }

// ReLU is the rectified-linear activation.
type ReLU struct {
	mask *tensor.Matrix
}

var _ Layer = (*ReLU)(nil)

// Forward implements Layer.
func (r *ReLU) Forward(ws *Workspace, x *tensor.Matrix, train bool) (*tensor.Matrix, error) {
	out := ws.Take(x.Rows, x.Cols)
	if train {
		r.mask = ws.Take(x.Rows, x.Cols)
		for i, v := range x.Data {
			if v > 0 {
				out.Data[i] = v
				r.mask.Data[i] = 1
			} else {
				out.Data[i] = 0
				r.mask.Data[i] = 0
			}
		}
		return out, nil
	}
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = 0
		}
	}
	return out, nil
}

// Backward implements Layer.
func (r *ReLU) Backward(ws *Workspace, gradOut *tensor.Matrix) (*tensor.Matrix, error) {
	if r.mask == nil {
		return nil, fmt.Errorf("relu backward before forward(train)")
	}
	if gradOut.Rows != r.mask.Rows || gradOut.Cols != r.mask.Cols {
		return nil, fmt.Errorf("relu backward: grad %dx%d vs mask %dx%d: %w",
			gradOut.Rows, gradOut.Cols, r.mask.Rows, r.mask.Cols, tensor.ErrShape)
	}
	gradIn := ws.Take(gradOut.Rows, gradOut.Cols)
	for i, g := range gradOut.Data {
		gradIn.Data[i] = g * r.mask.Data[i]
	}
	return gradIn, nil
}

// ParamGrads implements Layer.
func (r *ReLU) ParamGrads(*tensor.Matrix) error { return nil }

// Params implements Layer.
func (r *ReLU) Params() []*tensor.Matrix { return nil }

// Grads implements Layer.
func (r *ReLU) Grads() []*tensor.Matrix { return nil }

// Sigmoid is the logistic activation.
type Sigmoid struct {
	lastOut *tensor.Matrix
}

var _ Layer = (*Sigmoid)(nil)

// Forward implements Layer.
func (s *Sigmoid) Forward(ws *Workspace, x *tensor.Matrix, train bool) (*tensor.Matrix, error) {
	out := ws.Take(x.Rows, x.Cols)
	for i, v := range x.Data {
		out.Data[i] = 1 / (1 + math.Exp(-v))
	}
	if train {
		s.lastOut = out
	}
	return out, nil
}

// Backward implements Layer.
func (s *Sigmoid) Backward(ws *Workspace, gradOut *tensor.Matrix) (*tensor.Matrix, error) {
	if s.lastOut == nil {
		return nil, fmt.Errorf("sigmoid backward before forward(train)")
	}
	if gradOut.Rows != s.lastOut.Rows || gradOut.Cols != s.lastOut.Cols {
		return nil, fmt.Errorf("sigmoid backward: grad %dx%d vs cache %dx%d: %w",
			gradOut.Rows, gradOut.Cols, s.lastOut.Rows, s.lastOut.Cols, tensor.ErrShape)
	}
	gradIn := ws.Take(gradOut.Rows, gradOut.Cols)
	for i, y := range s.lastOut.Data {
		gradIn.Data[i] = gradOut.Data[i] * y * (1 - y)
	}
	return gradIn, nil
}

// ParamGrads implements Layer.
func (s *Sigmoid) ParamGrads(*tensor.Matrix) error { return nil }

// Params implements Layer.
func (s *Sigmoid) Params() []*tensor.Matrix { return nil }

// Grads implements Layer.
func (s *Sigmoid) Grads() []*tensor.Matrix { return nil }
