package nn

import (
	"fmt"

	"p4guard/internal/tensor"
)

// Network is an ordered stack of layers with a loss head. It owns a
// Workspace that backs every intermediate buffer of its passes, so the
// matrix Forward returns is only valid until the network's next pass;
// copy what must outlive it.
type Network struct {
	Layers []Layer
	Loss   Loss

	ws         *Workspace
	cacheBuilt bool
	params     []*tensor.Matrix
	grads      []*tensor.Matrix
	inGrad     *tensor.Matrix
}

// NewNetwork builds a network from the given layers and loss.
func NewNetwork(loss Loss, layers ...Layer) *Network {
	return &Network{Layers: layers, Loss: loss, ws: NewWorkspace()}
}

func (n *Network) workspace() *Workspace {
	if n.ws == nil {
		n.ws = NewWorkspace()
	}
	return n.ws
}

// Release lets go of the workspace and of what the layers cached for
// backprop: after a training run those pin the arena of a full batch, and a
// network that only serves one-row inference from then on should not hold
// it. Parameters and gradients stay; the next pass regrows what it needs.
func (n *Network) Release() {
	n.ws, n.inGrad = nil, nil
	for _, l := range n.Layers {
		switch l := l.(type) {
		case *Dense:
			l.lastIn = nil
		case *ReLU:
			l.mask = nil
		case *Sigmoid:
			l.lastOut = nil
		}
	}
}

// forward runs the batch through every layer using the given workspace.
func (n *Network) forward(ws *Workspace, x *tensor.Matrix, train bool) (*tensor.Matrix, error) {
	cur := x
	for i, l := range n.Layers {
		out, err := l.Forward(ws, cur, train)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
		cur = out
	}
	return cur, nil
}

// backward propagates dL/dOutput back through the layers. A training
// pass (params) leaves every layer's parameter gradients in Grads and
// stops short of the first layer's input gradient, which nothing reads:
// it returns nil. An attribution pass computes no parameter gradient and
// returns dL/dInput.
func (n *Network) backward(ws *Workspace, gradOut *tensor.Matrix, params bool) (*tensor.Matrix, error) {
	cur := gradOut
	for i := len(n.Layers) - 1; i >= 0; i-- {
		if params {
			if err := n.Layers[i].ParamGrads(cur); err != nil {
				return nil, fmt.Errorf("layer %d backward: %w", i, err)
			}
			if i == 0 {
				return nil, nil
			}
		}
		g, err := n.Layers[i].Backward(ws, cur)
		if err != nil {
			return nil, fmt.Errorf("layer %d backward: %w", i, err)
		}
		cur = g
	}
	return cur, nil
}

// Forward runs the batch through every layer. train controls caching for
// backprop and stochastic layers such as dropout. The returned matrix is
// workspace-backed: valid until the network's next pass.
func (n *Network) Forward(x *tensor.Matrix, train bool) (*tensor.Matrix, error) {
	ws := n.workspace()
	ws.Reset()
	return n.forward(ws, x, train)
}

// Step runs one training pass over the batch and returns the loss value;
// parameter gradients are left in the layers for the optimizer.
func (n *Network) Step(x, target *tensor.Matrix) (float64, error) {
	ws := n.workspace()
	ws.Reset()
	out, err := n.forward(ws, x, true)
	if err != nil {
		return 0, err
	}
	loss, err := n.Loss.Value(ws, out, target)
	if err != nil {
		return 0, err
	}
	grad, err := n.Loss.Grad(ws, out, target)
	if err != nil {
		return 0, err
	}
	_, err = n.backward(ws, grad, true)
	return loss, err
}

func (n *Network) buildParamCache() {
	n.params = n.params[:0]
	n.grads = n.grads[:0]
	for _, l := range n.Layers {
		n.params = append(n.params, l.Params()...)
		n.grads = append(n.grads, l.Grads()...)
	}
	n.cacheBuilt = true
}

// Params returns all trainable parameters in layer order. The slice is
// cached and must not be mutated by callers.
func (n *Network) Params() []*tensor.Matrix {
	if !n.cacheBuilt {
		n.buildParamCache()
	}
	return n.params
}

// Grads returns gradient accumulators aligned with Params. The slice is
// cached and must not be mutated by callers.
func (n *Network) Grads() []*tensor.Matrix {
	if !n.cacheBuilt {
		n.buildParamCache()
	}
	return n.grads
}

// predictChunk is the row-block size for batch evaluation: it bounds the
// workspace to one chunk's activations however large the eval set is.
const predictChunk = 256

// Predict returns the argmax class for each row of x, evaluated in fixed
// row chunks; per-row results are independent of the chunking.
func (n *Network) Predict(x *tensor.Matrix) ([]int, error) {
	preds := make([]int, x.Rows)
	for lo := 0; lo < x.Rows; lo += predictChunk {
		out, err := n.Forward(x.RowView(lo, min(lo+predictChunk, x.Rows)), false)
		if err != nil {
			return nil, err
		}
		for i := 0; i < out.Rows; i++ {
			preds[lo+i] = tensor.Argmax(out.Row(i))
		}
	}
	return preds, nil
}

// Infer runs an inference-mode forward pass backed by the caller's
// workspace (reset on entry; the result is valid until ws is next used).
// Inference writes no layer state, so concurrent Infer calls on one
// network are safe as long as each goroutine brings its own workspace.
// A nil ws is valid and allocates per call.
func (n *Network) Infer(ws *Workspace, x *tensor.Matrix) (*tensor.Matrix, error) {
	ws.Reset()
	return n.forward(ws, x, false)
}

// InputGradient returns dLoss/dInput for the batch, leaving parameters
// and their gradients as they were — used for saliency-based field
// attribution. The result is a buffer owned by the network that stays
// valid across later passes but is overwritten by the next InputGradient
// call.
func (n *Network) InputGradient(x, target *tensor.Matrix) (*tensor.Matrix, error) {
	ws := n.workspace()
	ws.Reset()
	out, err := n.forward(ws, x, true)
	if err != nil {
		return nil, err
	}
	grad, err := n.Loss.Grad(ws, out, target)
	if err != nil {
		return nil, err
	}
	gradIn, err := n.backward(ws, grad, false)
	if err != nil {
		return nil, err
	}
	n.inGrad = ensureShape(n.inGrad, gradIn.Rows, gradIn.Cols)
	copy(n.inGrad.Data, gradIn.Data)
	return n.inGrad, nil
}
