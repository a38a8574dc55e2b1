package nn

import (
	"encoding/gob"
	"fmt"
	"io"

	"p4guard/internal/tensor"
)

// layerKind identifies a serializable layer type.
type layerKind int

const (
	kindDense layerKind = iota + 1
	kindReLU
	kindSigmoid
	// 4 and 5 named layer kinds since removed: Load refuses them, and no
	// new kind may take their numbers.
)

// lossKind identifies a serializable loss head.
type lossKind int

const (
	lossSoftmaxCE lossKind = iota + 1
	lossMSE
)

// layerSnap is the on-wire form of one layer.
type layerSnap struct {
	Kind layerKind
	In   int
	Out  int
	W    []float64
	B    []float64
	// Rate was the removed dropout layer's. It stays because the field
	// list is part of every saved model's bytes.
	Rate float64
}

// netSnap is the on-wire form of a whole network.
type netSnap struct {
	Loss   lossKind
	Layers []layerSnap
}

// Save gob-encodes the network's architecture and weights to w.
func Save(w io.Writer, net *Network) error {
	snap := netSnap{Layers: make([]layerSnap, 0, len(net.Layers))}
	switch net.Loss.(type) {
	case SoftmaxCE:
		snap.Loss = lossSoftmaxCE
	case MSE:
		snap.Loss = lossMSE
	default:
		return fmt.Errorf("nn: unserializable loss %T", net.Loss)
	}
	for _, l := range net.Layers {
		switch v := l.(type) {
		case *Dense:
			snap.Layers = append(snap.Layers, layerSnap{
				Kind: kindDense, In: v.In(), Out: v.Out(),
				W: v.W.Data, B: v.B.Data,
			})
		case *ReLU:
			snap.Layers = append(snap.Layers, layerSnap{Kind: kindReLU})
		case *Sigmoid:
			snap.Layers = append(snap.Layers, layerSnap{Kind: kindSigmoid})
		default:
			return fmt.Errorf("nn: unserializable layer %T", l)
		}
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("nn: encode: %w", err)
	}
	return nil
}

// Load reads a network saved by Save. Each dense layer is built from the
// snapshot's weights alone. A dense layer with a dimension below 1,
// weights that are not In×Out, or an input width other than the output
// width of the dense layer before it fails with the layer's index.
func Load(r io.Reader) (*Network, error) {
	var snap netSnap
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("nn: decode: %w", err)
	}
	var loss Loss
	switch snap.Loss {
	case lossSoftmaxCE:
		loss = SoftmaxCE{}
	case lossMSE:
		loss = MSE{}
	default:
		return nil, fmt.Errorf("nn: unknown loss kind %d", snap.Loss)
	}
	layers := make([]Layer, 0, len(snap.Layers))
	width := 0 // the last dense layer's output width; 0 before the first
	for i, ls := range snap.Layers {
		switch ls.Kind {
		case kindDense:
			// Division, not In*Out, which a hostile snapshot could wrap.
			if ls.In < 1 || ls.Out < 1 || len(ls.W)%ls.Out != 0 || len(ls.W)/ls.Out != ls.In || len(ls.B) != ls.Out {
				return nil, fmt.Errorf("nn: layer %d: corrupt dense %dx%d (w=%d b=%d)",
					i, ls.In, ls.Out, len(ls.W), len(ls.B))
			}
			if width != 0 && ls.In != width {
				return nil, fmt.Errorf("nn: layer %d: dense takes %d inputs, the layer before gives %d", i, ls.In, width)
			}
			width = ls.Out
			layers = append(layers, &Dense{
				W:  &tensor.Matrix{Rows: ls.In, Cols: ls.Out, Data: ls.W},
				B:  &tensor.Matrix{Rows: 1, Cols: ls.Out, Data: ls.B},
				dW: tensor.New(ls.In, ls.Out),
				dB: tensor.New(1, ls.Out),
			})
		case kindReLU:
			layers = append(layers, &ReLU{})
		case kindSigmoid:
			layers = append(layers, &Sigmoid{})
		default:
			return nil, fmt.Errorf("nn: layer %d: unknown kind %d", i, ls.Kind)
		}
	}
	return NewNetwork(loss, layers...), nil
}
