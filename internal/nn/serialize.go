package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
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

// Load reads a network saved by Save. rng draws the dense layers' initial
// weights, which the snapshot's then overwrite.
func Load(r io.Reader, rng *rand.Rand) (*Network, error) {
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
	for i, ls := range snap.Layers {
		switch ls.Kind {
		case kindDense:
			if len(ls.W) != ls.In*ls.Out || len(ls.B) != ls.Out {
				return nil, fmt.Errorf("nn: layer %d: corrupt dense %dx%d (w=%d b=%d)",
					i, ls.In, ls.Out, len(ls.W), len(ls.B))
			}
			d := NewDense(rng, ls.In, ls.Out)
			copy(d.W.Data, ls.W)
			copy(d.B.Data, ls.B)
			layers = append(layers, d)
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
