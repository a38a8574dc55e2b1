package nn

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"p4guard/internal/tensor"
)

// EpochStats is the structured per-epoch signal the training loop emits
// to observers: the run journal, live training gauges, and experiment
// manifests all consume it.
type EpochStats struct {
	// Epoch is the zero-based epoch index.
	Epoch int `json:"epoch"`
	// Loss is the mean minibatch loss over the epoch.
	Loss float64 `json:"loss"`
	// Accuracy is the training-set accuracy measured with a forward
	// pass after the epoch's updates. It is only computed when an
	// OnEpochEnd observer is installed, so unobserved training pays
	// nothing for it.
	Accuracy float64 `json:"accuracy"`
	// GradNorm is the global L2 norm of the parameter gradients after
	// the epoch's final minibatch — the signal that catches exploding
	// and vanishing gradients in a journal replay.
	GradNorm float64 `json:"grad_norm"`
	// Duration is the wall time of the epoch (batching, forward,
	// backward, and optimizer updates; not the observer itself).
	Duration time.Duration `json:"duration_ns"`
}

// TrainConfig controls the minibatch training loop.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	// Shuffle reshuffles sample order each epoch when non-nil.
	Shuffle *rand.Rand
	// OnEpoch, when non-nil, receives (epoch, meanLoss) after each epoch;
	// returning false stops training early.
	OnEpoch func(epoch int, loss float64) bool
	// OnEpochEnd, when non-nil, receives full epoch statistics (loss,
	// training accuracy, gradient norm, duration) after each epoch;
	// returning false stops training early. Installing it adds one
	// forward pass per epoch for the accuracy measurement.
	OnEpochEnd func(EpochStats) bool
}

// Train runs minibatch gradient descent over (x, target) with the given
// optimizer and returns the mean loss of the final epoch.
func Train(net *Network, opt Optimizer, x, target *tensor.Matrix, cfg TrainConfig) (float64, error) {
	if x.Rows != target.Rows {
		return 0, fmt.Errorf("nn: %d samples vs %d targets: %w", x.Rows, target.Rows, tensor.ErrShape)
	}
	if x.Rows == 0 {
		return 0, fmt.Errorf("nn: empty training set")
	}
	batch := cfg.BatchSize
	if batch <= 0 || batch > x.Rows {
		batch = x.Rows
	}
	epochs := cfg.Epochs
	if epochs <= 0 {
		epochs = 1
	}

	order := make([]int, x.Rows)
	for i := range order {
		order[i] = i
	}

	// Persistent batch buffers, resliced per minibatch so the steady-state
	// step allocates nothing.
	bx := tensor.New(batch, x.Cols)
	bt := tensor.New(batch, target.Cols)

	var lastLoss float64
	for e := 0; e < epochs; e++ {
		epochStart := time.Now()
		if cfg.Shuffle != nil {
			cfg.Shuffle.Shuffle(len(order), func(i, j int) {
				order[i], order[j] = order[j], order[i]
			})
		}
		var epochLoss float64
		var batches int
		for start := 0; start < len(order); start += batch {
			end := start + batch
			if end > len(order) {
				end = len(order)
			}
			nb := end - start
			bx.Rows, bx.Data = nb, bx.Data[:nb*x.Cols]
			bt.Rows, bt.Data = nb, bt.Data[:nb*target.Cols]
			for bi, idx := range order[start:end] {
				bx.SetRow(bi, x.Row(idx))
				bt.SetRow(bi, target.Row(idx))
			}
			loss, err := net.Step(bx, bt)
			if err != nil {
				return 0, fmt.Errorf("epoch %d batch %d: %w", e, batches, err)
			}
			if err := opt.Update(net.Params(), net.Grads()); err != nil {
				return 0, fmt.Errorf("epoch %d update: %w", e, err)
			}
			epochLoss += loss
			batches++
		}
		lastLoss = epochLoss / float64(batches)
		if cfg.OnEpochEnd != nil {
			es := EpochStats{
				Epoch:    e,
				Loss:     lastLoss,
				GradNorm: GradNorm(net),
				Duration: time.Since(epochStart),
			}
			acc, err := trainAccuracy(net, x, target)
			if err != nil {
				return 0, fmt.Errorf("epoch %d accuracy: %w", e, err)
			}
			es.Accuracy = acc
			if !cfg.OnEpochEnd(es) {
				break
			}
		}
		if cfg.OnEpoch != nil && !cfg.OnEpoch(e, lastLoss) {
			break
		}
	}
	return lastLoss, nil
}

// GradNorm returns the global L2 norm of the network's current
// parameter gradients (the accumulators left by the last Step).
func GradNorm(net *Network) float64 {
	var sum float64
	for _, g := range net.Grads() {
		for _, v := range g.Data {
			sum += v * v
		}
	}
	return math.Sqrt(sum)
}

// trainAccuracy measures argmax accuracy of the network against one-hot
// targets; Predict evaluates the set in fixed row chunks.
func trainAccuracy(net *Network, x, target *tensor.Matrix) (float64, error) {
	preds, err := net.Predict(x)
	if err != nil {
		return 0, err
	}
	if len(preds) == 0 {
		return 0, nil
	}
	correct := 0
	for i, p := range preds {
		if p == tensor.Argmax(target.Row(i)) {
			correct++
		}
	}
	return float64(correct) / float64(len(preds)), nil
}

// OneHot encodes integer labels into an n×classes one-hot matrix.
func OneHot(labels []int, classes int) (*tensor.Matrix, error) {
	m := tensor.New(len(labels), classes)
	for i, l := range labels {
		if l < 0 || l >= classes {
			return nil, fmt.Errorf("nn: label %d out of range [0,%d)", l, classes)
		}
		m.Set(i, l, 1)
	}
	return m, nil
}

// NewMLP builds a ReLU multi-layer perceptron with a softmax/cross-entropy
// head. hidden lists the hidden-layer widths in order.
func NewMLP(rng *rand.Rand, in int, hidden []int, out int) *Network {
	var layers []Layer
	prev := in
	for _, h := range hidden {
		layers = append(layers, NewDense(rng, prev, h), &ReLU{})
		prev = h
	}
	layers = append(layers, NewDense(rng, prev, out))
	return NewNetwork(SoftmaxCE{}, layers...)
}
