// Package autoenc implements the stage-1 learner: a stacked autoencoder
// trained on raw header-byte vectors. Byte positions where attack traffic
// deviates most from the benign manifold — measured by per-byte
// reconstruction residuals and input-gradient saliency — become candidates
// for the data-plane match key.
package autoenc

import (
	"fmt"
	"math"
	"math/rand"

	"p4guard/internal/nn"
	"p4guard/internal/tensor"
)

// Config controls autoencoder construction and training.
type Config struct {
	// Hidden lists encoder hidden widths; the decoder mirrors them. The
	// last entry is the bottleneck. Nil means [32, 12].
	Hidden []int
	// Epochs for training (default 30).
	Epochs int
	// BatchSize for training (default 64).
	BatchSize int
	// LR is the Adam learning rate (default 0.005).
	LR float64
	// Seed drives weight init and shuffling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{32, 12}
	}
	if c.Epochs <= 0 {
		c.Epochs = 30
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.LR <= 0 {
		c.LR = 0.005
	}
	return c
}

// Autoencoder is a trained stacked autoencoder over fixed-width inputs.
type Autoencoder struct {
	net   *nn.Network
	width int
}

// Train fits the autoencoder to reconstruct x (rows are samples).
func Train(x *tensor.Matrix, cfg Config) (*Autoencoder, error) {
	if x.Rows == 0 || x.Cols == 0 {
		return nil, fmt.Errorf("autoenc: empty training matrix")
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	var layers []nn.Layer
	prev := x.Cols
	for _, h := range cfg.Hidden {
		layers = append(layers, nn.NewDense(rng, prev, h), &nn.ReLU{})
		prev = h
	}
	for i := len(cfg.Hidden) - 2; i >= 0; i-- {
		layers = append(layers, nn.NewDense(rng, prev, cfg.Hidden[i]), &nn.ReLU{})
		prev = cfg.Hidden[i]
	}
	layers = append(layers, nn.NewDense(rng, prev, x.Cols), &nn.Sigmoid{})
	net := nn.NewNetwork(nn.MSE{}, layers...)

	if _, err := nn.Train(net, nn.NewAdam(cfg.LR), x, x, nn.TrainConfig{
		Epochs:    cfg.Epochs,
		BatchSize: cfg.BatchSize,
		Shuffle:   rng,
	}); err != nil {
		return nil, fmt.Errorf("autoenc: train: %w", err)
	}
	net.Release() // the training batches' arena: scoring brings its own
	return &Autoencoder{net: net, width: x.Cols}, nil
}

// evalChunk is the row-block size the batch reductions split inference
// into. It bounds the workspace to one chunk's activations, and because
// Residuals sums each chunk on its own before adding it to the total, it
// is also part of the floating-point association: changing it changes the
// low bits of every persisted drift baseline.
const evalChunk = 256

// forEachChunk reconstructs x in fixed row chunks, ascending, and hands
// each chunk's first row index, input view and reconstruction to fn.
func (a *Autoencoder) forEachChunk(x *tensor.Matrix, fn func(lo int, xv, recon *tensor.Matrix)) error {
	ws := nn.NewWorkspace()
	for lo := 0; lo < x.Rows; lo += evalChunk {
		xv := x.RowView(lo, min(lo+evalChunk, x.Rows))
		recon, err := a.net.Infer(ws, xv)
		if err != nil {
			return err
		}
		fn(lo, xv, recon)
	}
	return nil
}

// Residuals returns per-column mean absolute reconstruction error over the
// batch: how badly each input byte fits the learned manifold.
func (a *Autoencoder) Residuals(x *tensor.Matrix) ([]float64, error) {
	if x.Cols != a.width {
		return nil, fmt.Errorf("autoenc: width %d != %d: %w", x.Cols, a.width, tensor.ErrShape)
	}
	res := make([]float64, a.width)
	part := make([]float64, a.width)
	err := a.forEachChunk(x, func(_ int, xv, recon *tensor.Matrix) {
		clear(part)
		for i := 0; i < xv.Rows; i++ {
			xrow, rrow := xv.Row(i), recon.Row(i)
			for j := range part {
				part[j] += math.Abs(xrow[j] - rrow[j])
			}
		}
		for j, v := range part {
			res[j] += v
		}
	})
	if err != nil {
		return nil, err
	}
	if x.Rows > 0 {
		inv := 1 / float64(x.Rows)
		for j := range res {
			res[j] *= inv
		}
	}
	return res, nil
}

// SampleError returns the mean reconstruction error of each row — an
// anomaly score usable directly for detection. Each score depends only on
// its own row.
func (a *Autoencoder) SampleError(x *tensor.Matrix) ([]float64, error) {
	if x.Cols != a.width {
		return nil, fmt.Errorf("autoenc: width %d != %d: %w", x.Cols, a.width, tensor.ErrShape)
	}
	out := make([]float64, x.Rows)
	err := a.forEachChunk(x, func(lo int, xv, recon *tensor.Matrix) {
		for i := 0; i < xv.Rows; i++ {
			xrow, rrow := xv.Row(i), recon.Row(i)
			var sum float64
			for j := range xrow {
				d := xrow[j] - rrow[j]
				sum += d * d
			}
			out[lo+i] = sum / float64(x.Cols)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// InputSaliency returns per-column mean |d reconstruction-loss / d input|
// over the batch.
func (a *Autoencoder) InputSaliency(x *tensor.Matrix) ([]float64, error) {
	if x.Cols != a.width {
		return nil, fmt.Errorf("autoenc: width %d != %d: %w", x.Cols, a.width, tensor.ErrShape)
	}
	grad, err := a.net.InputGradient(x, x)
	if err != nil {
		return nil, err
	}
	sal := make([]float64, a.width)
	for i := 0; i < grad.Rows; i++ {
		row := grad.Row(i)
		for j := range sal {
			sal[j] += math.Abs(row[j])
		}
	}
	if grad.Rows > 0 {
		inv := 1 / float64(grad.Rows)
		for j := range sal {
			sal[j] *= inv
		}
	}
	return sal, nil
}
