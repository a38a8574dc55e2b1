package autoenc

import (
	"math"
	"math/rand"
	"testing"

	"p4guard/internal/tensor"
)

// structured builds samples living on a 1-D manifold: col1 = col0, col2
// constant; an AE should reconstruct these nearly perfectly.
func structured(rng *rand.Rand, n int) *tensor.Matrix {
	x := tensor.New(n, 4)
	for i := 0; i < n; i++ {
		v := rng.Float64()
		x.SetRow(i, []float64{v, v, 0.5, 1 - v})
	}
	return x
}

func TestTrainReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := structured(rng, 400)
	ae, err := Train(x, Config{Hidden: []int{6, 2}, Epochs: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	errs, err := ae.SampleError(x)
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, e := range errs {
		mean += e
	}
	mean /= float64(len(errs))
	if mean > 0.01 {
		t.Fatalf("mean reconstruction error %.4f too high", mean)
	}
}

func TestAnomalyScoresHigherOffManifold(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := structured(rng, 400)
	ae, err := Train(x, Config{Hidden: []int{6, 2}, Epochs: 120, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Anomalies: col2 wildly off its constant.
	anom := tensor.New(50, 4)
	for i := 0; i < 50; i++ {
		v := rng.Float64()
		anom.SetRow(i, []float64{v, v, 0.0, 1 - v})
	}
	normalErr, err := ae.SampleError(x)
	if err != nil {
		t.Fatal(err)
	}
	anomErr, err := ae.SampleError(anom)
	if err != nil {
		t.Fatal(err)
	}
	meanOf := func(xs []float64) float64 {
		var s float64
		for _, v := range xs {
			s += v
		}
		return s / float64(len(xs))
	}
	if meanOf(anomErr) < 3*meanOf(normalErr) {
		t.Fatalf("anomaly error %.5f not clearly above normal %.5f",
			meanOf(anomErr), meanOf(normalErr))
	}
}

func TestResidualsLocalizeAnomaly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := structured(rng, 400)
	ae, err := Train(x, Config{Hidden: []int{6, 2}, Epochs: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	anom := tensor.New(80, 4)
	for i := 0; i < 80; i++ {
		v := rng.Float64()
		anom.SetRow(i, []float64{v, v, rng.Float64(), 1 - v}) // col2 randomized
	}
	res, err := ae.Residuals(anom)
	if err != nil {
		t.Fatal(err)
	}
	// Column 2 must carry the largest residual.
	maxCol := 0
	for j := 1; j < len(res); j++ {
		if res[j] > res[maxCol] {
			maxCol = j
		}
	}
	if maxCol != 2 {
		t.Fatalf("largest residual at col %d (res=%v), want 2", maxCol, res)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(tensor.New(0, 4), Config{}); err == nil {
		t.Fatal("accepted empty matrix")
	}
}

func TestWidthMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := structured(rng, 50)
	ae, err := Train(x, Config{Hidden: []int{3, 2}, Epochs: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	bad := tensor.New(5, 7)
	if _, err := ae.Residuals(bad); err == nil {
		t.Fatal("Residuals accepted wrong width")
	}
	if _, err := ae.InputSaliency(bad); err == nil {
		t.Fatal("InputSaliency accepted wrong width")
	}
}

func TestInputSaliencyShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := structured(rng, 100)
	ae, err := Train(x, Config{Hidden: []int{4, 2}, Epochs: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sal, err := ae.InputSaliency(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(sal) != 4 {
		t.Fatalf("saliency width %d", len(sal))
	}
	for i, v := range sal {
		if v < 0 {
			t.Fatalf("negative saliency at %d: %v", i, v)
		}
	}
}

// TestResidualsChunkAssociation pins the floating-point association of
// Residuals — each evalChunk-row block summed on its own, blocks added in
// ascending order, one scale at the end — against a hand-rolled sum, on a
// batch of two full chunks and a ragged tail. A persisted drift baseline
// holds these floats, so a change of association must fail here rather
// than surface as a baseline mismatch.
func TestResidualsChunkAssociation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	train := tensor.New(60, 12)
	train.Randomize(rng, 1)
	ae, err := Train(train, Config{Hidden: []int{8, 4}, Epochs: 3, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2*evalChunk+37, 12)
	x.Randomize(rng, 1)

	want := make([]float64, x.Cols)
	for lo := 0; lo < x.Rows; lo += evalChunk {
		hi := min(lo+evalChunk, x.Rows)
		xv := x.RowView(lo, hi)
		recon, err := ae.net.Forward(xv, false)
		if err != nil {
			t.Fatal(err)
		}
		part := make([]float64, x.Cols)
		for i := 0; i < xv.Rows; i++ {
			for j := range part {
				part[j] += math.Abs(xv.Row(i)[j] - recon.Row(i)[j])
			}
		}
		for j := range want {
			want[j] += part[j]
		}
	}
	for j := range want {
		want[j] *= 1 / float64(x.Rows)
	}

	got, err := ae.Residuals(x)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("residual[%d] = %v, chunk-ordered sum %v", j, got[j], want[j])
		}
	}
}
