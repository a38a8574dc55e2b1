// Package fieldsel implements stage-1 field selection: choosing the small
// set of header byte offsets the data-plane match key is built from. The
// deep-learning selectors (autoencoder residuals, classifier saliency) are
// the paper's approach; mutual information, chi-square, random, and the
// hand-crafted 5-tuple are the comparison baselines.
package fieldsel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"p4guard/internal/autoenc"
	"p4guard/internal/nn"
	"p4guard/internal/packet"
	"p4guard/internal/tensor"
	"p4guard/internal/trace"
)

// Selector ranks header byte offsets and returns the top k.
type Selector interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Select returns k byte offsets, most important first.
	Select(ds *trace.Dataset, k int) ([]int, error)
}

// topK returns the indices of the k largest scores, ties broken by lower
// index (deterministic).
func topK(scores []float64, k int) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]int, k)
	copy(out, idx[:k])
	return out
}

func validate(ds *trace.Dataset, k int) error {
	if ds == nil || ds.Len() == 0 {
		return fmt.Errorf("fieldsel: empty dataset")
	}
	if k <= 0 || k > packet.HeaderWindow {
		return fmt.Errorf("fieldsel: k %d out of (0,%d]", k, packet.HeaderWindow)
	}
	return nil
}

// AutoencoderSelector ranks bytes by how differently attack traffic
// reconstructs under a benign-trained autoencoder, blended with the
// autoencoder's input-gradient saliency.
type AutoencoderSelector struct {
	Config autoenc.Config
}

var _ Selector = (*AutoencoderSelector)(nil)

// Name implements Selector.
func (s *AutoencoderSelector) Name() string { return "autoencoder" }

// Select implements Selector.
func (s *AutoencoderSelector) Select(ds *trace.Dataset, k int) ([]int, error) {
	if err := validate(ds, k); err != nil {
		return nil, err
	}
	benign := &trace.Dataset{Name: ds.Name + "/benign", Link: ds.Link}
	attack := &trace.Dataset{Name: ds.Name + "/attack", Link: ds.Link}
	for _, smp := range ds.Samples {
		if smp.Label == trace.LabelBenign {
			benign.Samples = append(benign.Samples, smp)
		} else {
			attack.Samples = append(attack.Samples, smp)
		}
	}
	if benign.Len() == 0 || attack.Len() == 0 {
		return nil, fmt.Errorf("fieldsel: autoencoder selector needs both classes (benign=%d attack=%d)",
			benign.Len(), attack.Len())
	}
	ae, err := autoenc.Train(benign.HeaderMatrix(), s.Config)
	if err != nil {
		return nil, err
	}
	resBenign, err := ae.Residuals(benign.HeaderMatrix())
	if err != nil {
		return nil, err
	}
	resAttack, err := ae.Residuals(attack.HeaderMatrix())
	if err != nil {
		return nil, err
	}
	salAttack, err := ae.InputSaliency(attack.HeaderMatrix())
	if err != nil {
		return nil, err
	}
	var maxSal float64
	for _, v := range salAttack {
		if v > maxSal {
			maxSal = v
		}
	}
	scores := make([]float64, len(resBenign))
	for i := range scores {
		scores[i] = resAttack[i] - resBenign[i]
		if maxSal > 0 {
			scores[i] += 0.25 * salAttack[i] / maxSal
		}
	}
	return topK(scores, k), nil
}

// SaliencySelector trains a full-window MLP classifier and ranks bytes by
// mean absolute input gradient of the classification loss — the supervised
// deep-learning attribution stage.
type SaliencySelector struct {
	// Hidden lists MLP hidden widths (default [48, 24]).
	Hidden []int
	// Epochs for training (default 25).
	Epochs int
	// Seed drives initialization and shuffling.
	Seed int64
	// OnEpoch, when non-nil, receives per-epoch statistics of the
	// attribution MLP's training — the stage-1 half of the run journal.
	OnEpoch func(nn.EpochStats)
}

var _ Selector = (*SaliencySelector)(nil)

// Name implements Selector.
func (s *SaliencySelector) Name() string { return "dnn-saliency" }

// Select implements Selector.
func (s *SaliencySelector) Select(ds *trace.Dataset, k int) ([]int, error) {
	if err := validate(ds, k); err != nil {
		return nil, err
	}
	hidden := s.Hidden
	if len(hidden) == 0 {
		hidden = []int{48, 24}
	}
	epochs := s.Epochs
	if epochs <= 0 {
		epochs = 25
	}
	rng := rand.New(rand.NewSource(s.Seed))
	// Bit-level inputs (8 features per byte, like the TCAM that will
	// eventually match): adjacent byte values stay separable where a
	// /255-scaled encoding would bury them.
	x := ds.HeaderBitMatrix()
	target, err := nn.OneHot(ds.BinaryLabels(), 2)
	if err != nil {
		return nil, err
	}
	net := nn.NewMLP(rng, x.Cols, hidden, 2)
	tc := nn.TrainConfig{Epochs: epochs, BatchSize: 64, Shuffle: rng}
	if s.OnEpoch != nil {
		hook := s.OnEpoch
		tc.OnEpochEnd = func(es nn.EpochStats) bool { hook(es); return true }
	}
	if _, err := nn.Train(net, nn.NewAdam(0.005), x, target, tc); err != nil {
		return nil, err
	}
	// SmoothGrad-style attribution: confident predictions saturate the
	// softmax and zero out input gradients, hiding exactly the bytes that
	// made the class easy. Averaging |gradient| over noise-perturbed
	// copies of the inputs restores signal at those bytes.
	//
	// Each pass (the clean one, then the noisy ones) sums into its own
	// partial before that is added to the total, in pass order: that
	// association is what the ranking's low bits — and so the selected
	// fields on a near-tie — are fixed by.
	const noisyPasses = 4
	const noiseScale = 0.15
	scores := make([]float64, x.Cols)
	part := make([]float64, x.Cols)
	noisy := tensor.New(x.Rows, x.Cols)
	for p := 0; p <= noisyPasses; p++ {
		batch := x
		if p > 0 {
			batch = noisy
			for i, v := range x.Data {
				noisy.Data[i] = v + rng.NormFloat64()*noiseScale
			}
		}
		grad, err := net.InputGradient(batch, target)
		if err != nil {
			return nil, err
		}
		clear(part)
		for i := 0; i < grad.Rows; i++ {
			row := grad.Row(i)
			// Normalize each sample's attribution to unit L1 mass:
			// confidently-classified samples otherwise contribute
			// vanishing gradients, and the bytes that make an easy attack
			// kind easy would never rank.
			var mass float64
			for _, v := range row {
				mass += math.Abs(v)
			}
			if mass == 0 {
				continue
			}
			for j := range part {
				part[j] += math.Abs(row[j]) / mass
			}
		}
		for j, v := range part {
			scores[j] += v
		}
	}
	// Aggregate bit scores back to byte offsets.
	byteScores := make([]float64, packet.HeaderWindow)
	for off := 0; off < packet.HeaderWindow; off++ {
		for bit := 0; bit < 8; bit++ {
			byteScores[off] += scores[off*8+bit]
		}
	}
	return topK(byteScores, k), nil
}

// MutualInfoSelector ranks bytes by mutual information between the exact
// byte value and the binary label.
type MutualInfoSelector struct{}

var _ Selector = MutualInfoSelector{}

// Name implements Selector.
func (MutualInfoSelector) Name() string { return "mutual-info" }

// Select implements Selector.
func (MutualInfoSelector) Select(ds *trace.Dataset, k int) ([]int, error) {
	if err := validate(ds, k); err != nil {
		return nil, err
	}
	const bins = 256
	n := float64(ds.Len())
	labels := ds.BinaryLabels()
	scores := make([]float64, packet.HeaderWindow)
	var classCounts [2]float64
	for _, y := range labels {
		classCounts[y]++
	}
	for off := 0; off < packet.HeaderWindow; off++ {
		var joint [bins][2]float64
		var binCounts [bins]float64
		for i, smp := range ds.Samples {
			b := int(smp.Pkt.ByteAt(off))
			joint[b][labels[i]]++
			binCounts[b]++
		}
		var mi float64
		for b := 0; b < bins; b++ {
			for y := 0; y < 2; y++ {
				pxy := joint[b][y] / n
				if pxy == 0 {
					continue
				}
				px := binCounts[b] / n
				py := classCounts[y] / n
				mi += pxy * math.Log(pxy/(px*py))
			}
		}
		scores[off] = mi
	}
	return topK(scores, k), nil
}

// ChiSquareSelector ranks bytes by the chi-square statistic of the exact
// byte value against the binary label.
type ChiSquareSelector struct{}

var _ Selector = ChiSquareSelector{}

// Name implements Selector.
func (ChiSquareSelector) Name() string { return "chi-square" }

// Select implements Selector.
func (ChiSquareSelector) Select(ds *trace.Dataset, k int) ([]int, error) {
	if err := validate(ds, k); err != nil {
		return nil, err
	}
	const bins = 256
	n := float64(ds.Len())
	labels := ds.BinaryLabels()
	var classCounts [2]float64
	for _, y := range labels {
		classCounts[y]++
	}
	scores := make([]float64, packet.HeaderWindow)
	for off := 0; off < packet.HeaderWindow; off++ {
		var joint [bins][2]float64
		var binCounts [bins]float64
		for i, smp := range ds.Samples {
			b := int(smp.Pkt.ByteAt(off))
			joint[b][labels[i]]++
			binCounts[b]++
		}
		var chi2 float64
		for b := 0; b < bins; b++ {
			if binCounts[b] == 0 {
				continue
			}
			for y := 0; y < 2; y++ {
				expected := binCounts[b] * classCounts[y] / n
				if expected == 0 {
					continue
				}
				d := joint[b][y] - expected
				chi2 += d * d / expected
			}
		}
		scores[off] = chi2
	}
	return topK(scores, k), nil
}

// RandomSelector picks k distinct offsets uniformly — the lower bound any
// learned selector must beat.
type RandomSelector struct {
	Seed int64
}

var _ Selector = RandomSelector{}

// Name implements Selector.
func (RandomSelector) Name() string { return "random" }

// Select implements Selector.
func (s RandomSelector) Select(ds *trace.Dataset, k int) ([]int, error) {
	if err := validate(ds, k); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	return rng.Perm(packet.HeaderWindow)[:k], nil
}

// FiveTupleSelector is the hand-crafted SDN baseline: the classical
// 5-tuple bytes (or the closest analogue on non-IP links), truncated or
// padded to k by falling back to mutual information for extra slots.
type FiveTupleSelector struct{}

var _ Selector = FiveTupleSelector{}

// Name implements Selector.
func (FiveTupleSelector) Name() string { return "five-tuple" }

// Select implements Selector.
func (FiveTupleSelector) Select(ds *trace.Dataset, k int) ([]int, error) {
	if err := validate(ds, k); err != nil {
		return nil, err
	}
	offs := packet.FiveTupleOffsets(ds.Link)
	if len(offs) >= k {
		return offs[:k], nil
	}
	// Pad with MI-ranked extras not already chosen.
	extra, err := MutualInfoSelector{}.Select(ds, packet.HeaderWindow)
	if err != nil {
		return nil, err
	}
	chosen := make(map[int]bool, len(offs))
	out := append([]int(nil), offs...)
	for _, o := range offs {
		chosen[o] = true
	}
	for _, o := range extra {
		if len(out) >= k {
			break
		}
		if !chosen[o] {
			out = append(out, o)
			chosen[o] = true
		}
	}
	return out, nil
}

// All returns every selector with the given seed, deep-learning strategies
// first.
func All(seed int64) []Selector {
	return []Selector{
		&SaliencySelector{Seed: seed},
		&AutoencoderSelector{Config: autoenc.Config{Seed: seed}},
		MutualInfoSelector{},
		ChiSquareSelector{},
		RandomSelector{Seed: seed},
		FiveTupleSelector{},
	}
}
