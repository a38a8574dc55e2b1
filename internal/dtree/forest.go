package dtree

import (
	"fmt"
	"math/rand"
)

// ForestConfig controls random-forest training.
type ForestConfig struct {
	// Trees is the ensemble size (default 15).
	Trees int
	// Tree configures each member; MaxDepth defaults as in Config.
	Tree Config
	// FeatureFrac is the fraction of features sampled per tree
	// (default 0.5).
	FeatureFrac float64
	// Seed drives bootstrap and feature sampling.
	Seed int64
}

func (c ForestConfig) withDefaults() ForestConfig {
	if c.Trees <= 0 {
		c.Trees = 15
	}
	if c.FeatureFrac <= 0 || c.FeatureFrac > 1 {
		c.FeatureFrac = 0.5
	}
	return c
}

// Forest is a bagged ensemble of CART trees, each trained on a bootstrap
// sample restricted to a random feature subspace.
type Forest struct {
	Trees      []*Tree
	Features   [][]int // feature indices each tree was trained on
	NumClasses int
}

// TrainForest fits a random forest on byte-vector features.
func TrainForest(xs [][]byte, ys []int, numClasses int, cfg ForestConfig) (*Forest, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("dtree: empty training set")
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("dtree: %d samples vs %d labels", len(xs), len(ys))
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	width := len(xs[0])
	nFeat := int(float64(width) * cfg.FeatureFrac)
	if nFeat < 1 {
		nFeat = 1
	}

	f := &Forest{
		Trees:      make([]*Tree, 0, cfg.Trees),
		Features:   make([][]int, 0, cfg.Trees),
		NumClasses: numClasses,
	}
	for t := 0; t < cfg.Trees; t++ {
		feats := rng.Perm(width)[:nFeat]
		bx := make([][]byte, len(xs))
		by := make([]int, len(ys))
		for i := range bx {
			idx := rng.Intn(len(xs))
			row := make([]byte, nFeat)
			for j, fi := range feats {
				row[j] = xs[idx][fi]
			}
			bx[i] = row
			by[i] = ys[idx]
		}
		tree, err := Train(bx, by, numClasses, cfg.Tree)
		if err != nil {
			return nil, fmt.Errorf("dtree: forest member %d: %w", t, err)
		}
		f.Trees = append(f.Trees, tree)
		f.Features = append(f.Features, feats)
	}
	return f, nil
}

// Predict returns the majority vote over the ensemble (lowest class index
// on ties).
func (f *Forest) Predict(key []byte) int {
	votes := make([]int, f.NumClasses)
	sub := make([]byte, 0, 32)
	for t, tree := range f.Trees {
		sub = sub[:0]
		for _, fi := range f.Features[t] {
			var v byte
			if fi < len(key) {
				v = key[fi]
			}
			sub = append(sub, v)
		}
		votes[tree.Predict(sub)]++
	}
	best := 0
	for c := 1; c < len(votes); c++ {
		if votes[c] > votes[best] {
			best = c
		}
	}
	return best
}
