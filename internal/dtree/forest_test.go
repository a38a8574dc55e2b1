package dtree

import (
	"math/rand"
	"testing"
)

func TestForestLearnsRule(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs, ys := synthData(rng, 2000)
	f, err := TrainForest(xs, ys, 2, ForestConfig{Trees: 11, FeatureFrac: 0.8, Seed: 1,
		Tree: Config{MaxDepth: 6}})
	if err != nil {
		t.Fatal(err)
	}
	testX, testY := synthData(rng, 600)
	correct := 0
	for i, x := range testX {
		if f.Predict(x) == testY[i] {
			correct++
		}
	}
	if acc := float64(correct) / 600; acc < 0.95 {
		t.Fatalf("forest accuracy %.3f < 0.95", acc)
	}
}

func TestForestValidation(t *testing.T) {
	if _, err := TrainForest(nil, nil, 2, ForestConfig{}); err == nil {
		t.Fatal("accepted empty set")
	}
	if _, err := TrainForest([][]byte{{1}}, []int{0, 1}, 2, ForestConfig{}); err == nil {
		t.Fatal("accepted mismatched lengths")
	}
}

func TestForestDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	xs, ys := synthData(rng, 400)
	a, err := TrainForest(xs, ys, 2, ForestConfig{Trees: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainForest(xs, ys, 2, ForestConfig{Trees: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	probe := make([]byte, 3)
	for i := 0; i < 200; i++ {
		rng.Read(probe)
		if a.Predict(probe) != b.Predict(probe) {
			t.Fatal("forests with equal seeds disagree")
		}
	}
}

func TestForestShortKey(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	xs, ys := synthData(rng, 300)
	f, err := TrainForest(xs, ys, 2, ForestConfig{Trees: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Keys shorter than the feature space read as zero; must not panic.
	_ = f.Predict([]byte{1})
	_ = f.Predict(nil)
}
