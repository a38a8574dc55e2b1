package p4guard_test

import (
	"bytes"
	"testing"

	"p4guard"
)

// TestTrainSameSeedByteIdentical is the end-to-end determinism gate: the
// whole two-stage pipeline (saliency selection, classifier, distilled
// tree, compiled rules) is a function of the training set and the seed,
// so two runs on one seed serialize to the same bytes — and the seed is
// live, so a second seed does not.
func TestTrainSameSeedByteIdentical(t *testing.T) {
	ds, err := p4guard.GenerateTrace("wifi-mqtt", p4guard.TraceConfig{Seed: 5, Packets: 400})
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := ds.Split(0.7)
	if err != nil {
		t.Fatal(err)
	}

	saved := func(seed int64) []byte {
		t.Helper()
		pipe, err := p4guard.Train(train, p4guard.Config{Seed: seed, NumFields: 5, MLPEpochs: 6})
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		var buf bytes.Buffer
		if err := pipe.Save(&buf); err != nil {
			t.Fatalf("seed=%d save: %v", seed, err)
		}
		return buf.Bytes()
	}

	first := saved(5)
	if again := saved(5); !bytes.Equal(again, first) {
		t.Fatalf("two trainings on seed 5 differ (%d vs %d bytes)", len(again), len(first))
	}
	if other := saved(6); bytes.Equal(other, first) {
		t.Fatal("seeds 5 and 6 trained byte-identical pipelines: the seed is not reaching training")
	}
}
