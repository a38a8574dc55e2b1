package p4guard_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
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

// TestTrainBytesPinned pins what TestTrainSameSeedByteIdentical only
// holds steady: the SHA-256 of the saved pipeline, binary and multi-class,
// for that test's trace and seed. A kernel or optimizer change that moves
// every run the same way keeps training repeatable but fails here: such
// a change must leave the constants as they are, and a new constant is a
// new model, not a refreshed golden.
func TestTrainBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("pinned on amd64; on %s the compiler may fuse multiply-add, which rounds differently", runtime.GOARCH)
	}
	ds, err := p4guard.GenerateTrace("wifi-mqtt", p4guard.TraceConfig{Seed: 5, Packets: 400})
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := ds.Split(0.7)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		multiClass bool
		sha256     string
	}{
		{false, "1f01c2b7f257b7fb5c2e510a0552dbb3e252137a73ed21a9fb15881789c8a19e"},
		{true, "2f2f9e2da11225bd1144f0e3ef0c7600e83ebed20f6bb7a71d813e2fa14920ec"},
	} {
		pipe, err := p4guard.Train(train, p4guard.Config{Seed: 5, NumFields: 5, MLPEpochs: 6, MultiClass: c.multiClass})
		if err != nil {
			t.Fatalf("multiclass=%v: %v", c.multiClass, err)
		}
		var buf bytes.Buffer
		if err := pipe.Save(&buf); err != nil {
			t.Fatalf("multiclass=%v save: %v", c.multiClass, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.sha256 {
			t.Errorf("multiclass=%v: saved pipeline sha256 %s, pinned %s", c.multiClass, got, c.sha256)
		}
	}
}
