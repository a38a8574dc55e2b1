package p4guard

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
)

func TestPipelineSaveLoadRoundTrip(t *testing.T) {
	train, test := trainTest(t, "wifi-mqtt", 1000)
	pipe, err := Train(train, Config{Seed: 9, NumFields: 6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pipe.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPipeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Link != pipe.Link || len(loaded.Offsets) != len(pipe.Offsets) {
		t.Fatalf("loaded meta = %v/%v", loaded.Link, loaded.Offsets)
	}
	// Rule-set decisions must be identical.
	want, err := pipe.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("prediction %d differs after reload", i)
		}
	}
	// Slow-path decisions must be identical too.
	for i := 0; i < 50 && i < test.Len(); i++ {
		p := test.Samples[i].Pkt
		if pipe.ClassifySlowPath(p) != loaded.ClassifySlowPath(p) {
			t.Fatalf("slow-path decision %d differs after reload", i)
		}
	}
}

func TestSerializeMultiClassRoundTrip(t *testing.T) {
	train, test := trainTest(t, "wifi-mqtt", 1200)
	pipe, err := Train(train, Config{Seed: 13, NumFields: 6, MultiClass: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pipe.ClassNames) <= 2 {
		t.Fatalf("multi-class pipeline trained only %d classes", len(pipe.ClassNames))
	}
	loaded := saveLoad(t, pipe)

	if len(loaded.ClassNames) != len(pipe.ClassNames) {
		t.Fatalf("class names: got %v, want %v", loaded.ClassNames, pipe.ClassNames)
	}
	for i := range pipe.ClassNames {
		if loaded.ClassNames[i] != pipe.ClassNames[i] {
			t.Fatalf("class names: got %v, want %v", loaded.ClassNames, pipe.ClassNames)
		}
	}
	for i := range pipe.Offsets {
		if loaded.Offsets[i] != pipe.Offsets[i] {
			t.Fatalf("offsets: got %v, want %v", loaded.Offsets, pipe.Offsets)
		}
	}

	// The recompiled rule set must carry the same per-rule classes.
	rsWant, rsGot := pipe.RuleSet(), loaded.RuleSet()
	if len(rsGot.Rules) != len(rsWant.Rules) {
		t.Fatalf("rule count: got %d, want %d", len(rsGot.Rules), len(rsWant.Rules))
	}
	for i := range rsWant.Rules {
		if rsGot.Rules[i].Class != rsWant.Rules[i].Class {
			t.Fatalf("rule %d class: got %d, want %d", i, rsGot.Rules[i].Class, rsWant.Rules[i].Class)
		}
	}

	// Per-class predictions and the compiled matcher must be identical.
	want, err := pipe.PredictMulti(test)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.PredictMulti(test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("multi-class prediction %d differs after reload: got %d, want %d", i, got[i], want[i])
		}
	}
	for _, s := range test.Samples {
		wc, wm := pipe.Matcher().Classify(s.Pkt)
		gc, gm := loaded.Matcher().Classify(s.Pkt)
		if wc != gc || wm != gm {
			t.Fatalf("matcher disagrees after reload: got (%d,%v), want (%d,%v)", gc, gm, wc, wm)
		}
	}
}

func TestSaveUntrainedFails(t *testing.T) {
	var p Pipeline
	var buf bytes.Buffer
	if err := p.Save(&buf); err == nil {
		t.Fatal("saved untrained pipeline")
	}
}

// TestLoadRefusesNetOfAnotherWidth splices a 4-field pipeline's MLP into
// a 6-field snapshot: the load must fail and name both widths, where it
// used to succeed with a slow path that called every packet class 0.
func TestLoadRefusesNetOfAnotherWidth(t *testing.T) {
	train, _ := trainTest(t, "wifi-mqtt", 600)
	snaps := make([]pipelineSnap, 2)
	for i, fields := range []int{4, 6} {
		pipe, err := Train(train, Config{Seed: 9, NumFields: fields, MLPEpochs: 2})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := pipe.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if err := gob.NewDecoder(&buf).Decode(&snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	snaps[1].Net = snaps[0].Net
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snaps[1]); err != nil {
		t.Fatal(err)
	}
	_, err := LoadPipeline(&buf)
	if err == nil || !strings.Contains(err.Error(), "32") || !strings.Contains(err.Error(), "48") {
		t.Fatalf("a 32-bit MLP under 6 offsets loaded with err = %v, want one naming 32 and 48", err)
	}
}

func TestLoadGarbageFails(t *testing.T) {
	if _, err := LoadPipeline(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("loaded garbage")
	}
}
