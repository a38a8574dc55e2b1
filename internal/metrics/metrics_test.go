package metrics

import (
	"math"
	"testing"
)

func TestConfusionCounts(t *testing.T) {
	var c Confusion
	c.Observe(true, true)   // TP
	c.Observe(true, false)  // FP
	c.Observe(false, true)  // FN
	c.Observe(false, false) // TN
	c.Observe(true, true)   // TP
	if c.TP != 2 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("counts: %+v", c)
	}
	if c.Total() != 5 {
		t.Fatalf("total %d", c.Total())
	}
	if got := c.Accuracy(); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("accuracy %v", got)
	}
	if got := c.Precision(); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("precision %v", got)
	}
	if got := c.Recall(); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("recall %v", got)
	}
	if got := c.F1(); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("f1 %v", got)
	}
	if got := c.FPR(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("fpr %v", got)
	}
	if c.String() == "" {
		t.Fatal("empty String")
	}
}

func TestConfusionZeroDivision(t *testing.T) {
	var c Confusion
	if c.Accuracy() != 0 || c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 || c.FPR() != 0 {
		t.Fatal("empty confusion should yield zeros")
	}
}

func TestFromPredictions(t *testing.T) {
	c, err := FromPredictions([]int{1, 0, 1, 0}, []int{1, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.TP != 1 || c.TN != 1 || c.FP != 1 || c.FN != 1 {
		t.Fatalf("counts %+v", c)
	}
	if _, err := FromPredictions([]int{1}, []int{1, 0}); err == nil {
		t.Fatal("accepted mismatched lengths")
	}
}
