// Package metrics computes binary-detection quality metrics: confusion
// matrices, accuracy/precision/recall/F1 and false-positive rate.
package metrics

import "fmt"

// Confusion is a binary confusion matrix with attack as the positive class.
type Confusion struct {
	TP, FP, TN, FN int
}

// Observe accumulates one prediction (true when attack).
func (c *Confusion) Observe(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && actual:
		c.FN++
	default:
		c.TN++
	}
}

// Total returns the number of observations.
func (c *Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Accuracy returns (TP+TN)/total, or 0 when empty.
func (c *Confusion) Accuracy() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}

// Precision returns TP/(TP+FP), or 0 when no positives were predicted.
func (c *Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0 when no positives exist.
func (c *Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c *Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// FPR returns FP/(FP+TN), or 0 when no negatives exist.
func (c *Confusion) FPR() float64 {
	if c.FP+c.TN == 0 {
		return 0
	}
	return float64(c.FP) / float64(c.FP+c.TN)
}

// String renders the matrix compactly.
func (c *Confusion) String() string {
	return fmt.Sprintf("tp=%d fp=%d tn=%d fn=%d acc=%.4f prec=%.4f rec=%.4f f1=%.4f fpr=%.4f",
		c.TP, c.FP, c.TN, c.FN, c.Accuracy(), c.Precision(), c.Recall(), c.F1(), c.FPR())
}

// FromPredictions builds a confusion matrix from aligned prediction and
// truth slices (non-zero = attack).
func FromPredictions(pred, truth []int) (*Confusion, error) {
	if len(pred) != len(truth) {
		return nil, fmt.Errorf("metrics: %d predictions vs %d truths", len(pred), len(truth))
	}
	var c Confusion
	for i := range pred {
		c.Observe(pred[i] != 0, truth[i] != 0)
	}
	return &c, nil
}
