package p4guard

import (
	"fmt"

	"p4guard/internal/baseline"
	"p4guard/internal/tensor"
	"p4guard/internal/trace"
)

// tensorRow wraps a single feature row as a 1×n matrix.
func tensorRow(row []float64) *tensor.Matrix {
	return &tensor.Matrix{Rows: 1, Cols: len(row), Data: row}
}

// Detector adapts the two-stage pipeline to the common Detector interface
// the evaluation harness runs every method through.
type Detector struct {
	Config Config
	pipe   *Pipeline
}

var (
	_ baseline.Detector    = (*Detector)(nil)
	_ baseline.TableCoster = (*Detector)(nil)
)

// NewDetector returns an untrained two-stage detector.
func NewDetector(cfg Config) *Detector { return &Detector{Config: cfg} }

// Name implements baseline.Detector.
func (d *Detector) Name() string { return "two-stage" }

// Fit implements baseline.Detector.
func (d *Detector) Fit(train *trace.Dataset) error {
	pipe, err := Train(train, d.Config)
	if err != nil {
		return err
	}
	d.pipe = pipe
	return nil
}

// Predict implements baseline.Detector (data-plane semantics).
func (d *Detector) Predict(test *trace.Dataset) ([]int, error) {
	if d.pipe == nil {
		return nil, fmt.Errorf("p4guard: %s not fitted", d.Name())
	}
	return d.pipe.Predict(test)
}

// TableCost implements baseline.TableCoster.
func (d *Detector) TableCost() (int, int) {
	if d.pipe == nil {
		return -1, -1
	}
	return d.pipe.TableCost()
}

// Pipeline returns the trained pipeline (nil before Fit).
func (d *Detector) Pipeline() *Pipeline { return d.pipe }
