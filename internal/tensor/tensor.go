// Package tensor provides small dense linear-algebra primitives used by the
// from-scratch neural-network stack. Matrices are row-major float64 with flat
// backing storage; all operations are deterministic given a seeded rand.Rand.
package tensor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrShape is returned (wrapped) when operand shapes are incompatible.
var ErrShape = errors.New("tensor: shape mismatch")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows int
	Cols int
	Data []float64 // len == Rows*Cols
}

// New returns a zero-initialized rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// RowView returns a view of rows [lo, hi) sharing m's backing storage —
// mutations through the view are visible in m.
func (m *Matrix) RowView(lo, hi int) *Matrix {
	if lo < 0 || hi < lo || hi > m.Rows {
		panic(fmt.Sprintf("tensor: RowView [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: SetRow len %d != cols %d", len(v), m.Cols))
	}
	copy(m.Row(i), v)
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Zero sets every element to 0.
func (m *Matrix) Zero() { m.Fill(0) }

// Randomize fills m with uniform values in [-scale, scale).
func (m *Matrix) Randomize(rng *rand.Rand, scale float64) {
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
}

// GlorotInit fills m with the Glorot/Xavier uniform distribution for a layer
// with fanIn inputs and fanOut outputs.
func (m *Matrix) GlorotInit(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	m.Randomize(rng, limit)
}

// AddRowVector adds vector v to every row of m in place.
func (m *Matrix) AddRowVector(v []float64) error {
	if len(v) != m.Cols {
		return fmt.Errorf("tensor: AddRowVector len %d != cols %d: %w", len(v), m.Cols, ErrShape)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, b := range v {
			row[j] += b
		}
	}
	return nil
}

// ColSumsInto writes the per-column sums of m into dst, which must have
// length m.Cols.
func (m *Matrix) ColSumsInto(dst []float64) error {
	if len(dst) != m.Cols {
		return fmt.Errorf("tensor: ColSumsInto len %d != cols %d: %w", len(dst), m.Cols, ErrShape)
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst[j] += v
		}
	}
	return nil
}

// Scale multiplies every element by s.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddScaled adds s·other to m in place.
func (m *Matrix) AddScaled(other *Matrix, s float64) error {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return fmt.Errorf("tensor: AddScaled %dx%d vs %dx%d: %w",
			m.Rows, m.Cols, other.Rows, other.Cols, ErrShape)
	}
	for i, v := range other.Data {
		m.Data[i] += s * v
	}
	return nil
}

// Argmax returns the index of the largest value in v (first on ties), or
// -1 when v is empty — callers must treat a negative index as "no class".
func Argmax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// Softmax writes the softmax of src into dst (may alias). It is numerically
// stabilized by max subtraction. Empty input is the explicit degenerate
// case: the empty distribution, written as no output at all.
func Softmax(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: softmax len %d != %d", len(dst), len(src)))
	}
	if len(src) == 0 {
		return
	}
	maxv := src[0]
	for _, v := range src[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range src {
		e := math.Exp(v - maxv)
		dst[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
}
