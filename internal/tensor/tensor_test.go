package tensor

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("New(2,3) = %+v", m)
	}
	m.Set(1, 2, 7.5)
	if got := m.Row(1)[2]; got != 7.5 {
		t.Fatalf("Row(1)[2] = %v, want 7.5", got)
	}
}

func TestMatMul(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	b := &Matrix{Rows: 2, Cols: 2, Data: []float64{5, 6, 7, 8}}
	dst := New(2, 2)
	if err := MatMul(dst, a, b); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{19, 22, 43, 50} {
		if !almostEq(dst.Data[i], want) {
			t.Errorf("dst[%d][%d] = %v, want %v", i/2, i%2, dst.Data[i], want)
		}
	}
}

func TestMatMulShapeError(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	if err := MatMul(New(2, 3), a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("MatMul shape err = %v, want ErrShape", err)
	}
}

// TestMatMulVariants checks that ATB and ABT agree with explicit transposition
// through plain MatMul, on random matrices.
func TestMatMulVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	transpose := func(m *Matrix) *Matrix {
		tm := New(m.Cols, m.Rows)
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				tm.Set(j, i, m.Row(i)[j])
			}
		}
		return tm
	}
	for iter := 0; iter < 20; iter++ {
		n, k, m := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := New(n, k)
		a.Randomize(rng, 1)
		b := New(k, m)
		b.Randomize(rng, 1)

		// ATB: (kxn)ᵀ is built from aT.
		at := transpose(a)
		gotATB := New(n, m)
		if err := MatMulATB(gotATB, at, b); err != nil {
			t.Fatal(err)
		}
		want := New(n, m)
		if err := MatMul(want, a, b); err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if !almostEq(gotATB.Data[i], want.Data[i]) {
				t.Fatalf("iter %d: ATB mismatch at %d: %v vs %v", iter, i, gotATB.Data[i], want.Data[i])
			}
		}

		// ABT: b is given transposed.
		bt := transpose(b)
		gotABT := New(n, m)
		if err := MatMulABT(gotABT, a, bt); err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if !almostEq(gotABT.Data[i], want.Data[i]) {
				t.Fatalf("iter %d: ABT mismatch at %d: %v vs %v", iter, i, gotABT.Data[i], want.Data[i])
			}
		}
	}
}

func TestAddRowVectorAndColSums(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	if err := m.AddRowVector([]float64{10, 20}); err != nil {
		t.Fatal(err)
	}
	sums := make([]float64, 2)
	if err := m.ColSumsInto(sums); err != nil || !almostEq(sums[0], 24) || !almostEq(sums[1], 46) {
		t.Fatalf("ColSumsInto = %v, %v; want [24 46]", sums, err)
	}
	if err := m.AddRowVector([]float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("AddRowVector shape err = %v", err)
	}
}

func TestApplyScaleAddScaledHadamard(t *testing.T) {
	m := &Matrix{Rows: 1, Cols: 2, Data: []float64{1, -2}}
	m.Scale(3)
	if m.Data[0] != 3 || m.Data[1] != -6 {
		t.Fatalf("Scale: %v", m.Data)
	}
	other := &Matrix{Rows: 1, Cols: 2, Data: []float64{1, 1}}
	if err := m.AddScaled(other, 2); err != nil {
		t.Fatal(err)
	}
	if m.Data[0] != 5 || m.Data[1] != -4 {
		t.Fatalf("AddScaled: %v", m.Data)
	}
	if err := m.AddScaled(New(2, 2), 1); !errors.Is(err, ErrShape) {
		t.Fatalf("AddScaled shape err = %v", err)
	}
}

func TestArgmax(t *testing.T) {
	tests := []struct {
		in   []float64
		want int
	}{
		{[]float64{1}, 0},
		{[]float64{1, 3, 2}, 1},
		{[]float64{5, 5, 5}, 0}, // first on ties
		{[]float64{-3, -1, -2}, 1},
	}
	for _, tt := range tests {
		if got := Argmax(tt.in); got != tt.want {
			t.Errorf("Argmax(%v) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		src := make([]float64, len(raw))
		for i, v := range raw {
			// Clamp to keep exp finite but exercise stabilization.
			src[i] = math.Mod(v, 50)
			if math.IsNaN(src[i]) {
				src[i] = 0
			}
		}
		dst := make([]float64, len(src))
		Softmax(dst, src)
		var sum float64
		for _, v := range dst {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxLargeValuesStable(t *testing.T) {
	src := []float64{1000, 1001, 999}
	dst := make([]float64, 3)
	Softmax(dst, src)
	for _, v := range dst {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax unstable: %v", dst)
		}
	}
	if Argmax(dst) != 1 {
		t.Fatalf("softmax argmax = %d, want 1", Argmax(dst))
	}
}

func TestGlorotInitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New(10, 10)
	m.GlorotInit(rng, 100, 100)
	limit := math.Sqrt(6.0 / 200.0)
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("glorot value %v exceeds limit %v", v, limit)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := &Matrix{Rows: 1, Cols: 2, Data: []float64{1, 2}}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.Data[0] != 1 {
		t.Fatal("Clone aliases original storage")
	}
}

func TestSetRowPanicsOnBadLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetRow with wrong length did not panic")
		}
	}()
	New(1, 2).SetRow(0, []float64{1, 2, 3})
}
