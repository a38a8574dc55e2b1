package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fillRandomSparse fills m with uniform values, forcing a fraction of
// exact zeros, +0 and -0 alike, so the kernels' zero-skip paths and the
// sign of a zero sum are exercised.
func fillRandomSparse(rng *rand.Rand, m *Matrix) {
	for i := range m.Data {
		switch rng.Intn(8) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = math.Copysign(0, -1)
		default:
			m.Data[i] = rng.Float64()*2 - 1
		}
	}
}

// sameBits reports whether got and want hold the same float64 bit
// patterns: unlike ==, it tells -0 from +0.
func sameBits(got, want []float64) (int, bool) {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i, false
		}
	}
	return -1, true
}

type gemmCase struct {
	name    string
	blocked func(dst, a, b *Matrix) error
	serial  func(dst, a, b *Matrix) error
	// shape maps (n, k, m) to the operand and dst shapes.
	shape func(n, k, m int) (ar, ac, br, bc, dr, dc int)
}

func gemmCases() []gemmCase {
	return []gemmCase{
		{"MatMul", MatMul, MatMulSerial,
			func(n, k, m int) (int, int, int, int, int, int) { return n, k, k, m, n, m }},
		{"MatMulATB", MatMulATB, MatMulATBSerial,
			func(n, k, m int) (int, int, int, int, int, int) { return k, n, k, m, n, m }},
		{"MatMulABT", MatMulABT, MatMulABTSerial,
			func(n, k, m int) (int, int, int, int, int, int) { return n, k, m, k, n, m }},
	}
}

// TestBlockedKernelsBitIdenticalToSerialOracles is the differential gate:
// across odd shapes (1×N, N×1, primes, odd row counts that leave a
// one-row tail after the two-row tiles, column counts that leave one to
// three after MatMulABT's four-wide tile, sizes straddling the k-panel)
// every blocked kernel must produce the bit patterns of its serial
// oracle, signed zeros included.
func TestBlockedKernelsBitIdenticalToSerialOracles(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {1, 7, 1}, {1, 1, 9}, {7, 1, 5},
		{1, 300, 4}, {300, 1, 4}, {5, 4, 1},
		{2, 3, 2}, {3, 3, 3}, {13, 17, 11},
		{64, 320, 48}, {31, 257, 33}, // straddles gemmBlockK
		{97, 259, 41}, {128, 512, 64}, // two and three k-panels
		{64, 48, 512},         // the attribution product's ABT shape
		{3, 48, 5}, {1, 5, 7}, // odd rows; m%4 = 1 and 3 ({2, 3, 2} leaves 2)
	}
	rng := rand.New(rand.NewSource(101))
	for _, c := range gemmCases() {
		for _, s := range shapes {
			ar, ac, br, bc, dr, dc := c.shape(s[0], s[1], s[2])
			a, b := New(ar, ac), New(br, bc)
			fillRandomSparse(rng, a)
			fillRandomSparse(rng, b)
			got, want := New(dr, dc), New(dr, dc)
			if err := c.blocked(got, a, b); err != nil {
				t.Fatalf("%s %v: %v", c.name, s, err)
			}
			if err := c.serial(want, a, b); err != nil {
				t.Fatalf("%s %v oracle: %v", c.name, s, err)
			}
			if i, ok := sameBits(got.Data, want.Data); !ok {
				t.Fatalf("%s shape %v: elem %d = %v (%#x), oracle %v (%#x)", c.name, s, i,
					got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
			}
		}
	}
}

// TestKernelsSumSignedZerosLikeOracles makes every product a signed zero:
// one operand all -0, the other all +1 or all -1. The oracles start each
// sum at +0, and +0 + -0 is +0, so a kernel that starts a sum from its
// first product, or seeds a tail differently from the tiles, leaves -0
// where the oracle has +0. The shapes reach every tile and tail.
func TestKernelsSumSignedZerosLikeOracles(t *testing.T) {
	negZero := math.Copysign(0, -1)
	fill := func(m *Matrix, v float64) *Matrix {
		for i := range m.Data {
			m.Data[i] = v
		}
		return m
	}
	for _, c := range gemmCases() {
		for _, s := range [][3]int{{1, 1, 1}, {2, 1, 4}, {3, 2, 7}, {5, 3, 6}, {4, 1, 5}} {
			for _, v := range [][2]float64{{negZero, 1}, {negZero, -1}, {1, negZero}, {-1, negZero}} {
				ar, ac, br, bc, dr, dc := c.shape(s[0], s[1], s[2])
				a, b := fill(New(ar, ac), v[0]), fill(New(br, bc), v[1])
				got, want := New(dr, dc), New(dr, dc)
				if err := c.blocked(got, a, b); err != nil {
					t.Fatalf("%s %v: %v", c.name, s, err)
				}
				if err := c.serial(want, a, b); err != nil {
					t.Fatalf("%s %v oracle: %v", c.name, s, err)
				}
				if i, ok := sameBits(got.Data, want.Data); !ok {
					t.Fatalf("%s shape %v, operands %v: elem %d = %v, oracle %v",
						c.name, s, v, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestBlockedKernelsQuick fuzzes random shapes (including degenerate 0
// dimensions) against the oracles with testing/quick.
func TestBlockedKernelsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(n8, k8, m8 uint8) bool {
		n, k, m := int(n8%40), int(k8%70), int(m8%40)
		for _, c := range gemmCases() {
			ar, ac, br, bc, dr, dc := c.shape(n, k, m)
			a, b := New(ar, ac), New(br, bc)
			fillRandomSparse(rng, a)
			fillRandomSparse(rng, b)
			got, want := New(dr, dc), New(dr, dc)
			if err := c.blocked(got, a, b); err != nil {
				return false
			}
			if err := c.serial(want, a, b); err != nil {
				return false
			}
			if _, ok := sameBits(got.Data, want.Data); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelShapeErrors checks the blocked entry points reject mismatched
// operands exactly like the oracles.
func TestKernelShapeErrors(t *testing.T) {
	for _, c := range gemmCases() {
		if err := c.blocked(New(9, 9), New(2, 3), New(2, 3)); err == nil {
			t.Fatalf("%s accepted mismatched shapes", c.name)
		}
	}
}

// TestConcurrentKernelCalls drives simultaneous MatMuls on separate
// operands: the kernels hold no package state, so under -race this pins
// that callers on different goroutines never interfere, and each result
// must still match the oracle.
func TestConcurrentKernelCalls(t *testing.T) {
	const goroutines = 8
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			a, b := New(70, 80), New(80, 90)
			fillRandomSparse(rng, a)
			fillRandomSparse(rng, b)
			got, want := New(70, 90), New(70, 90)
			for iter := 0; iter < 30; iter++ {
				if err := MatMul(got, a, b); err != nil {
					done <- err
					return
				}
				if err := MatMulSerial(want, a, b); err != nil {
					done <- err
					return
				}
				if _, ok := sameBits(got.Data, want.Data); !ok {
					done <- errMismatch
					return
				}
			}
			done <- nil
		}(int64(g))
	}
	for g := 0; g < goroutines; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "blocked result diverged from serial oracle" }

func TestSoftmaxEmptyNoPanic(t *testing.T) {
	Softmax(nil, nil) // must not panic
	Softmax([]float64{}, []float64{})
}

func TestArgmaxEmptyReturnsNegative(t *testing.T) {
	if got := Argmax(nil); got != -1 {
		t.Fatalf("Argmax(nil) = %d, want -1", got)
	}
	if got := Argmax([]float64{}); got != -1 {
		t.Fatalf("Argmax(empty) = %d, want -1", got)
	}
}

func TestColSumsInto(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	dst := []float64{99, 99}
	if err := m.ColSumsInto(dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 4 || dst[1] != 6 {
		t.Fatalf("ColSumsInto = %v, want [4 6]", dst)
	}
	if err := m.ColSumsInto([]float64{1}); err == nil {
		t.Fatal("ColSumsInto accepted bad length")
	}
}
