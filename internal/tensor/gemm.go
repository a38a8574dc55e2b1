package tensor

import "fmt"

// Cache-blocked, register-tiled GEMM kernels, run on the calling
// goroutine.
//
// Determinism contract: for every output element the kernels perform the
// exact multiply-add sequence of the serial reference kernels
// (MatMul*Serial) — k ascending, identical zero-skips, one accumulator
// per element — so blocked and tiled results are bit-identical to the
// serial oracles. The differential tests in gemm_test.go enforce this.

// gemmBlockK is the k-panel width: matMulBlocked sweeps k in ascending
// panels this wide so the touched rows of b stay hot in cache while dst
// rows are revisited. Panel order is ascending, so per-element
// accumulation order is unchanged.
const gemmBlockK = 256

// MatMul computes dst = a × b. dst must be a.Rows×b.Cols and may not alias
// a or b. Bit-identical to MatMulSerial.
func MatMul(dst, a, b *Matrix) error {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		return fmt.Errorf("tensor: matmul (%dx%d)·(%dx%d)->(%dx%d): %w",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols, ErrShape)
	}
	matMulBlocked(dst, a, b)
	return nil
}

// MatMulATB computes dst = aᵀ × b. dst must be a.Cols×b.Cols and may not
// alias a or b. Bit-identical to MatMulATBSerial.
func MatMulATB(dst, a, b *Matrix) error {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		return fmt.Errorf("tensor: matmulATB (%dx%d)ᵀ·(%dx%d)->(%dx%d): %w",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols, ErrShape)
	}
	matMulATBBlocked(dst, a, b)
	return nil
}

// MatMulABT computes dst = a × bᵀ. dst must be a.Rows×b.Rows and may not
// alias a or b. Bit-identical to MatMulABTSerial.
func MatMulABT(dst, a, b *Matrix) error {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		return fmt.Errorf("tensor: matmulABT (%dx%d)·(%dx%d)ᵀ->(%dx%d): %w",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols, ErrShape)
	}
	matMulABTBlocked(dst, a, b)
	return nil
}

// matMulBlocked computes dst = a × b: register-tiled two rows at a time so
// each streamed row of b is reused, k swept in ascending cache panels.
func matMulBlocked(dst, a, b *Matrix) {
	n, k, m := a.Rows, a.Cols, b.Cols
	clear(dst.Data)
	if m == 0 {
		return
	}
	for k0 := 0; k0 < k; k0 += gemmBlockK {
		k1 := k0 + gemmBlockK
		if k1 > k {
			k1 = k
		}
		i := 0
		for ; i+1 < n; i += 2 {
			arow0 := a.Data[i*k : (i+1)*k]
			arow1 := a.Data[(i+1)*k : (i+2)*k]
			d0 := dst.Data[i*m : (i+1)*m]
			d1 := dst.Data[(i+1)*m : (i+2)*m]
			for kk := k0; kk < k1; kk++ {
				av0, av1 := arow0[kk], arow1[kk]
				if av0 == 0 && av1 == 0 {
					continue
				}
				brow := b.Data[kk*m : (kk+1)*m]
				switch {
				case av0 != 0 && av1 != 0:
					axpy2(d0, d1, brow, av0, av1)
				case av0 != 0:
					axpy(d0, brow, av0)
				default:
					axpy(d1, brow, av1)
				}
			}
		}
		if i < n {
			arow := a.Data[i*k : (i+1)*k]
			drow := dst.Data[i*m : (i+1)*m]
			for kk := k0; kk < k1; kk++ {
				if av := arow[kk]; av != 0 {
					axpy(drow, b.Data[kk*m:(kk+1)*m], av)
				}
			}
		}
	}
}

// matMulATBBlocked computes dst = aᵀ × b (dst row i is column i of a
// against all of b), two dst rows at a time so each streamed row of b is
// reused across both.
func matMulATBBlocked(dst, a, b *Matrix) {
	n, ac, m := a.Rows, a.Cols, b.Cols
	clear(dst.Data)
	if m == 0 {
		return
	}
	i := 0
	for ; i+1 < ac; i += 2 {
		d0 := dst.Data[i*m : (i+1)*m]
		d1 := dst.Data[(i+1)*m : (i+2)*m]
		for kk := 0; kk < n; kk++ {
			av0 := a.Data[kk*ac+i]
			av1 := a.Data[kk*ac+i+1]
			if av0 == 0 && av1 == 0 {
				continue
			}
			brow := b.Data[kk*m : (kk+1)*m]
			switch {
			case av0 != 0 && av1 != 0:
				axpy2(d0, d1, brow, av0, av1)
			case av0 != 0:
				axpy(d0, brow, av0)
			default:
				axpy(d1, brow, av1)
			}
		}
	}
	if i < ac {
		drow := dst.Data[i*m : (i+1)*m]
		for kk := 0; kk < n; kk++ {
			if av := a.Data[kk*ac+i]; av != 0 {
				axpy(drow, b.Data[kk*m:(kk+1)*m], av)
			}
		}
	}
}

// matMulABTBlocked computes dst = a × bᵀ on a 2×4 register tile: two rows
// of a against four rows of b, eight independent accumulators, each a
// dot product over k ascending with no zero-skip — the serial oracle's
// exact operations per element. Eight independent chains keep the FP
// units busy where two would wait on each add. The m%4 columns left over
// and the last row of an odd row count are single dot products.
func matMulABTBlocked(dst, a, b *Matrix) {
	n, k, m := a.Rows, a.Cols, b.Rows
	i := 0
	for ; i+1 < n; i += 2 {
		a0 := a.Data[i*k : (i+1)*k]
		a1 := a.Data[(i+1)*k : (i+2)*k]
		d0 := dst.Data[i*m : (i+1)*m]
		d1 := dst.Data[(i+1)*m : (i+2)*m]
		j := 0
		for ; j+3 < m; j += 4 {
			d0[j], d0[j+1], d0[j+2], d0[j+3],
				d1[j], d1[j+1], d1[j+2], d1[j+3] = dot2x4(a0, a1, b.Data[j*k:(j+4)*k])
		}
		for ; j < m; j++ {
			brow := b.Data[j*k : (j+1)*k]
			d0[j], d1[j] = dot(a0, brow), dot(a1, brow)
		}
	}
	if i < n {
		a0 := a.Data[i*k : (i+1)*k]
		d0 := dst.Data[i*m : (i+1)*m]
		for j := range d0 {
			d0[j] = dot(a0, b.Data[j*k:(j+1)*k])
		}
	}
}

// dot2x4 returns the eight dot products of rows a0 and a1 against the four
// consecutive rows of length len(a0) packed in b4.
func dot2x4(a0, a1, b4 []float64) (s00, s01, s02, s03, s10, s11, s12, s13 float64) {
	k := len(a0)
	a1 = a1[:k]
	b0, b1, b2, b3 := b4[:k], b4[k:][:k], b4[2*k:][:k], b4[3*k:][:k]
	for kk, x0 := range a0 {
		x1 := a1[kk]
		y := b0[kk]
		s00 += x0 * y
		s10 += x1 * y
		y = b1[kk]
		s01 += x0 * y
		s11 += x1 * y
		y = b2[kk]
		s02 += x0 * y
		s12 += x1 * y
		y = b3[kk]
		s03 += x0 * y
		s13 += x1 * y
	}
	return
}

// dot returns the dot product of a0 and b0, k ascending.
func dot(a0, b0 []float64) (s float64) {
	b0 = b0[:len(a0)]
	for kk, x := range a0 {
		s += x * b0[kk]
	}
	return
}

// axpy computes d += s·x element-wise, 4-wide unrolled. Updates are in
// ascending index order, so per-element accumulation order is unchanged.
func axpy(d, x []float64, s float64) {
	x = x[:len(d)]
	j := 0
	for ; j+4 <= len(d); j += 4 {
		d[j] += s * x[j]
		d[j+1] += s * x[j+1]
		d[j+2] += s * x[j+2]
		d[j+3] += s * x[j+3]
	}
	for ; j < len(d); j++ {
		d[j] += s * x[j]
	}
}

// axpy2 computes d0 += s0·x and d1 += s1·x in one pass over x.
func axpy2(d0, d1, x []float64, s0, s1 float64) {
	x = x[:len(d0)]
	d1 = d1[:len(d0)]
	j := 0
	for ; j+2 <= len(d0); j += 2 {
		x0, x1 := x[j], x[j+1]
		d0[j] += s0 * x0
		d0[j+1] += s0 * x1
		d1[j] += s1 * x0
		d1[j+1] += s1 * x1
	}
	for ; j < len(d0); j++ {
		d0[j] += s0 * x[j]
		d1[j] += s1 * x[j]
	}
}

// MatMulSerial is the original scalar triple-loop kernel for dst = a × b,
// kept as the reference oracle the blocked kernel is differentially
// tested against.
func MatMulSerial(dst, a, b *Matrix) error {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		return fmt.Errorf("tensor: matmul (%dx%d)·(%dx%d)->(%dx%d): %w",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols, ErrShape)
	}
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
	return nil
}

// MatMulATBSerial is the original scalar kernel for dst = aᵀ × b, kept as
// the reference oracle.
func MatMulATBSerial(dst, a, b *Matrix) error {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		return fmt.Errorf("tensor: matmulATB (%dx%d)ᵀ·(%dx%d)->(%dx%d): %w",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols, ErrShape)
	}
	dst.Zero()
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*b.Cols : (k+1)*b.Cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
	return nil
}

// MatMulABTSerial is the original scalar kernel for dst = a × bᵀ, kept as
// the reference oracle.
func MatMulABTSerial(dst, a, b *Matrix) error {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		return fmt.Errorf("tensor: matmulABT (%dx%d)·(%dx%d)ᵀ->(%dx%d): %w",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols, ErrShape)
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			var sum float64
			for k, av := range arow {
				sum += av * brow[k]
			}
			drow[j] = sum
		}
	}
	return nil
}
