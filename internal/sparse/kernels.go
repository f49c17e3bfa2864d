package sparse

import "github.com/asynclinalg/asyrgs/internal/atomicfloat"

// Inner kernels of the solver hot loop: gather-dot (row · x), scatter-axpy
// (x += g·row) and contiguous axpy (dense multi-RHS row updates). The
// unrolled bodies keep 4 independent accumulators (8 when built with
// GOAMD64=v3, see kernels_v3.go) so the FMA/load chains overlap instead of
// serializing on one register. Unrolling changes the summation order, so
// results agree with the scalar reference loops of kernels_test.go to
// relative rounding bounds, not bitwise — those tests pin the bounds.
//
// The gather and scatter kernels are generic over the stored value type:
// float64, or float32 storage accumulated in float64. Each instantiation
// is compiled separately, so the float64 form converts nothing.
//
// Everything here is allocation-free: the warm-path zero-alloc regression
// tests run through these kernels.

// Value is the matrix value-storage type of the hot-loop kernels.
type Value interface{ float32 | float64 }

// KernelName identifies the build's kernel implementation for benchmark
// labels: "unroll4", or "unroll8-v3" under GOAMD64=v3.
func KernelName() string { return kernelName }

// --- gather dot: sum_k vals[k] * x[idx[k]] ---

// Dot returns Σ_k vals[k]·x[idx[k]], accumulated in float64.
func Dot[T Value](vals []T, idx []int, x []float64) float64 {
	n := len(vals)
	idx = idx[:n] // bounds-check hint
	var s0, s1, s2, s3 float64
	k := 0
	if kernelWide {
		var s4, s5, s6, s7 float64
		for ; k+8 <= n; k += 8 {
			s0 += float64(vals[k]) * x[idx[k]]
			s1 += float64(vals[k+1]) * x[idx[k+1]]
			s2 += float64(vals[k+2]) * x[idx[k+2]]
			s3 += float64(vals[k+3]) * x[idx[k+3]]
			s4 += float64(vals[k+4]) * x[idx[k+4]]
			s5 += float64(vals[k+5]) * x[idx[k+5]]
			s6 += float64(vals[k+6]) * x[idx[k+6]]
			s7 += float64(vals[k+7]) * x[idx[k+7]]
		}
		s0, s1, s2, s3 = s0+s4, s1+s5, s2+s6, s3+s7
	}
	for ; k+4 <= n; k += 4 {
		s0 += float64(vals[k]) * x[idx[k]]
		s1 += float64(vals[k+1]) * x[idx[k+1]]
		s2 += float64(vals[k+2]) * x[idx[k+2]]
		s3 += float64(vals[k+3]) * x[idx[k+3]]
	}
	for ; k < n; k++ {
		s0 += float64(vals[k]) * x[idx[k]]
	}
	return (s0 + s1) + (s2 + s3)
}

// DotAtomic is Dot with atomic (inconsistent-read) loads of x.
func DotAtomic[T Value](vals []T, idx []int, x []float64) float64 {
	n := len(vals)
	idx = idx[:n]
	var s0, s1, s2, s3 float64
	k := 0
	if kernelWide {
		var s4, s5, s6, s7 float64
		for ; k+8 <= n; k += 8 {
			s0 += float64(vals[k]) * atomicfloat.Load(&x[idx[k]])
			s1 += float64(vals[k+1]) * atomicfloat.Load(&x[idx[k+1]])
			s2 += float64(vals[k+2]) * atomicfloat.Load(&x[idx[k+2]])
			s3 += float64(vals[k+3]) * atomicfloat.Load(&x[idx[k+3]])
			s4 += float64(vals[k+4]) * atomicfloat.Load(&x[idx[k+4]])
			s5 += float64(vals[k+5]) * atomicfloat.Load(&x[idx[k+5]])
			s6 += float64(vals[k+6]) * atomicfloat.Load(&x[idx[k+6]])
			s7 += float64(vals[k+7]) * atomicfloat.Load(&x[idx[k+7]])
		}
		s0, s1, s2, s3 = s0+s4, s1+s5, s2+s6, s3+s7
	}
	for ; k+4 <= n; k += 4 {
		s0 += float64(vals[k]) * atomicfloat.Load(&x[idx[k]])
		s1 += float64(vals[k+1]) * atomicfloat.Load(&x[idx[k+1]])
		s2 += float64(vals[k+2]) * atomicfloat.Load(&x[idx[k+2]])
		s3 += float64(vals[k+3]) * atomicfloat.Load(&x[idx[k+3]])
	}
	for ; k < n; k++ {
		s0 += float64(vals[k]) * atomicfloat.Load(&x[idx[k]])
	}
	return (s0 + s1) + (s2 + s3)
}

// --- scatter axpy: x[idx[k]] += g * vals[k] (Kaczmarz row update) ---

// Scatter adds g·vals[k] into x[idx[k]]; idx must hold distinct entries.
func Scatter[T Value](x []float64, vals []T, idx []int, g float64) {
	n := len(vals)
	idx = idx[:n]
	k := 0
	// Rows are deduplicated (sortRowsAndDedup), so the four writes per
	// step never alias each other and can issue independently.
	for ; k+4 <= n; k += 4 {
		x[idx[k]] += g * float64(vals[k])
		x[idx[k+1]] += g * float64(vals[k+1])
		x[idx[k+2]] += g * float64(vals[k+2])
		x[idx[k+3]] += g * float64(vals[k+3])
	}
	for ; k < n; k++ {
		x[idx[k]] += g * float64(vals[k])
	}
}

// ScatterAtomic is the CAS-add variant for concurrent writers. The CAS
// loop serializes on memory anyway, so there is no unrolled form.
func ScatterAtomic[T Value](x []float64, vals []T, idx []int, g float64) {
	for k, v := range vals {
		atomicfloat.Add(&x[idx[k]], g*float64(v))
	}
}

// --- contiguous axpy: dst[i] += a * src[i] (dense multi-RHS row updates) ---

// Axpy adds a·src into dst elementwise over len(src) entries; dst must be
// at least that long. This is the streaming c-vector update at the heart
// of MulDense/MulDensePar and the batched dense sweeps.
func Axpy(dst, src []float64, a float64) {
	n := len(src)
	dst = dst[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += a * src[i]
		dst[i+1] += a * src[i+1]
		dst[i+2] += a * src[i+2]
		dst[i+3] += a * src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += a * src[i]
	}
}

// AxpyAtomicRead adds a·src into dst with atomic (inconsistent-read)
// loads of src; the stores to dst stay plain. Used by the asynchronous
// dense sweeps where src is the shared iterate block.
func AxpyAtomicRead(dst, src []float64, a float64) {
	n := len(src)
	dst = dst[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += a * atomicfloat.Load(&src[i])
		dst[i+1] += a * atomicfloat.Load(&src[i+1])
		dst[i+2] += a * atomicfloat.Load(&src[i+2])
		dst[i+3] += a * atomicfloat.Load(&src[i+3])
	}
	for ; i < n; i++ {
		dst[i] += a * atomicfloat.Load(&src[i])
	}
}

// View is compressed storage seen line by line — the rows of a CSR
// matrix or the columns of a CSC one — at one value precision. The
// coordinate engines pick the precision once, before their workers start,
// and run an update rule instantiated for that View type, so the inner
// loop never branches on precision.
type View[T Value] struct {
	Ptr  []int // line i spans Idx[Ptr[i]:Ptr[i+1]]
	Idx  []int
	Vals []T
}

// Line returns line i's indices and values.
func (v View[T]) Line(i int) ([]int, []T) {
	lo, hi := v.Ptr[i], v.Ptr[i+1]
	return v.Idx[lo:hi], v.Vals[lo:hi]
}

// View returns the row view of m.
func (m *CSR) View() View[float64] { return View[float64]{m.RowPtr, m.ColIdx, m.Vals} }

// View returns the row view of the float32-storage matrix.
func (m *CSR32) View() View[float32] { return View[float32]{m.RowPtr, m.ColIdx, m.Vals} }

// View returns the column view of c.
func (c *CSC) View() View[float64] { return View[float64]{c.ColPtr, c.RowIdx, c.Vals} }

// View returns the column view of the float32-storage matrix.
func (c *CSC32) View() View[float32] { return View[float32]{c.ColPtr, c.RowIdx, c.Vals} }
