package sparse

// Float32-value storage views. CSR32/CSC32 share the structure arrays
// (RowPtr/ColIdx resp. ColPtr/RowIdx) with the float64 original and store
// only the values rounded to float32, halving value-array memory
// bandwidth. All arithmetic accumulates in float64: because every float32
// is exactly representable in float64, the view is the *exact* float64
// matrix A32 = fl32(A), and iterations on it converge to the solution of
// A32·x = b. Relative to the original A the achievable residual is
// floored around √nnz·2⁻²⁴ (~1e-6 for typical rows) — the tolerance model
// the f32 conformance tests pin down.

// CSR32 is a float32-value view of a CSR matrix. RowPtr and ColIdx alias
// the parent; Vals is the rounded copy.
type CSR32 struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Vals       []float32
}

// NewCSR32 builds the float32-value view of m, sharing its index arrays.
func NewCSR32(m *CSR) *CSR32 {
	vals := make([]float32, len(m.Vals))
	for k, v := range m.Vals {
		vals[k] = float32(v)
	}
	return &CSR32{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Vals: vals}
}

// NNZ returns the number of stored entries.
func (m *CSR32) NNZ() int { return len(m.ColIdx) }

// ValueBytes returns the bytes held by the value array — 4·nnz, half the
// float64 storage the view replaces on the hot path.
func (m *CSR32) ValueBytes() int { return 4 * len(m.Vals) }

// RowDot returns A32_i · x with float64 accumulation.
func (m *CSR32) RowDot(i int, x []float64) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return Dot(m.Vals[lo:hi], m.ColIdx[lo:hi], x)
}

// MulVec computes y ← A32·x serially.
func (m *CSR32) MulVec(y, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic("sparse: CSR32 MulVec shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		y[i] = m.RowDot(i, x)
	}
}

// MulDensePar computes Y ← A32·X for row-major dense blocks (Y Rows×c,
// X Cols×c), mirroring CSR.MulDensePar.
func (m *CSR32) MulDensePar(ydata, xdata []float64, c, workers int, part Partition) {
	if c == 0 {
		return
	}
	if len(xdata) != m.Cols*c || len(ydata) != m.Rows*c {
		panic("sparse: CSR32 MulDensePar shape mismatch")
	}
	rowLoop := func(start, stride, limit int) {
		for i := start; i < limit; i += stride {
			yrow := ydata[i*c : (i+1)*c]
			for j := range yrow {
				yrow[j] = 0
			}
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				xrow := xdata[m.ColIdx[k]*c : (m.ColIdx[k]+1)*c]
				Axpy(yrow, xrow, float64(m.Vals[k]))
			}
		}
	}
	runRowLoop(m.Rows, workers, part, rowLoop)
}

// BatchRelResiduals mirrors CSR.BatchRelResiduals on the f32 view:
// per-column ‖b−A32·x‖/‖b‖ (absolute when ‖b‖ = 0).
func (m *CSR32) BatchRelResiduals(bdata, xdata []float64, c, workers int) []float64 {
	ax := make([]float64, m.Rows*c)
	m.MulDensePar(ax, xdata, c, workers, PartitionContiguous)
	return batchRelFromAx(bdata, ax, m.Rows, c)
}

// CSC32 is a float32-value view of a CSC matrix, for the column-sweep
// least-squares path. ColPtr and RowIdx alias the parent.
type CSC32 struct {
	Rows, Cols int
	ColPtr     []int
	RowIdx     []int
	Vals       []float32
}

// NewCSC32 builds the float32-value view of c, sharing its index arrays.
func NewCSC32(c *CSC) *CSC32 {
	vals := make([]float32, len(c.Vals))
	for k, v := range c.Vals {
		vals[k] = float32(v)
	}
	return &CSC32{Rows: c.Rows, Cols: c.Cols, ColPtr: c.ColPtr, RowIdx: c.RowIdx, Vals: vals}
}

// Col returns column j's row indices and float32 values.
func (c *CSC32) Col(j int) ([]int, []float32) {
	lo, hi := c.ColPtr[j], c.ColPtr[j+1]
	return c.RowIdx[lo:hi], c.Vals[lo:hi]
}

// ColNorm2Sq returns ‖A32 e_j‖² accumulated in float64.
func (c *CSC32) ColNorm2Sq(j int) float64 {
	var s float64
	for k := c.ColPtr[j]; k < c.ColPtr[j+1]; k++ {
		v := float64(c.Vals[k])
		s += v * v
	}
	return s
}

// MulTransVec computes y ← A32ᵀ·x (y has Cols entries, x has Rows).
func (c *CSC32) MulTransVec(y, x []float64) {
	if len(x) != c.Rows || len(y) != c.Cols {
		panic("sparse: CSC32 MulTransVec shape mismatch")
	}
	for j := 0; j < c.Cols; j++ {
		lo, hi := c.ColPtr[j], c.ColPtr[j+1]
		y[j] = Dot(c.Vals[lo:hi], c.RowIdx[lo:hi], x)
	}
}
