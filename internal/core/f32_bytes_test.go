package core

// The mixed-precision traffic claim, pinned on a system above the 100k
// size band: float32 value storage halves the value-array bytes and
// shrinks the per-iteration cache footprint the chunk auto-sizer works
// from, while the index arrays are shared (aliased, not copied) between
// the two views.

import (
	"testing"

	"github.com/asynclinalg/asyrgs/internal/workload"
)

func TestFloat32ReducesBytesPerIterationAt100k(t *testing.T) {
	// 320×320 grid Laplacian: n = 102 400 rows, ≥ 100k per the size bands.
	a := workload.Laplacian2D(320, 320)
	if a.Rows < 100_000 {
		t.Fatalf("test system has %d rows, want ≥ 100k", a.Rows)
	}
	prep, err := PrepareMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	s64, err := NewFromPrep(prep, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s32, err := NewFromPrep(prep, Options{Workers: 1, Float32: true})
	if err != nil {
		t.Fatal(err)
	}

	// Value-array traffic halves exactly: 4·nnz vs 8·nnz.
	v, err := prep.Float32()
	if err != nil {
		t.Fatal(err)
	}
	a32 := v.A
	if got, want := a32.ValueBytes(), 4*a.NNZ(); got != want {
		t.Fatalf("f32 value array holds %d bytes, want %d", got, want)
	}
	if got, twice := a32.ValueBytes(), 8*a.NNZ(); 2*got != twice {
		t.Fatalf("f32 value bytes %d are not half of the f64 %d", got, twice)
	}

	// The index arrays are shared, not duplicated: the f32 view costs only
	// its value array on top of the parent CSR.
	if &a32.RowPtr[0] != &a.RowPtr[0] || &a32.ColIdx[0] != &a.ColIdx[0] {
		t.Fatal("f32 view must alias the parent index arrays")
	}

	// The chunk auto-sizer's per-iteration footprint estimate shrinks by
	// exactly the value-width difference over the mean row.
	meanNNZ := a.NNZ() / a.Rows
	if got, want := s64.rowBytes-s32.rowBytes, 4*meanNNZ; got != want {
		t.Fatalf("rowBytes shrank by %d, want 4·meanNNZ = %d (f64 %d, f32 %d)",
			got, want, s64.rowBytes, s32.rowBytes)
	}
	if s32.rowBytes >= s64.rowBytes {
		t.Fatalf("f32 footprint %d not below f64 %d", s32.rowBytes, s64.rowBytes)
	}

	// And the smaller footprint must actually still solve: a short
	// fixed-work run at n=102k makes progress in f32.
	x := make([]float64, a.Rows)
	b := workload.RandomRHS(a.Rows, 5)
	res, err := s32.Solve(x, b, 0, 2, 2)
	if err != nil && err != ErrNotConverged {
		t.Fatal(err)
	}
	if !(res.Residual > 0 && res.Residual < 1) {
		t.Fatalf("f32 solve made no progress at n=%d: %+v", a.Rows, res)
	}
}
