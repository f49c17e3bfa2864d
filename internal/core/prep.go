package core

import (
	"fmt"

	"github.com/asynclinalg/asyrgs/internal/coord"
	"github.com/asynclinalg/asyrgs/internal/sparse"
)

// Family is the core solver family's prepared-state descriptor: the
// sampling weights W are the diagonal A_rr (the Leventhal–Lewis
// distribution A_rr/tr(A)) and the divisor D is its reciprocal, hoisted
// out of the inner loop.
var Family = &coord.Family{Name: "core", Tag: 'c', SeparateD: true, Check: checkRestored, Round: roundedInvDiag}

// PrepareMatrix validates the matrix (square, non-zero diagonal) and
// captures the per-matrix solver state: one Diag extraction and one
// reciprocal pass, paid once per matrix instead of once per solve.
func PrepareMatrix(a *sparse.CSR) (*coord.Prep, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: %dx%d", ErrNotSquare, a.Rows, a.Cols)
	}
	diag := a.Diag()
	invD := make([]float64, len(diag))
	for i, d := range diag {
		if d == 0 {
			return nil, fmt.Errorf("%w: row %d", ErrZeroDiagonal, i)
		}
		invD[i] = 1 / d
	}
	return coord.NewPrep(Family, a, nil, diag, invD), nil
}

// checkRestored re-checks restored state in O(n): the shape and the
// non-zero-diagonal invariant, so state that passed blob integrity checks
// but disagrees structurally with the matrix is rejected instead of
// poisoning solves.
func checkRestored(p *coord.Prep) error {
	a := p.A
	if a.Rows != a.Cols {
		return fmt.Errorf("%w: %dx%d", ErrNotSquare, a.Rows, a.Cols)
	}
	if len(p.W) != a.Rows || len(p.D) != a.Rows {
		return fmt.Errorf("core: restored state sized %d/%d for a %d-row matrix", len(p.W), len(p.D), a.Rows)
	}
	for i, d := range p.W {
		if d == 0 || p.D[i] == 0 {
			return fmt.Errorf("%w: row %d in restored state", ErrZeroDiagonal, i)
		}
	}
	return nil
}

// roundedInvDiag is the float32 divisor: the hot loops divide by
// fl32(A_rr), not A_rr, so the fixed point is the exact solution of the
// rounded system. Rounding that underflows a diagonal entry to zero is
// rejected.
func roundedInvDiag(p *coord.Prep, _ *coord.View32) ([]float64, error) {
	invD32 := make([]float64, len(p.W))
	for i, d := range p.W {
		d32 := float64(float32(d))
		if d32 == 0 {
			return nil, fmt.Errorf("%w: row %d underflows float32", ErrZeroDiagonal, i)
		}
		invD32[i] = 1 / d32
	}
	return invD32, nil
}

// NewFromPrep forks a Solver from prepared per-matrix state. It performs
// only option validation — no matrix traversal — so it is cheap enough to
// call once per solve, giving each solve a fresh direction stream and
// delay statistics over the shared immutable Prep.
func NewFromPrep(p *coord.Prep, opts Options) (*Solver, error) {
	s := &Solver{}
	if err := s.Reinit(p, opts); err != nil {
		return nil, err
	}
	return s, nil
}

// Reinit points an existing Solver at prepared per-matrix state,
// resetting its direction stream and delay statistics while keeping its
// scratch buffers. Pools use it to recycle Solvers across warm solves so
// the prepared request path allocates nothing.
//
//asyrgs:noalloc
func (s *Solver) Reinit(p *coord.Prep, opts Options) error {
	if p.Family != Family {
		return fmt.Errorf("core: cannot solve with %s prepared state", p.Family.Name)
	}
	beta := opts.Beta
	if beta == 0 {
		beta = 1
	}
	if beta <= 0 || beta >= 2 {
		return fmt.Errorf("core: step size β=%g outside (0,2)", beta)
	}
	if opts.Workers < 0 {
		return fmt.Errorf("core: negative worker count %d", opts.Workers)
	}
	if opts.Chunk < 0 {
		return fmt.Errorf("core: negative claiming chunk %d", opts.Chunk)
	}
	s.a, s.diag, s.invD = p.A, p.W, p.D
	s.a32 = nil
	valBytes := 8
	if opts.Float32 {
		v, err := p.Float32()
		if err != nil {
			return err
		}
		s.a32, s.invD = v.A, v.D
		valBytes = 4
	}
	// Per-iteration cache footprint for the chunk auto-sizer: mean row
	// values + int column indices, plus the x, b and invD entries touched.
	meanNNZ := 0
	if p.A.Rows > 0 {
		meanNNZ = p.A.NNZ() / p.A.Rows
	}
	s.rowBytes = meanNNZ*(valBytes+8) + 24
	s.beta, s.opts = beta, opts
	s.diagAlias = nil
	s.Reset()
	if opts.DiagonalWeighted {
		tab, err := p.Alias()
		if err != nil {
			return err
		}
		s.diagAlias = tab
	}
	return nil
}
