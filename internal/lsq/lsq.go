// Package lsq implements §8 of the paper: randomized coordinate descent
// for the overdetermined least-squares problem min_x ‖A·x − b‖₂ (which
// subsumes unsymmetric square systems), in both the classical sequential
// form (iteration (20), Leventhal–Lewis) and the asynchronous form
// (iteration (21)) that AsyRGS's strategy induces.
//
// The sequential iteration keeps the residual r = b − A·x in memory and
// updates it after every coordinate step, costing O(nnz(A e_j)) per step.
// The asynchronous iteration cannot keep r (updates to it are not atomic),
// so each step recomputes the needed residual entries from scratch:
//
//	γ_j = (A e_j)ᵀ (b − A·x_{K(j)}) / ‖A e_j‖² ,  x_{j+1} = x_j + βγ_j e_j ,
//
// costing O(Σ_i nnz(A_i)) over the rows i where column j is non-zero —
// the cost trade-off §8 quantifies as at most O(C2²/C1) per step.
// Iteration (21) is exactly AsyRGS applied to AᵀA·x = Aᵀb, so Theorem 4's
// guarantees transfer with ρ₂ computed from X = AᵀA (Theorem 5). Both
// iterations are update rules of the shared coordinate engine
// (internal/coord), which owns the claiming loop and the column sampler.
// The prepared state is the families' shared coord.Prep: the CSC column
// view, and the squared column norms as sampling weights and divisor.
package lsq

import (
	"errors"
	"fmt"

	"github.com/asynclinalg/asyrgs/internal/alias"
	"github.com/asynclinalg/asyrgs/internal/atomicfloat"
	"github.com/asynclinalg/asyrgs/internal/coord"
	"github.com/asynclinalg/asyrgs/internal/rng"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
)

// ErrNotConverged mirrors the solver packages' sentinel.
var ErrNotConverged = errors.New("lsq: did not reach the requested tolerance")

// Options configure a least-squares coordinate-descent solver.
type Options struct {
	// Beta is the step size. Theorem 5 requires β < 1 for the
	// asynchronous variant; 0 means 1 for the sequential solver and 0.5
	// for the asynchronous one.
	Beta float64
	// Workers > 1 runs the asynchronous iteration (21).
	Workers int
	// Seed keys the column-selection stream.
	Seed uint64
	// NormWeighted selects column j with probability ‖A e_j‖²/‖A‖_F² —
	// the general Leventhal–Lewis distribution for coordinate descent on
	// the normal equations — through an O(1) alias table built once per
	// prepared matrix. Off, columns are drawn uniformly.
	NormWeighted bool
	// Chunk is the number of iteration indices an asynchronous worker
	// claims from the shared counter at a time; zero auto-sizes from the
	// budget and worker count. Column selection stays a pure function of
	// (seed, j), so the chunk size never changes the update multiset.
	Chunk int
	// Float32 stores both matrix views' values (and the column norms the
	// step divides by) in float32-rounded form while accumulating in
	// float64; the iteration then descends on the normal equations of
	// fl32(A). Sampling stays on the float64 norms, keeping draw
	// sequences identical across precisions.
	Float32 bool
}

// Solver holds CSR and CSC views of A plus column norms.
type Solver struct {
	a        *sparse.CSR
	csc      *sparse.CSC
	a32      *sparse.CSR32 // non-nil under Options.Float32
	csc32    *sparse.CSC32 // non-nil under Options.Float32
	colNorm2 []float64     // ‖A e_j‖² (of fl32(A) under Float32) — the step divisor
	tab      *alias.Table  // nil unless NormWeighted
	beta     float64
	opts     Options
	next     uint64
	rowBytes int     // per-iteration cache footprint estimate for chunk sizing
	picks    []int32 // direction buffer of the sequential iteration
	// Residual scratch, so a convergence check allocates nothing: r is
	// b − A·x (also the sequential iteration's running residual), atr is
	// Aᵀr.
	r, atr []float64
}

// Family is the least-squares prepared-state descriptor: the state
// carries the CSC column view of A (one transpose pass), and the squared
// column norms ‖A e_j‖² are both the norm-weighted sampling weights W
// and the step divisor D.
var Family = &coord.Family{Name: "lsq", Tag: 'l', Columns: true, Check: checkRestored, Round: roundedColNorms}

// PrepareMatrix validates A (rows >= cols, no zero columns) and builds
// the column view plus norms, paid once per matrix instead of per solve.
func PrepareMatrix(a *sparse.CSR) (*coord.Prep, error) {
	if a.Rows < a.Cols {
		return nil, errors.New("lsq: system must have at least as many rows as columns")
	}
	csc := a.ToCSC()
	norms := make([]float64, a.Cols)
	for j := 0; j < a.Cols; j++ {
		norms[j] = csc.ColNorm2Sq(j)
		if norms[j] == 0 {
			return nil, errors.New("lsq: matrix has a zero column")
		}
	}
	return coord.NewPrep(Family, a, csc, norms, norms), nil
}

// checkRestored revalidates a restored column view against the matrix
// shape — pointer monotonicity, nnz agreement, row indices in range,
// positive norms — with one O(nnz) comparison scan (far cheaper than the
// O(nnz log) transpose it replaces), so structurally damaged state can
// never index out of bounds in the hot loop.
func checkRestored(p *coord.Prep) error {
	a, csc := p.A, p.CSC
	if a.Rows < a.Cols {
		return errors.New("lsq: system must have at least as many rows as columns")
	}
	if csc == nil || csc.Rows != a.Rows || csc.Cols != a.Cols {
		return errors.New("lsq: restored column view disagrees with the matrix shape")
	}
	nnz := a.NNZ()
	if len(csc.ColPtr) != a.Cols+1 || len(csc.RowIdx) != nnz || len(csc.Vals) != nnz ||
		csc.ColPtr[0] != 0 || csc.ColPtr[a.Cols] != nnz {
		return errors.New("lsq: restored column view has inconsistent structure")
	}
	for j := 0; j < a.Cols; j++ {
		if csc.ColPtr[j] > csc.ColPtr[j+1] {
			return errors.New("lsq: restored column pointers are not monotone")
		}
	}
	for _, i := range csc.RowIdx {
		if i < 0 || i >= a.Rows {
			return errors.New("lsq: restored row index out of range")
		}
	}
	if len(p.W) != a.Cols {
		return errors.New("lsq: restored norms disagree with the matrix shape")
	}
	for j, n := range p.W {
		if !(n > 0) {
			return fmt.Errorf("lsq: restored norm of column %d is not positive", j)
		}
	}
	return nil
}

// roundedColNorms is the float32 divisor: the column norms of the
// rounded values. A column whose norm underflows float32 storage is
// rejected (it would still be sampled but have no finite step).
func roundedColNorms(p *coord.Prep, v *coord.View32) ([]float64, error) {
	norms := make([]float64, p.A.Cols)
	for j := range norms {
		if norms[j] = v.CSC.ColNorm2Sq(j); norms[j] == 0 {
			return nil, fmt.Errorf("lsq: column %d norm underflows float32", j)
		}
	}
	return norms, nil
}

// NewFromPrep forks a Solver from prepared per-matrix state, validating
// only the options — no transpose or norm computation (the norm-weighted
// alias table is memoized inside the Prep).
func NewFromPrep(p *coord.Prep, opts Options) (*Solver, error) {
	if p.Family != Family {
		return nil, fmt.Errorf("lsq: cannot solve with %s prepared state", p.Family.Name)
	}
	beta := opts.Beta
	if beta == 0 {
		if opts.Workers > 1 {
			beta = 0.5
		} else {
			beta = 1
		}
	}
	if beta <= 0 || beta >= 2 {
		return nil, errors.New("lsq: step size outside (0,2)")
	}
	if opts.Chunk < 0 {
		return nil, errors.New("lsq: negative claiming chunk")
	}
	s := &Solver{a: p.A, csc: p.CSC, colNorm2: p.D, beta: beta, opts: opts}
	if opts.Workers <= 1 {
		s.picks = make([]int32, coord.InlineChunk)
	}
	valBytes := 8
	if opts.Float32 {
		v, err := p.Float32()
		if err != nil {
			return nil, err
		}
		s.a32, s.csc32, s.colNorm2 = v.A, v.CSC, v.D
		valBytes = 4
	}
	if opts.NormWeighted {
		tab, err := p.Alias()
		if err != nil {
			return nil, err
		}
		s.tab = tab
	}
	// The async step walks one column and re-derives each touched row's
	// product: roughly column nnz × mean row nnz entries of values+indices.
	meanColNNZ, meanRowNNZ := 0, 0
	if p.A.Cols > 0 {
		meanColNNZ = p.A.NNZ() / p.A.Cols
	}
	if p.A.Rows > 0 {
		meanRowNNZ = p.A.NNZ() / p.A.Rows
	}
	s.rowBytes = meanColNNZ*(1+meanRowNNZ)*(valBytes+8) + 24
	return s, nil
}

// New validates A (must have no zero columns) and builds the solver.
// Callers that solve the same matrix repeatedly should PrepareMatrix once
// and fork Solvers with NewFromPrep instead.
func New(a *sparse.CSR, opts Options) (*Solver, error) {
	p, err := PrepareMatrix(a)
	if err != nil {
		return nil, err
	}
	return NewFromPrep(p, opts)
}

// seqRule is iteration (20) at value precision T: the residual
// r = b − A·x is kept in memory and updated after every step, giving the
// cheap O(nnz(A e_j)) step.
type seqRule[T sparse.Value] struct {
	cols  sparse.View[T]
	norm2 []float64
	beta  float64
	x, r  []float64
}

func (k seqRule[T]) step(_ int, picks []int32) {
	x, r := k.x, k.r
	for _, p := range picks {
		j := int(p)
		rows, vals := k.cols.Line(j)
		var g float64
		for t, i := range rows {
			g += float64(vals[t]) * r[i]
		}
		gamma := k.beta * g / k.norm2[j]
		x[j] += gamma
		for t, i := range rows {
			r[i] -= gamma * float64(vals[t])
		}
	}
}

// asyncRule is iteration (21) at value precision T: workers share x, each
// step recomputes the residual entries it needs (A_i·x for the rows i
// touching column j) with atomic reads, and commits the single-coordinate
// update with an atomic add.
type asyncRule[T sparse.Value] struct {
	rows, cols sparse.View[T]
	norm2      []float64
	beta       float64
	x, b       []float64
}

func (k asyncRule[T]) step(_ int, picks []int32) {
	x, b := k.x, k.b
	for _, p := range picks {
		j := int(p)
		rows, vals := k.cols.Line(j)
		var g float64
		for t, i := range rows {
			cols, rvals := k.rows.Line(i)
			g += float64(vals[t]) * (b[i] - sparse.DotAtomic(rvals, cols, x))
		}
		atomicfloat.Add(&x[j], k.beta*g/k.norm2[j])
	}
}

// Iterations runs m coordinate steps on x and returns nothing; use
// ResidualNorm or LSQResidual for progress metrics. The column drawn at
// step it is uniform, or ‖A e_j‖²-weighted through the O(1) alias table
// under NormWeighted — a pure function of (seed, it) either way, so the
// chunk size never changes the update multiset.
func (s *Solver) Iterations(x, b []float64, m int) {
	if len(x) != s.a.Cols || len(b) != s.a.Rows {
		panic("lsq: shape mismatch")
	}
	c := coord.Config{
		Sampler: coord.Uniform(s.a.Cols), Stream: rng.NewStream(s.opts.Seed),
		Workers: s.opts.Workers, Chunk: s.opts.Chunk, RowBytes: s.rowBytes,
	}
	if s.tab != nil {
		c.Sampler = coord.Weighted(s.tab)
	}
	start := s.next
	s.next += uint64(m)
	switch {
	case c.Workers > 1 && s.csc32 != nil:
		coord.Run(&c, start, s.next, asyncRule[float32]{s.a32.View(), s.csc32.View(), s.colNorm2, s.beta, x, b}.step)
	case c.Workers > 1:
		coord.Run(&c, start, s.next, asyncRule[float64]{s.a.View(), s.csc.View(), s.colNorm2, s.beta, x, b}.step)
	case s.csc32 != nil:
		coord.Inline(&c, start, s.next, s.picks, seqRule[float32]{s.csc32.View(), s.colNorm2, s.beta, x, s.residual(x, b)}.step)
	default:
		coord.Inline(&c, start, s.next, s.picks, seqRule[float64]{s.csc.View(), s.colNorm2, s.beta, x, s.residual(x, b)}.step)
	}
}

// residual computes r = b − A·x through the active-precision view into
// the solver's scratch and returns it; it is valid until the next call.
func (s *Solver) residual(x, b []float64) []float64 {
	if s.r == nil {
		s.r = make([]float64, s.a.Rows)
	}
	r := s.r
	if s.a32 != nil {
		s.a32.MulVec(r, x)
	} else {
		s.a.MulVec(r, x)
	}
	vec.Sub(r, b, r)
	return r
}

// LSQResidual returns ‖Aᵀ(b − A·x)‖₂, the least-squares optimality
// residual: zero exactly at the minimizer x* = (AᵀA)⁻¹Aᵀb. Under Float32
// both products go through the rounded views, so it vanishes at the
// minimizer of the rounded system.
func (s *Solver) LSQResidual(x, b []float64) float64 {
	r := s.residual(x, b)
	if s.atr == nil {
		s.atr = make([]float64, s.a.Cols)
	}
	atr := s.atr
	if s.csc32 != nil {
		s.csc32.MulTransVec(atr, r)
	} else {
		s.csc.MulTransVec(atr, r)
	}
	return vec.Nrm2(atr)
}

// ResidualNorm returns ‖b − A·x‖₂ (does not vanish for inconsistent
// systems; compare against the optimal value).
func (s *Solver) ResidualNorm(x, b []float64) float64 {
	return vec.Nrm2(s.residual(x, b))
}

// Solve iterates until the normal-equation residual ‖Aᵀ(b−Ax)‖₂ drops
// below tol or maxIter steps are spent, checking every checkEvery steps
// (one sweep = Cols steps if zero).
func (s *Solver) Solve(x, b []float64, tol float64, maxIter, checkEvery int) (int, float64, error) {
	if checkEvery <= 0 {
		checkEvery = s.a.Cols
	}
	done := 0
	for done < maxIter {
		step := checkEvery
		if done+step > maxIter {
			step = maxIter - done
		}
		s.Iterations(x, b, step)
		done += step
		if res := s.LSQResidual(x, b); res <= tol {
			return done, res, nil
		}
	}
	return done, s.LSQResidual(x, b), ErrNotConverged
}

// Normal returns the explicit normal-equation system (AᵀA, Aᵀb), the SPD
// system iteration (21) implicitly solves — used by the tests to
// cross-check the asynchronous solver against AsyRGS on AᵀA.
func (s *Solver) Normal(b []float64) (*sparse.CSR, []float64) {
	ata := sparse.Gram(s.a)
	atb := make([]float64, s.a.Cols)
	s.csc.MulTransVec(atb, b)
	return ata, atb
}
