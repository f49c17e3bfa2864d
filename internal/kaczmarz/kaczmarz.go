// Package kaczmarz implements the randomized Kaczmarz method of Strohmer
// and Vershynin and a shared-memory asynchronous variant in the style of
// Liu, Wright and Sridhar — the closest related work the paper discusses
// (§2). It serves as a baseline: Kaczmarz projects onto row hyperplanes of
// a consistent system, while AsyRGS descends along coordinates of an SPD
// system; both get linear rates from randomization. The projection is an
// update rule of the shared coordinate engine (internal/coord), which
// owns the claiming loop and the row sampler. The prepared state is the
// families' shared coord.Prep, with the squared row norms as sampling
// weights and divisor.
package kaczmarz

import (
	"errors"
	"fmt"
	"math"

	"github.com/asynclinalg/asyrgs/internal/alias"
	"github.com/asynclinalg/asyrgs/internal/coord"
	"github.com/asynclinalg/asyrgs/internal/rng"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
)

// ErrNotConverged mirrors the solver packages' sentinel.
var ErrNotConverged = errors.New("kaczmarz: did not reach the requested tolerance")

// Options configure a Kaczmarz run.
type Options struct {
	// Beta is a step-size relaxation in (0,2); 0 means 1 (exact
	// projection onto the selected hyperplane).
	Beta float64
	// Workers > 1 runs the asynchronous variant.
	Workers int
	// Seed keys the row-selection stream. Rows are drawn from the
	// Strohmer–Vershynin ‖A_i‖² distribution.
	Seed uint64
	// Chunk is the number of iteration indices an asynchronous worker
	// claims from the shared counter at a time; zero auto-sizes from the
	// budget and worker count. Row selection stays a pure function of
	// (seed, j), so the chunk size never changes the projection multiset.
	Chunk int
	// Float32 stores the matrix values (and the row norms the projection
	// divides by) in float32-rounded form while accumulating in float64;
	// the iteration then projects onto the rows of fl32(A). Sampling
	// stays on the float64 norms, keeping draw sequences identical
	// across precisions.
	Float32 bool
}

// Solver holds the matrix and the row-sampling distribution.
type Solver struct {
	a        *sparse.CSR
	a32      *sparse.CSR32 // non-nil under Options.Float32
	rowNorm2 []float64     // ‖A_i‖² (of fl32(A) under Float32) — the projection divisor
	tab      *alias.Table  // O(1) norm-weighted row draw
	opts     Options
	beta     float64
	next     uint64
	rowBytes int       // per-iteration cache footprint estimate for chunk sizing
	picks    []int32   // direction buffer of the single-worker iteration
	res      []float64 // residual scratch, so a convergence check allocates nothing
}

// Family is the Kaczmarz prepared-state descriptor: the squared row
// norms ‖A_i‖² are both the Strohmer–Vershynin sampling weights W and
// the projection divisor D.
var Family = &coord.Family{Name: "kaczmarz", Tag: 'k', Check: checkRestored, Round: roundedRowNorms}

// PrepareMatrix computes the row norms and builds the norm-weighted alias
// table for A, paid once per matrix instead of once per solve. A
// zero-norm row has zero weight and is never drawn; the table builder
// rejects an all-zero matrix, and non-finite norms from overflowing rows.
func PrepareMatrix(a *sparse.CSR) (*coord.Prep, error) {
	if a.Rows == 0 {
		return nil, errors.New("kaczmarz: empty matrix")
	}
	norms := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		var nz float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			nz += a.Vals[k] * a.Vals[k]
		}
		norms[i] = nz
	}
	p := coord.NewPrep(Family, a, nil, norms, norms)
	if _, err := p.Alias(); err != nil {
		return nil, err
	}
	return p, nil
}

// checkRestored checks restored row norms against the matrix shape; the
// alias table, rebuilt from them on first use, re-validates the values.
func checkRestored(p *coord.Prep) error {
	if p.A.Rows == 0 {
		return errors.New("kaczmarz: empty matrix")
	}
	if len(p.W) != p.A.Rows {
		return fmt.Errorf("kaczmarz: restored state has %d row norms for a %d-row matrix", len(p.W), p.A.Rows)
	}
	return nil
}

// roundedRowNorms is the float32 divisor: the row norms of the rounded
// values. A nonzero row whose norm underflows float32 storage is
// rejected: it would be sampled (weights stay on the float64 norms) but
// have no finite projection.
func roundedRowNorms(p *coord.Prep, v *coord.View32) ([]float64, error) {
	a32 := v.A
	n2 := make([]float64, a32.Rows)
	for i := 0; i < a32.Rows; i++ {
		var nz float64
		for k := a32.RowPtr[i]; k < a32.RowPtr[i+1]; k++ {
			f := float64(a32.Vals[k])
			nz += f * f
		}
		if nz == 0 && p.W[i] > 0 {
			return nil, fmt.Errorf("kaczmarz: row %d norm underflows float32", i)
		}
		n2[i] = nz
	}
	return n2, nil
}

// NewFromPrep forks a Solver from prepared per-matrix state, validating
// only the options — no matrix traversal.
func NewFromPrep(p *coord.Prep, opts Options) (*Solver, error) {
	if p.Family != Family {
		return nil, fmt.Errorf("kaczmarz: cannot solve with %s prepared state", p.Family.Name)
	}
	tab, err := p.Alias()
	if err != nil {
		return nil, err
	}
	beta := opts.Beta
	if beta == 0 {
		beta = 1
	}
	if beta <= 0 || beta >= 2 {
		return nil, errors.New("kaczmarz: step size outside (0,2)")
	}
	if opts.Chunk < 0 {
		return nil, errors.New("kaczmarz: negative claiming chunk")
	}
	s := &Solver{a: p.A, rowNorm2: p.D, tab: tab, opts: opts, beta: beta}
	if opts.Workers <= 1 {
		s.picks = make([]int32, coord.InlineChunk)
	}
	valBytes := 8
	if opts.Float32 {
		v, err := p.Float32()
		if err != nil {
			return nil, err
		}
		s.a32, s.rowNorm2 = v.A, v.D
		valBytes = 4
	}
	meanNNZ := 0
	if p.A.Rows > 0 {
		meanNNZ = p.A.NNZ() / p.A.Rows
	}
	// One projection reads and scatters a full row: values + indices for
	// both passes, plus the touched x entries and the b/norm scalars.
	s.rowBytes = meanNNZ*(valBytes+8+8) + 24
	return s, nil
}

// New validates and prepares a solver for A·x = b. Rows with zero norm are
// never selected. Callers that solve the same matrix repeatedly should
// PrepareMatrix once and fork Solvers with NewFromPrep instead.
func New(a *sparse.CSR, opts Options) (*Solver, error) {
	p, err := PrepareMatrix(a)
	if err != nil {
		return nil, err
	}
	return NewFromPrep(p, opts)
}

// projRule is one Kaczmarz projection at value precision T: a gather-dot
// forms the correction γ = β(b_i − A_i·x)/‖A_i‖², then a scatter-axpy
// adds γ·A_i over the row's support.
type projRule[T sparse.Value] struct {
	a     sparse.View[T]
	norm2 []float64
	beta  float64
	x, b  []float64
}

func (k projRule[T]) plain(_ int, picks []int32) {
	a, x, b := k.a, k.x, k.b
	for _, p := range picks {
		i := int(p)
		cols, vals := a.Line(i)
		sparse.Scatter(x, vals, cols, k.beta*(b[i]-sparse.Dot(vals, cols, x))/k.norm2[i])
	}
}

// atomic is plain with atomic reads and CAS adds, for several workers.
func (k projRule[T]) atomic(_ int, picks []int32) {
	a, x, b := k.a, k.x, k.b
	for _, p := range picks {
		i := int(p)
		cols, vals := a.Line(i)
		sparse.ScatterAtomic(x, vals, cols, k.beta*(b[i]-sparse.DotAtomic(vals, cols, x))/k.norm2[i])
	}
}

// Iterations runs m iterations (synchronously for Workers <= 1, otherwise
// asynchronously with atomic coordinate updates) and returns the relative
// residual. The row drawn at iteration j is a pure function of (seed, j),
// so the chunk size never changes the projection multiset.
func (s *Solver) Iterations(x, b []float64, m int) float64 {
	if len(x) != s.a.Cols || len(b) != s.a.Rows {
		panic("kaczmarz: shape mismatch")
	}
	c := coord.Config{
		Sampler: coord.Weighted(s.tab), Stream: rng.NewStream(s.opts.Seed),
		Workers: s.opts.Workers, Chunk: s.opts.Chunk, RowBytes: s.rowBytes,
	}
	start := s.next
	s.next += uint64(m)
	switch {
	case c.Workers > 1 && s.a32 != nil:
		coord.Run(&c, start, s.next, projRule[float32]{s.a32.View(), s.rowNorm2, s.beta, x, b}.atomic)
	case c.Workers > 1:
		coord.Run(&c, start, s.next, projRule[float64]{s.a.View(), s.rowNorm2, s.beta, x, b}.atomic)
	case s.a32 != nil:
		coord.Inline(&c, start, s.next, s.picks, projRule[float32]{s.a32.View(), s.rowNorm2, s.beta, x, b}.plain)
	default:
		coord.Inline(&c, start, s.next, s.picks, projRule[float64]{s.a.View(), s.rowNorm2, s.beta, x, b}.plain)
	}
	return s.Residual(x, b)
}

// Solve iterates until the relative residual reaches tol or maxIter
// iterations are spent, checking every checkEvery iterations (n if zero).
func (s *Solver) Solve(x, b []float64, tol float64, maxIter, checkEvery int) (int, float64, error) {
	if checkEvery <= 0 {
		checkEvery = s.a.Cols
		if checkEvery == 0 {
			checkEvery = 1
		}
	}
	done := 0
	for done < maxIter {
		step := checkEvery
		if done+step > maxIter {
			step = maxIter - done
		}
		res := s.Iterations(x, b, step)
		done += step
		if res <= tol {
			return done, res, nil
		}
	}
	return done, s.Residual(x, b), ErrNotConverged
}

// Residual returns ‖b−Ax‖₂/‖b‖₂.
func (s *Solver) Residual(x, b []float64) float64 {
	if s.res == nil {
		s.res = make([]float64, s.a.Rows)
	}
	r := s.res
	if s.a32 != nil {
		s.a32.MulVec(r, x)
	} else {
		s.a.MulVec(r, x)
	}
	vec.Sub(r, b, r)
	nb := vec.Nrm2(b)
	if nb == 0 {
		nb = 1
	}
	return vec.Nrm2(r) / nb
}

// ExpectedRate returns the Strohmer–Vershynin per-iteration contraction
// factor 1 − λmin(AᵀA)/‖A‖_F² on E‖x−x*‖₂² for norm-weighted sampling.
func (s *Solver) ExpectedRate(lambdaMinATA float64) float64 {
	var frob2 float64
	for _, v := range s.rowNorm2 {
		frob2 += v
	}
	if frob2 == 0 {
		return 1
	}
	r := 1 - lambdaMinATA/frob2
	return math.Max(0, r)
}
