// Package kaczmarz implements the randomized Kaczmarz method of Strohmer
// and Vershynin and a shared-memory asynchronous variant in the style of
// Liu, Wright and Sridhar — the closest related work the paper discusses
// (§2). It serves as a baseline: Kaczmarz projects onto row hyperplanes of
// a consistent system, while AsyRGS descends along coordinates of an SPD
// system; both get linear rates from randomization. The projection is an
// update rule of the shared coordinate engine (internal/coord), which
// owns the claiming loop and the row sampler.
package kaczmarz

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

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
	rowBytes int     // per-iteration cache footprint estimate for chunk sizing
	picks    []int32 // direction buffer of the single-worker iteration
}

// prepCount counts PrepareMatrix calls; the Prepare/Solve pipeline tests
// use the delta to prove cached prepared state never recomputes row norms.
var prepCount atomic.Uint64

// PrepCount returns the number of per-matrix preparations (row-norm and
// sampling-table passes) performed so far in this process.
func PrepCount() uint64 { return prepCount.Load() }

// Prep is the reusable per-matrix state of the Kaczmarz solvers: the row
// norms ‖A_i‖² and the O(1) alias table of the Strohmer–Vershynin
// distribution the hot loop draws through. Immutable after construction
// and safe for concurrent use; fork Solvers from it with NewFromPrep.
type Prep struct {
	a        *sparse.CSR
	rowNorm2 []float64
	tab      *alias.Table

	f32Once    sync.Once
	a32        *sparse.CSR32
	rowNorm232 []float64
	f32Err     error
}

// PrepareMatrix computes the row norms and the norm-weighted sampling
// distribution for A, paid once per matrix instead of once per solve.
func PrepareMatrix(a *sparse.CSR) (*Prep, error) {
	if a.Rows == 0 {
		return nil, errors.New("kaczmarz: empty matrix")
	}
	prepCount.Add(1)
	norms := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		var nz float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			nz += a.Vals[k] * a.Vals[k]
		}
		norms[i] = nz
	}
	return newPrep(a, norms)
}

// newPrep checks the row norms and builds the alias table over them. A
// zero-norm row has zero weight and is never drawn; an all-zero matrix
// and negative norms are rejected. The builder re-validates the weights,
// so non-finite norms from overflowing rows surface with a clear error
// instead of a silently broken table.
func newPrep(a *sparse.CSR, rowNorm2 []float64) (*Prep, error) {
	var total float64
	for i, nz := range rowNorm2 {
		if nz < 0 {
			return nil, fmt.Errorf("kaczmarz: row norm %d is negative", i)
		}
		total += nz
	}
	if total == 0 {
		return nil, errors.New("kaczmarz: zero matrix")
	}
	tab, err := alias.New(rowNorm2)
	if err != nil {
		return nil, fmt.Errorf("kaczmarz: building row-sampling table: %w", err)
	}
	return &Prep{a: a, rowNorm2: rowNorm2, tab: tab}, nil
}

// State exposes the serializable per-matrix state — the squared row
// norms — for the durable prep-store codec. The alias table is absent:
// it is an O(n) rebuild from the norms, cheaper to reconstruct than to
// ship. Shared slice; do not mutate.
func (p *Prep) State() []float64 { return p.rowNorm2 }

// PrepFromState rebuilds a Prep over a from row norms captured by State
// on an identical matrix, skipping the O(nnz) norm pass. The alias table
// is reconstructed (O(n)), which re-validates the norms: non-finite or
// negative entries and an all-zero matrix are rejected exactly as in
// PrepareMatrix. It does not count in PrepCount.
func PrepFromState(a *sparse.CSR, rowNorm2 []float64) (*Prep, error) {
	if a.Rows == 0 {
		return nil, errors.New("kaczmarz: empty matrix")
	}
	if len(rowNorm2) != a.Rows {
		return nil, fmt.Errorf("kaczmarz: restored state has %d row norms for a %d-row matrix", len(rowNorm2), a.Rows)
	}
	return newPrep(a, rowNorm2)
}

// Matrix returns the prepared matrix (shared, do not mutate).
func (p *Prep) Matrix() *sparse.CSR { return p.a }

// float32View returns the float32-value view of the matrix and the row
// norms of the rounded values, building both on first use. A nonzero row
// whose norm underflows float32 storage is rejected: it would be sampled
// (weights stay on the float64 norms) but have no finite projection.
func (p *Prep) float32View() (*sparse.CSR32, []float64, error) {
	p.f32Once.Do(func() {
		a32 := sparse.NewCSR32(p.a)
		n2 := make([]float64, a32.Rows)
		for i := 0; i < a32.Rows; i++ {
			var nz float64
			for k := a32.RowPtr[i]; k < a32.RowPtr[i+1]; k++ {
				v := float64(a32.Vals[k])
				nz += v * v
			}
			if nz == 0 && p.rowNorm2[i] > 0 {
				p.f32Err = fmt.Errorf("kaczmarz: row %d norm underflows float32", i)
				return
			}
			n2[i] = nz
		}
		p.a32, p.rowNorm232 = a32, n2
	})
	return p.a32, p.rowNorm232, p.f32Err
}

// NewFromPrep forks a Solver from prepared per-matrix state, validating
// only the options — no matrix traversal.
func NewFromPrep(p *Prep, opts Options) (*Solver, error) {
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
	s := &Solver{a: p.a, rowNorm2: p.rowNorm2, tab: p.tab, opts: opts, beta: beta}
	if opts.Workers <= 1 {
		s.picks = make([]int32, coord.InlineChunk)
	}
	valBytes := 8
	if opts.Float32 {
		a32, n232, err := p.float32View()
		if err != nil {
			return nil, err
		}
		s.a32, s.rowNorm2 = a32, n232
		valBytes = 4
	}
	meanNNZ := 0
	if p.a.Rows > 0 {
		meanNNZ = p.a.NNZ() / p.a.Rows
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
	r := make([]float64, s.a.Rows)
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
