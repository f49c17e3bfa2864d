package core

import (
	"math"

	"github.com/asynclinalg/asyrgs/internal/atomicfloat"
	"github.com/asynclinalg/asyrgs/internal/coord"
	"github.com/asynclinalg/asyrgs/internal/rng"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
)

// vecRule is Algorithm 1's update for one right-hand side at value
// precision T: γ ← (b_r − A_r·x)/A_rr, x_r ← x_r + β·γ.
type vecRule[T sparse.Value] struct {
	a    sparse.View[T]
	invD []float64
	beta float64
	x, b []float64
}

// plain runs a chunk with plain loads and stores: the synchronous
// iteration, and the NonAtomic ablation when run by several workers.
func (k vecRule[T]) plain(_ int, picks []int32) {
	a, invD, beta, x, b := k.a, k.invD, k.beta, k.x, k.b
	for _, p := range picks {
		r := int(p)
		cols, vals := a.Line(r)
		gamma := (b[r] - sparse.Dot(vals, cols, x)) * invD[r]
		x[r] += beta * gamma
	}
}

// atomic runs a chunk of the asynchronous iteration. Read phase: other
// workers may commit updates mid-read — the inconsistent-read model
// (iteration (9)). Atomic loads cost nothing on mainstream hardware and
// keep the execution free of data races; the commit is an atomic add
// (Assumption A-1).
func (k vecRule[T]) atomic(_ int, picks []int32) {
	a, invD, beta, x, b := k.a, k.invD, k.beta, k.x, k.b
	for _, p := range picks {
		r := int(p)
		cols, vals := a.Line(r)
		gamma := (b[r] - sparse.DotAtomic(vals, cols, x)) * invD[r]
		atomicfloat.Add(&x[r], beta*gamma)
	}
}

// body returns the rule's chunk body for a run on the given worker count,
// its atomicity chosen once, before any worker starts: plain accesses for
// one worker or the NonAtomic ablation, atomic reads and commits
// otherwise.
func (k vecRule[T]) body(workers int, nonAtomic bool) coord.Body {
	if workers > 1 && !nonAtomic {
		return k.atomic
	}
	return k.plain
}

// blockRule is vecRule for a row-major multi-right-hand-side block: all
// columns share the direction r, and the update writes the Cols entries
// of row r. gamma holds one Cols-long scratch row per worker.
type blockRule[T sparse.Value] struct {
	a     sparse.View[T]
	invD  []float64
	beta  float64
	x, b  *vec.Dense
	gamma []float64
}

func (k blockRule[T]) plain(w int, picks []int32) {
	a, x, b, c := k.a, k.x, k.b, k.x.Cols
	gamma := k.gamma[w*c : (w+1)*c]
	for _, p := range picks {
		r := int(p)
		copy(gamma, b.Row(r))
		cols, vals := a.Line(r)
		for t, col := range cols {
			sparse.Axpy(gamma, x.Row(col), -float64(vals[t]))
		}
		sparse.Axpy(x.Row(r), gamma, k.beta*k.invD[r])
	}
}

func (k blockRule[T]) atomic(w int, picks []int32) {
	a, x, b, c := k.a, k.x, k.b, k.x.Cols
	gamma := k.gamma[w*c : (w+1)*c]
	for _, p := range picks {
		r := int(p)
		copy(gamma, b.Row(r))
		cols, vals := a.Line(r)
		for t, col := range cols {
			sparse.AxpyAtomicRead(gamma, x.Row(col), -float64(vals[t]))
		}
		scale := k.beta * k.invD[r]
		xrow := x.Row(r)
		for col := range gamma {
			atomicfloat.Add(&xrow[col], scale*gamma[col])
		}
	}
}

// body is vecRule.body for the block rule.
func (k blockRule[T]) body(workers int, nonAtomic bool) coord.Body {
	if workers > 1 && !nonAtomic {
		return k.atomic
	}
	return k.plain
}

// seqPicks returns the solver's reusable direction buffer, lazily sized.
// Retained across Reinit so a recycled Solver's warm solve allocates
// nothing. Synchronous paths only (one goroutine).
func (s *Solver) seqPicks() []int32 {
	if cap(s.pickBuf) < coord.InlineChunk {
		s.pickBuf = make([]int32, coord.InlineChunk)
	}
	return s.pickBuf[:coord.InlineChunk]
}

// config returns the engine configuration for the next sweeps: the
// sampler and, for a multi-worker run, the scheduling options. The
// partitioned sampler applies to multi-worker runs only — with one
// worker there is one block, which is uniform sampling.
func (s *Solver) config(workers int) coord.Config {
	c := coord.Config{Stream: rng.NewStream(s.opts.Seed), Sampler: coord.Uniform(s.a.Rows)}
	switch {
	case s.opts.Partitioned && workers > 1:
		c.Sampler = coord.Partitioned(s.a.Rows, workers)
	case s.opts.DiagonalWeighted:
		c.Sampler = coord.Weighted(s.diagAlias)
	}
	if workers > 1 {
		c.Workers, c.SyncPeriod = workers, s.opts.SyncPeriod
		c.Chunk, c.RowBytes, c.Throttle = s.opts.Chunk, s.rowBytes, s.opts.Throttle
	}
	if s.opts.MeasureDelay && workers > 0 {
		c.Delay = &s.delay
	}
	return c
}

// advance returns the global index range of the next sweeps and moves
// the stream past it.
func (s *Solver) advance(sweeps int) (start, end uint64) {
	start = s.next
	s.next += uint64(sweeps) * uint64(s.a.Rows)
	s.sweep += sweeps
	return start, s.next
}

// Sweeps runs sweeps·n synchronous Randomized Gauss–Seidel iterations on x
// for the system A·x = b, continuing the solver's direction stream. One
// sweep (n single-coordinate updates) costs Θ(nnz(A)) — the same as one
// classical Gauss–Seidel pass.
//
//asyrgs:noalloc
func (s *Solver) Sweeps(x, b []float64, sweeps int) {
	n := s.a.Rows
	if len(x) != n || len(b) != n {
		panic("core: Sweeps shape mismatch")
	}
	s.sweepInline(x, b, sweeps, 0)
}

// sweepInline runs the vector iteration on the calling goroutine. workers
// is 0 for the synchronous methods and 1 for a one-worker asynchronous
// run, which records its iterations at delay zero under MeasureDelay.
//
//asyrgs:noalloc
func (s *Solver) sweepInline(x, b []float64, sweeps, workers int) {
	c := s.config(workers)
	start, end := s.advance(sweeps)
	if s.a32 != nil {
		k := vecRule[float32]{s.a32.View(), s.invD, s.beta, x, b}
		coord.Inline(&c, start, end, s.seqPicks(), k.plain)
	} else {
		k := vecRule[float64]{s.a.View(), s.invD, s.beta, x, b}
		coord.Inline(&c, start, end, s.seqPicks(), k.plain)
	}
}

// SweepsDense runs sweeps·n synchronous iterations simultaneously on every
// column of the row-major block X for A·X = B. The direction r chosen at
// global iteration j is shared by all right-hand sides, matching the
// paper's multi-RHS experiment where all 51 systems are solved together.
func (s *Solver) SweepsDense(x, b *vec.Dense, sweeps int) {
	s.runDense(x, b, sweeps, 0)
}

// runDense runs the block iteration with the given worker count (see
// config).
func (s *Solver) runDense(x, b *vec.Dense, sweeps, workers int) {
	n := s.a.Rows
	if x.Rows != n || b.Rows != n || x.Cols != b.Cols {
		panic("core: dense sweeps shape mismatch")
	}
	c := s.config(workers)
	start, end := s.advance(sweeps)
	gamma := make([]float64, max(c.Workers, 1)*x.Cols)
	var body coord.Body
	if s.a32 != nil {
		body = blockRule[float32]{s.a32.View(), s.invD, s.beta, x, b, gamma}.body(c.Workers, s.opts.NonAtomic)
	} else {
		body = blockRule[float64]{s.a.View(), s.invD, s.beta, x, b, gamma}.body(c.Workers, s.opts.NonAtomic)
	}
	coord.Run(&c, start, end, body)
}

// Solve iterates synchronously until the relative residual drops below tol
// or maxSweeps sweeps have been spent, checking the residual every
// checkEvery sweeps (1 if zero).
func (s *Solver) Solve(x, b []float64, tol float64, maxSweeps, checkEvery int) (Result, error) {
	if checkEvery <= 0 {
		checkEvery = 1
	}
	done := 0
	for done < maxSweeps {
		step := checkEvery
		if done+step > maxSweeps {
			step = maxSweeps - done
		}
		s.Sweeps(x, b, step)
		done += step
		if res := s.Residual(x, b); res <= tol {
			return Result{Sweeps: done, Iterations: s.next, Residual: res, Converged: true}, nil
		}
	}
	res := s.Residual(x, b)
	return Result{Sweeps: done, Iterations: s.next, Residual: res}, ErrNotConverged
}

// ResidualDense returns ‖B−AX‖_F / ‖B‖_F.
func (s *Solver) ResidualDense(x, b *vec.Dense) float64 {
	ax := vec.NewDense(x.Rows, x.Cols)
	if s.a32 != nil {
		s.a32.MulDensePar(ax.Data, x.Data, x.Cols, s.opts.Workers, sparse.PartitionContiguous)
	} else {
		s.a.MulDense(ax.Data, x.Data, x.Cols, s.opts.Workers)
	}
	var num, den float64
	for i, v := range ax.Data {
		d := b.Data[i] - v
		num += d * d
		den += b.Data[i] * b.Data[i]
	}
	if den == 0 {
		return vec.Nrm2(ax.Data)
	}
	return math.Sqrt(num / den)
}
