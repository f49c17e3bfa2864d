package core

import (
	"github.com/asynclinalg/asyrgs/internal/coord"
	"github.com/asynclinalg/asyrgs/internal/vec"
)

// AsyncSweeps runs sweeps·n asynchronous iterations of AsyRGS with
// Options.Workers goroutines sharing the iterate x, then returns once every
// worker has drained. This is the inconsistent-read execution the paper
// evaluates: entries of x are read with plain loads while other workers
// update them, writes are atomic CAS adds (unless Options.NonAtomic), and
// there is no coordination beyond the global iteration counter that hands
// out direction indices.
//
// Because direction d_j is a pure function of (seed, j), the multiset of
// directions consumed is identical for every worker count; only the
// interleaving (the delays k(j)/K(j) of the governing iterations (8)/(9))
// changes. That is precisely the controlled comparison of the paper's §9.
func (s *Solver) AsyncSweeps(x, b []float64, sweeps int) {
	n := s.a.Rows
	if len(x) != n || len(b) != n {
		panic("core: AsyncSweeps shape mismatch")
	}
	workers := s.opts.Workers
	if workers <= 1 {
		// A single worker never observes concurrent updates: every
		// iteration has delay zero. Recording them keeps the histogram
		// total invariant to the worker count.
		s.sweepInline(x, b, sweeps, 1)
		return
	}
	c := s.config(workers)
	start, end := s.advance(sweeps)
	var body coord.Body
	if s.a32 != nil {
		body = vecRule[float32]{s.a32.View(), s.invD, s.beta, x, b}.body(workers, s.opts.NonAtomic)
	} else {
		body = vecRule[float64]{s.a.View(), s.invD, s.beta, x, b}.body(workers, s.opts.NonAtomic)
	}
	coord.Run(&c, start, end, body)
}

// AsyncSweepsDense is AsyncSweeps for a row-major multi-right-hand-side
// block: all columns share the direction sequence, and each coordinate
// update writes the Cols entries of row r (each atomically unless
// NonAtomic).
func (s *Solver) AsyncSweepsDense(x, b *vec.Dense, sweeps int) {
	s.runDense(x, b, sweeps, max(s.opts.Workers, 1))
}

// SolveAsync iterates asynchronously until the relative residual drops
// below tol or maxSweeps sweeps are spent. The residual check is a
// synchronization point (as in the paper's occasional-synchronization
// scheme), performed every checkEvery sweeps (1 if zero).
func (s *Solver) SolveAsync(x, b []float64, tol float64, maxSweeps, checkEvery int) (Result, error) {
	if checkEvery <= 0 {
		checkEvery = 1
	}
	done := 0
	for done < maxSweeps {
		step := checkEvery
		if done+step > maxSweeps {
			step = maxSweeps - done
		}
		s.AsyncSweeps(x, b, step)
		done += step
		if res := s.Residual(x, b); res <= tol {
			return Result{Sweeps: done, Iterations: s.next, Residual: res, Converged: true, ObservedTau: s.ObservedTau()}, nil
		}
	}
	res := s.Residual(x, b)
	return Result{Sweeps: done, Iterations: s.next, Residual: res, ObservedTau: s.ObservedTau()}, ErrNotConverged
}

// Precondition approximates z ≈ A⁻¹·r by running the configured number of
// AsyRGS sweeps from a zero initial guess. It makes the Solver usable as
// the flexible (nondeterministic, iteration-varying) preconditioner of the
// paper's Flexible-CG experiments; the krylov package consumes it through
// its Preconditioner interface.
func (s *Solver) Precondition(z, r []float64, sweeps int) {
	for i := range z {
		z[i] = 0
	}
	s.AsyncSweeps(z, r, sweeps)
}
