package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/asynclinalg/asyrgs/internal/method"
	"github.com/asynclinalg/asyrgs/internal/serve"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

// Size of solve-spd. socialTerms puts the Gram matrix at about 662k
// nonzeros (10.6 MB), past the L2 cache.
const (
	socialTerms = 4000
	solveRHS    = 4 // distinct right-hand sides, cycled over the ops
	spdTol      = 1e-8
	warmSweeps  = 5
)

// spdOpts are solve-spd's solver options: fcg with the AsyRGS
// preconditioner (Inner 2) to spdTol at nproc workers.
func spdOpts() method.Opts {
	return method.Opts{Tol: spdTol, MaxSweeps: 500, Inner: 2, Workers: runtime.NumCPU()}
}

// solveBench runs one prepared system through PreparedSystem.Solve from a
// single caller: no HTTP, no serving layer.
type solveBench struct {
	seed uint64
	a    *sparse.CSR
	rhs  [][]float64
	ps   method.PreparedSystem
	opts method.Opts
	ops  atomic.Int64
}

func setupSolveSPD(seed uint64, tr *tracer) (bench, error) {
	b := &solveBench{seed: seed, opts: spdOpts()}
	id := tr.begin("workload.gen", -1, -1)
	b.a, _ = workload.SocialGram(workload.DefaultSocialGram(socialTerms, seed))
	for k := 0; k < solveRHS; k++ {
		rhs, _ := workload.RHSForSolution(b.a, seed*solveRHS+uint64(k))
		b.rhs = append(b.rhs, rhs)
	}
	tr.end(id, 0)

	m, err := method.Get("fcg")
	if err != nil {
		return nil, err
	}
	id = tr.begin("method.Prepare", -1, -1)
	b.ps, err = method.Prepare(context.Background(), m, b.a, b.opts)
	tr.end(id, 0)
	if err != nil {
		return nil, err
	}
	// Warm-up: a few sweeps of fixed work at the measured worker count,
	// so lazy state and the heap settle; a full solve would put the
	// run-to-run noise of a whole solve into set-up.
	id = tr.begin("warmup", -1, -1)
	warm := b.opts
	warm.Tol, warm.MaxSweeps = 0, warmSweeps
	_, err = b.ps.Solve(context.Background(), b.rhs[0], make([]float64, b.a.Cols), warm)
	tr.end(id, 0)
	if err != nil && !errors.Is(err, method.ErrNotConverged) {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	return b, nil
}

func (b *solveBench) clients() int { return 1 }

func (b *solveBench) describe() map[string]any {
	return map[string]any{
		"rows": b.a.Rows, "cols": b.a.Cols, "nnz": b.a.NNZ(),
		"method": b.ps.Method(), "tol": b.opts.Tol, "workers": b.opts.Workers, "rhs": len(b.rhs),
	}
}

func (b *solveBench) op(ctx context.Context, _ int, tr *tracer) opResult {
	k := int(b.ops.Add(1) - 1)
	idx := k % len(b.rhs)
	x := make([]float64, b.a.Cols)
	opts := b.opts
	opts.Seed = uint64(k) + 1
	ps := b.ps
	id := tr.begin("op", int64(k), -1)
	if tr != nil {
		ps = &tracedPrepared{PreparedSystem: b.ps, tr: tr}
		ctx = withOp(ctx, int64(k), id)
	}
	start := time.Now()
	res, err := ps.Solve(ctx, b.rhs[idx], x, opts)
	lat := time.Since(start)
	tr.end(id, uint64(res.Sweeps))
	out := opResult{lat: lat, sweeps: res.Sweeps, idx: idx, x: x}
	switch {
	case err != nil:
		out.fail = "solve error"
	case !res.Converged:
		out.fail = "not converged"
	case math.IsNaN(res.Residual) || math.IsInf(res.Residual, 0):
		out.fail = "non-finite residual"
	case res.Residual > b.opts.Tol:
		out.fail = "reported residual above tol"
	}
	return out
}

// verify recomputes every op's residual ‖b−Ax‖/‖b‖ from its iterate.
func (b *solveBench) verify(ops []opResult) (int, int, map[string]int) {
	reasons := map[string]int{}
	failed := 0
	for _, o := range ops {
		if o.fail == "" {
			if r := relResidual(b.a, b.rhs[o.idx], o.x); !(r <= b.opts.Tol) {
				o.fail = "recomputed residual above tol"
			}
		}
		if o.fail != "" {
			failed++
			reasons[o.fail]++
		}
	}
	return 0, failed, reasons
}

// relResidual is ‖b−Ax‖/‖b‖.
func relResidual(a *sparse.CSR, b, x []float64) float64 {
	r := make([]float64, a.Rows)
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return norm(r) / norm(b)
}

func norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func (b *solveBench) counters() (serve.Stats, error) { return serve.Stats{}, nil }

// serveLayer has no server to observe on solve-spd, so the serving
// metrics come from a short serve-warm probe. The traced ops' iteration
// counts go to the details line.
func (b *solveBench) serveLayer(tr *tracer, run traceRun, m map[string]metric, d details) error {
	var its []float64
	for _, o := range run.ops {
		its = append(its, float64(o.sweeps))
	}
	d["krylov.iterations.ops"] = spread(its)
	return serveProbe(b.seed, tr, m, d)
}
