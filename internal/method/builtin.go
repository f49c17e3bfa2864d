package method

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asynclinalg/asyrgs/internal/coord"
	"github.com/asynclinalg/asyrgs/internal/core"
	"github.com/asynclinalg/asyrgs/internal/kaczmarz"
	"github.com/asynclinalg/asyrgs/internal/krylov"
	"github.com/asynclinalg/asyrgs/internal/lsq"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/vec"
)

// The built-in registry: every solver family of the repository, wired
// through the two-phase Prepare/Solve pipeline. Variants are separate
// entries so drivers and ablation tables are pure data; each entry's
// prepare hook captures the family's per-matrix state once.
func init() {
	registerCore := func(name string, baseOpts core.Options, sequential bool) {
		registerCoord(coordVariant{name: name, kind: SPD, family: core.Family,
			prepare: core.PrepareMatrix, weighted: baseOpts.DiagonalWeighted,
			system: func(c coordBase) PreparedSystem {
				p := &corePrepared{coordBase: c, baseOpts: baseOpts, sequential: sequential}
				p.baseOpts.Float32 = c.a32 != nil
				return p
			}})
	}
	registerCore("asyrgs", core.Options{}, false)
	registerCore("asyrgs-nonatomic", core.Options{NonAtomic: true}, false)
	registerCore("asyrgs-partitioned", core.Options{Partitioned: true}, false)
	registerCore("asyrgs-weighted", core.Options{DiagonalWeighted: true}, false)
	registerCore("rgs", core.Options{}, true)
	Register(&funcMethod{name: "cg", kind: SPD, prepare: cgPrepare})
	Register(&funcMethod{name: "fcg", kind: SPD, prepare: fcgPrepare})
	Register(&funcMethod{name: "jacobi", kind: SPD, prepare: stationaryPrepare("jacobi")})
	Register(&funcMethod{name: "gs", kind: SPD, prepare: stationaryPrepare("gs")})
	Register(&funcMethod{name: "asyncjacobi", kind: SPD, prepare: stationaryPrepare("asyncjacobi")})
	registerCoord(coordVariant{name: "kaczmarz", kind: SPD, family: kaczmarz.Family,
		prepare: kaczmarz.PrepareMatrix, weighted: true,
		system: func(c coordBase) PreparedSystem { return &kaczmarzPrepared{c} }})
	registerLSQ := func(name string, sequential, weighted bool) {
		registerCoord(coordVariant{name: name, kind: LeastSquares, family: lsq.Family,
			prepare: lsq.PrepareMatrix, weighted: weighted,
			system: func(c coordBase) PreparedSystem {
				return &lsqPrepared{coordBase: c, sequential: sequential, weighted: weighted}
			}})
	}
	registerLSQ("lsqcd", true, false)
	registerLSQ("lsqcd-async", false, false)
	registerLSQ("lsqcd-weighted", true, true)
}

// coordVariant is a registry entry of a coordinate family (core,
// kaczmarz, lsq), whose per-matrix state is a coord.Prep.
type coordVariant struct {
	name     string
	kind     Kind
	family   *coord.Family
	prepare  func(a *sparse.CSR) (*coord.Prep, error)
	weighted bool // the variant samples through the alias table over W
	// system wraps the finished state in the family's PreparedSystem.
	system func(c coordBase) PreparedSystem
}

// coordBase is the prepared state every coordinate family's system
// shares.
type coordBase struct {
	preparedBase
	prep *coord.Prep
	// a32 is non-nil when the system was prepared with Precision "f32":
	// solvers iterate on the float32-storage view, and residuals read the
	// same view, so convergence is judged against the system actually
	// being solved.
	a32 *sparse.CSR32
}

func (c *coordBase) coordPrep() *coord.Prep { return c.prep }

// registerCoord registers a coordinate-family variant. Fresh preparation
// and store restores both end in finish, so both build identical systems.
func registerCoord(v coordVariant) {
	Register(&funcMethod{name: v.name, kind: v.kind,
		prepare: func(_ context.Context, a *sparse.CSR, opts Opts) (PreparedSystem, error) {
			prep, err := v.prepare(a)
			if err != nil {
				return nil, err
			}
			return v.finish(prep, opts)
		},
		encode: func(ps PreparedSystem) ([]byte, error) { return encodePrepared(v.family, ps) },
		decode: func(a *sparse.CSR, payload []byte, opts Opts) (PreparedSystem, error) {
			prep, err := decodePrepared(v.family, a, payload)
			if err != nil {
				return nil, err
			}
			return v.finish(prep, opts)
		},
	})
}

// finish applies the prep-time option handling. The rounded view and the
// alias table are built eagerly, so underflow and weight errors surface
// at prepare time; both are memoized in the Prep, so the serving prep
// cache amortizes them.
func (v coordVariant) finish(prep *coord.Prep, opts Opts) (PreparedSystem, error) {
	f32, err := resolvePrecision(opts)
	if err != nil {
		return nil, err
	}
	c := coordBase{preparedBase: base(v.name, v.kind, prep.A), prep: prep}
	if f32 {
		view, err := prep.Float32()
		if err != nil {
			return nil, err
		}
		c.a32 = view.A
	}
	if v.weighted {
		if _, err := prep.Alias(); err != nil {
			return nil, err
		}
	}
	return v.system(c), nil
}

// resolvePrecision canonicalizes opts.Precision, reporting whether the
// float32 storage view was requested.
func resolvePrecision(opts Opts) (bool, error) {
	p, err := CanonPrecision(opts.Precision)
	if err != nil {
		return false, err
	}
	return p == "f32", nil
}

// rejectF32 is the prepare-time guard of the methods without a float32
// path: the Krylov recurrences and stationary baselines are not robust
// to a perturbed operator at their registered tolerances, and the
// sharded backend keeps one storage format across ranks.
func rejectF32(name string, opts Opts) error {
	f32, err := resolvePrecision(opts)
	if err != nil {
		return err
	}
	if f32 {
		return fmt.Errorf("method: %s does not support precision \"f32\"", name)
	}
	return nil
}

// ---------------------------------------------------------------------------
// AsyRGS / RGS family

// corePrepared is a core-family system: the shared coord.Prep (diagonal,
// reciprocal, memoized alias table) plus the variant flags. Each Solve
// runs a recycled core.Solver over it — the pool keeps warm solves
// allocation-free while the direction stream and delay statistics stay
// per-solve and preparation is paid exactly once.
type corePrepared struct {
	coordBase
	baseOpts   core.Options
	sequential bool
	// pool recycles solvers (with their direction and residual scratch)
	// across solves; concurrent solves each draw their own.
	pool sync.Pool
}

// fork readies a per-solve core.Solver over the shared prepared state,
// recycling a pooled one when available so the warm path allocates
// nothing. Callers must release the solver when the solve is done.
//
//asyrgs:noalloc
func (p *corePrepared) fork(opts Opts) (*core.Solver, error) {
	co := p.baseOpts
	co.Workers = opts.Workers
	if p.sequential {
		co.Workers = 1
	}
	co.Beta = opts.Beta
	co.Seed = opts.Seed
	co.Chunk = opts.Chunk
	co.MeasureDelay = opts.MeasureDelay
	co.Throttle = opts.Throttle
	if v := p.pool.Get(); v != nil {
		s := v.(*core.Solver)
		if err := s.Reinit(p.prep, co); err != nil {
			return nil, err
		}
		return s, nil
	}
	return core.NewFromPrep(p.prep, co)
}

// release returns a forked solver (and its scratch) to the pool.
//
//asyrgs:noalloc
func (p *corePrepared) release(s *core.Solver) { p.pool.Put(s) }

//asyrgs:noalloc
func (p *corePrepared) Solve(ctx context.Context, b, x []float64, opts Opts) (Result, error) {
	opts = opts.withDefaults()
	s, err := p.fork(opts)
	if err != nil {
		return Result{}, err
	}
	defer p.release(s)
	start := time.Now()
	res := Result{Method: p.name}
	for res.Sweeps < opts.MaxSweeps {
		if err := ctx.Err(); err != nil {
			return res, ctxErr(p.name, ctx)
		}
		step := min(opts.CheckEvery, opts.MaxSweeps-res.Sweeps)
		s.AsyncSweeps(x, b, step)
		res.Sweeps += step
		res.Residual = s.Residual(x, b)
		if opts.converged(res.Residual) {
			res.Converged = true
			break
		}
	}
	res.Iterations = s.Iterations()
	res.ObservedTau = s.ObservedTau()
	return res, finish(&res, p.a, x, opts, start, SPD)
}

// SolveBatch runs every right-hand side together through the core block
// iteration: each coordinate update touches the whole row-major RHS block
// (the paper's multi-RHS locality trick), and convergence is checked for
// all columns with one SpMM residual pass per CheckEvery sweeps.
func (p *corePrepared) SolveBatch(ctx context.Context, bs, xs [][]float64, opts Opts) ([]Result, error) {
	if len(bs) != len(xs) {
		panic("method: SolveBatch needs one initial guess per right-hand side")
	}
	c := len(bs)
	if c == 0 {
		return nil, nil
	}
	if c == 1 {
		res, err := p.Solve(ctx, bs[0], xs[0], opts)
		return []Result{res}, err
	}
	opts = opts.withDefaults()
	s, err := p.fork(opts)
	if err != nil {
		return nil, err
	}
	defer p.release(s)
	n := p.a.Rows
	bblk := vec.NewDense(n, c)
	xblk := vec.NewDense(n, c)
	for j := range bs {
		if len(bs[j]) != n || len(xs[j]) != n {
			panic("method: SolveBatch shape mismatch")
		}
		bblk.SetCol(j, bs[j])
		xblk.SetCol(j, xs[j])
	}
	flush := func() {
		for j := range xs {
			xblk.Col(xs[j], j)
		}
	}

	start := time.Now()
	results := make([]Result, c)
	done := 0
	var residuals []float64
	for done < opts.MaxSweeps {
		if err := ctx.Err(); err != nil {
			flush()
			stampBatch(results, p.name, start)
			return results, ctxErr(p.name, ctx)
		}
		step := min(opts.CheckEvery, opts.MaxSweeps-done)
		s.AsyncSweepsDense(xblk, bblk, step)
		done += step
		if p.a32 != nil {
			residuals = p.a32.BatchRelResiduals(bblk.Data, xblk.Data, c, opts.Workers)
		} else {
			residuals = p.a.BatchRelResiduals(bblk.Data, xblk.Data, c, opts.Workers)
		}
		all := true
		for _, r := range residuals {
			if !opts.converged(r) {
				all = false
				break
			}
		}
		if all {
			break
		}
	}
	flush()
	var firstErr error
	for j := range results {
		results[j] = Result{
			Residual: residuals[j], Converged: opts.converged(residuals[j]),
			Sweeps: done, Iterations: s.Iterations(), ObservedTau: s.ObservedTau(),
		}
		if !results[j].Converged && opts.Tol > 0 && firstErr == nil {
			firstErr = ErrNotConverged
		}
	}
	stampBatch(results, p.name, start)
	return results, firstErr
}

// ---------------------------------------------------------------------------
// Krylov methods

// cgPrepared wraps (parallel-SpMV) conjugate gradients. CG keeps no
// per-matrix state beyond the matrix itself, so preparation is trivially
// cheap; it still participates in the pipeline so serving caches treat
// every method uniformly.
type cgPrepared struct {
	preparedBase
}

func cgPrepare(_ context.Context, a *sparse.CSR, opts Opts) (PreparedSystem, error) {
	if err := rejectF32("cg", opts); err != nil {
		return nil, err
	}
	return &cgPrepared{preparedBase: base("cg", SPD, a)}, nil
}

func (p *cgPrepared) Solve(ctx context.Context, b, x []float64, opts Opts) (Result, error) {
	opts = opts.withDefaults()
	start := time.Now()
	cgRes, err := krylov.CG(p.a, x, b, krylov.CGOptions{
		Tol: effectiveTol(opts.Tol), MaxIter: opts.MaxSweeps, Workers: opts.Workers,
		Partition: sparse.PartitionRoundRobin, Ctx: ctx,
	})
	res := Result{
		Method:   p.name,
		Residual: cgRes.Residual, Converged: cgRes.Converged,
		Sweeps: cgRes.Iterations, Iterations: uint64(cgRes.Iterations),
	}
	if isCtxErr(err) {
		res.Wall = time.Since(start)
		return res, ctxErr(p.name, ctx)
	}
	return res, finish(&res, p.a, x, opts, start, SPD)
}

func (p *cgPrepared) SolveBatch(ctx context.Context, bs, xs [][]float64, opts Opts) ([]Result, error) {
	return solveColumns(ctx, p, bs, xs, opts)
}

// fcgPrepared is the paper's recommended high-accuracy configuration:
// Flexible-CG preconditioned by Opts.Inner sweeps of AsyRGS. The prepared
// state is the preconditioner's coord.Prep — the expensive part of FCG
// setup — shared across solves.
type fcgPrepared struct {
	preparedBase
	prep *coord.Prep
}

func fcgPrepare(_ context.Context, a *sparse.CSR, opts Opts) (PreparedSystem, error) {
	if err := rejectF32("fcg", opts); err != nil {
		return nil, err
	}
	prep, err := core.PrepareMatrix(a)
	if err != nil {
		return nil, err
	}
	return &fcgPrepared{preparedBase: base("fcg", SPD, a), prep: prep}, nil
}

func (p *fcgPrepared) Solve(ctx context.Context, b, x []float64, opts Opts) (Result, error) {
	opts = opts.withDefaults()
	s, err := core.NewFromPrep(p.prep, core.Options{
		Workers: opts.Workers, Beta: opts.Beta, Seed: opts.Seed,
		Throttle: opts.Throttle,
	})
	if err != nil {
		return Result{}, err
	}
	pre := krylov.PrecondFunc(func(z, r []float64) { s.Precondition(z, r, opts.Inner) })
	start := time.Now()
	fcgRes, err := krylov.FlexibleCG(p.a, x, b, pre, krylov.FCGOptions{
		Tol: effectiveTol(opts.Tol), MaxIter: opts.MaxSweeps, Workers: opts.Workers,
		Partition: sparse.PartitionRoundRobin, Ctx: ctx,
	})
	res := Result{
		Method:   p.name,
		Residual: fcgRes.Residual, Converged: fcgRes.Converged,
		Sweeps: fcgRes.Iterations, Iterations: s.Iterations(),
	}
	if isCtxErr(err) {
		res.Wall = time.Since(start)
		return res, ctxErr(p.name, ctx)
	}
	return res, finish(&res, p.a, x, opts, start, SPD)
}

func (p *fcgPrepared) SolveBatch(ctx context.Context, bs, xs [][]float64, opts Opts) ([]Result, error) {
	return solveColumns(ctx, p, bs, xs, opts)
}

// effectiveTol maps the registry's "non-positive tolerance = fixed work"
// convention onto the Krylov solvers, whose option structs replace a
// non-positive tolerance with their own defaults: an unreachably small
// positive value runs the full budget.
func effectiveTol(tol float64) float64 {
	if tol <= 0 {
		return 1e-300
	}
	return tol
}

// isCtxErr reports whether a solver error came from context
// cancellation.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ---------------------------------------------------------------------------
// Classical stationary baselines

// stationaryPrepared holds the prepared state of the Jacobi, Gauss–Seidel
// and chaotic-relaxation baselines: the reciprocal diagonal, extracted
// once per matrix instead of once per chunk of sweeps.
type stationaryPrepared struct {
	preparedBase
	inv []float64
}

func stationaryPrepare(name string) prepareFunc {
	return func(_ context.Context, a *sparse.CSR, opts Opts) (PreparedSystem, error) {
		if err := rejectF32(name, opts); err != nil {
			return nil, err
		}
		if a.Rows != a.Cols {
			return nil, errors.New("method: " + name + " needs a square matrix")
		}
		return &stationaryPrepared{
			preparedBase: base(name, SPD, a),
			inv:          krylov.InvDiag(a),
		}, nil
	}
}

func (p *stationaryPrepared) Solve(ctx context.Context, b, x []float64, opts Opts) (Result, error) {
	switch p.name {
	case "jacobi":
		return chunkedStationary(ctx, p.name, p.a, b, x, opts, func(chunk int, tol float64) krylov.StationaryResult {
			return krylov.JacobiWithInv(p.a, p.inv, x, b, chunk, tol, opts.Workers)
		})
	case "gs":
		return chunkedStationary(ctx, p.name, p.a, b, x, opts, func(chunk int, tol float64) krylov.StationaryResult {
			return krylov.GaussSeidelWithInv(p.a, p.inv, x, b, chunk, tol)
		})
	default: // asyncjacobi
		var iter atomic.Uint64 // the throttle hook is invoked from every worker
		return chunkedStationary(ctx, p.name, p.a, b, x, opts, func(chunk int, tol float64) krylov.StationaryResult {
			if opts.Throttle != nil {
				return krylov.AsyncJacobiThrottledWithInv(p.a, p.inv, x, b, chunk, opts.Workers, func(w, i int) {
					opts.Throttle(w, iter.Add(1)-1)
				})
			}
			return krylov.AsyncJacobiWithInv(p.a, p.inv, x, b, chunk, opts.Workers)
		})
	}
}

func (p *stationaryPrepared) SolveBatch(ctx context.Context, bs, xs [][]float64, opts Opts) ([]Result, error) {
	return solveColumns(ctx, p, bs, xs, opts)
}

// chunkedStationary runs a stationary iteration CheckEvery sweeps at a
// time, checking the context between chunks. Each chunk call re-runs a
// trailing residual matvec, so when the caller did not pick a granularity
// the default is a larger chunk than the shared CheckEvery=1 (the
// iterations stop early within a chunk once tol is met, so a big chunk
// cannot overshoot).
func chunkedStationary(ctx context.Context, name string, a *sparse.CSR, b, x []float64, opts Opts, sweep func(chunk int, tol float64) krylov.StationaryResult) (Result, error) {
	if opts.CheckEvery <= 0 {
		opts.CheckEvery = 16
	}
	opts = opts.withDefaults()
	n := uint64(a.Rows)
	start := time.Now()
	res := Result{Method: name}
	for res.Sweeps < opts.MaxSweeps {
		if err := ctx.Err(); err != nil {
			return res, ctxErr(name, ctx)
		}
		step := min(opts.CheckEvery, opts.MaxSweeps-res.Sweeps)
		sr := sweep(step, opts.Tol)
		res.Sweeps += sr.Sweeps
		res.Iterations += uint64(sr.Sweeps) * n
		res.Residual = sr.Residual
		if opts.converged(res.Residual) {
			res.Converged = true
			break
		}
	}
	return res, finish(&res, a, x, opts, start, SPD)
}

// ---------------------------------------------------------------------------
// Randomized Kaczmarz

// kaczmarzPrepared holds the Kaczmarz row norms and sampling table; one
// sweep is n row projections.
type kaczmarzPrepared struct {
	coordBase
}

func (p *kaczmarzPrepared) Solve(ctx context.Context, b, x []float64, opts Opts) (Result, error) {
	opts = opts.withDefaults()
	s, err := kaczmarz.NewFromPrep(p.prep, kaczmarz.Options{
		Workers: opts.Workers, Seed: opts.Seed, Beta: opts.Beta, Chunk: opts.Chunk,
		Float32: p.a32 != nil,
	})
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	res := Result{Method: p.name}
	for res.Sweeps < opts.MaxSweeps {
		if err := ctx.Err(); err != nil {
			return res, ctxErr(p.name, ctx)
		}
		step := min(opts.CheckEvery, opts.MaxSweeps-res.Sweeps)
		res.Residual = s.Iterations(x, b, step*p.a.Rows)
		res.Sweeps += step
		res.Iterations += uint64(step) * uint64(p.a.Rows)
		if opts.converged(res.Residual) {
			res.Converged = true
			break
		}
	}
	return res, finish(&res, p.a, x, opts, start, SPD)
}

func (p *kaczmarzPrepared) SolveBatch(ctx context.Context, bs, xs [][]float64, opts Opts) ([]Result, error) {
	return solveColumns(ctx, p, bs, xs, opts)
}

// ---------------------------------------------------------------------------
// §8 least-squares coordinate descent

// lsqPrepared holds the CSC view and column norms of the §8 least-squares
// coordinate descent: sequential iteration (20) or asynchronous iteration
// (21), drawing columns uniformly or — for lsqcd-weighted — with the
// ‖A e_j‖²-weighted alias table (the general Leventhal–Lewis
// distribution). One sweep is Cols coordinate steps; residuals are
// relative normal-equation residuals ‖Aᵀ(b−Ax)‖₂/‖Aᵀb‖₂.
type lsqPrepared struct {
	coordBase
	sequential bool
	weighted   bool
}

func (p *lsqPrepared) Solve(ctx context.Context, b, x []float64, opts Opts) (Result, error) {
	opts = opts.withDefaults()
	workers := opts.Workers
	if p.sequential {
		workers = 1
	}
	s, err := lsq.NewFromPrep(p.prep, lsq.Options{
		Workers: workers, Seed: opts.Seed, Beta: opts.Beta,
		NormWeighted: p.weighted, Chunk: opts.Chunk, Float32: p.a32 != nil,
	})
	if err != nil {
		return Result{}, err
	}
	// ‖Aᵀb‖₂ is the optimality residual at x = 0; reuse the solver's
	// CSC view instead of building another transpose.
	normATb := s.LSQResidual(make([]float64, p.a.Cols), b)
	if normATb == 0 {
		normATb = 1
	}
	start := time.Now()
	res := Result{Method: p.name}
	for res.Sweeps < opts.MaxSweeps {
		if err := ctx.Err(); err != nil {
			return res, ctxErr(p.name, ctx)
		}
		step := min(opts.CheckEvery, opts.MaxSweeps-res.Sweeps)
		s.Iterations(x, b, step*p.a.Cols)
		res.Sweeps += step
		res.Iterations += uint64(step) * uint64(p.a.Cols)
		res.Residual = s.LSQResidual(x, b) / normATb
		if opts.converged(res.Residual) {
			res.Converged = true
			break
		}
	}
	return res, finish(&res, p.a, x, opts, start, LeastSquares)
}

func (p *lsqPrepared) SolveBatch(ctx context.Context, bs, xs [][]float64, opts Opts) ([]Result, error) {
	return solveColumns(ctx, p, bs, xs, opts)
}
