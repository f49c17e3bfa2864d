package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/asynclinalg/asyrgs/internal/method"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

// Per-layer probes of a traced run. Each times one layer's public entry
// point, repeats it and keeps the median.

// fixedSweeps is the fixed work of the speedup probes (the paper's Fig. 1
// measure: time per update at 1 and at nproc workers, same work).
const (
	fixedSweeps  = 10
	probeRepeats = 7
	// lsqTol is the least-squares probe's normal-equation residual.
	lsqTol = 1e-3
	// serveProbeSeconds is the traced phase of the serve-warm probe.
	serveProbeSeconds = 1
)

// layerProbes measures the sparse, core, krylov and lsq layers, each on
// the inputs of the workload it belongs to, generated from seed: solve-spd's
// Gram matrix for the kernels, the core engine and FCG, serve-cold's
// MatrixMarket texts for sparse.ReadMM, and the generator's term–document
// matrix for the §8 least-squares engine. Every traced run reports these
// the same way, so a value means the same thing on every workload.
func layerProbes(seed uint64, m map[string]metric, d details) error {
	gram, docs := workload.SocialGram(workload.DefaultSocialGram(socialTerms, seed))
	_, texts, err := coldInputs(seed, coldPerClient)
	if err != nil {
		return err
	}
	if err := sparseProbe(gram, texts, m, d); err != nil {
		return err
	}
	if err := coreProbe(gram, m, d); err != nil {
		return err
	}
	if err := krylovProbe(gram, seed, m, d); err != nil {
		return err
	}
	return lsqProbe(docs, workload.RandomRHS(docs.Rows, seed), m, d)
}

// sparseProbe times (*CSR).MulVec on a and sparse.ReadMM on the
// MatrixMarket texts.
func sparseProbe(a *sparse.CSR, texts []string, m map[string]metric, d details) error {
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1 + float64(i%7)/7
	}
	y := make([]float64, a.Rows)
	// Batch calls so each sample lasts at least ~1 ms.
	reps := max(1, 1_000_000/(a.NNZ()+1))
	var samples []float64
	for s := 0; s < 31; s++ {
		start := time.Now()
		for r := 0; r < reps; r++ {
			a.MulVec(y, x)
		}
		samples = append(samples, float64(time.Since(start))/float64(reps*a.NNZ()))
	}
	m["sparse.spmv_ns_per_nnz"] = metric{median(samples), "ns"}
	// Compulsory traffic of one CSR MulVec, computed, not measured:
	// values and column indices per nonzero, row pointers and y per row,
	// x once.
	nnz := float64(a.NNZ())
	bytesPer := (16*nnz + 8*float64(a.Rows+1) + 8*float64(a.Rows) + 8*float64(a.Cols)) / nnz
	m["sparse.spmv_bytes_per_nnz"] = metric{bytesPer, "B"}
	d["sparse.spmv_bytes_per_nnz"] = "computed: 8 B value + 8 B column index per nonzero, plus row pointer, y and x once"

	var parse []float64
	for s := 0; s < 3; s++ {
		for _, body := range texts {
			start := time.Now()
			got, err := sparse.ReadMM(strings.NewReader(body))
			el := time.Since(start)
			if err != nil {
				return fmt.Errorf("ReadMM: %w", err)
			}
			parse = append(parse, float64(el)/float64(got.NNZ()))
		}
	}
	m["sparse.readmm_ns_per_nnz"] = metric{median(parse), "ns"}
	return nil
}

// fixedWork runs ps for fixedSweeps at the given worker count and returns
// ns per coordinate update.
func fixedWork(ps method.PreparedSystem, b []float64, workers int, seed uint64, measureDelay bool) (float64, method.Result, error) {
	x := make([]float64, ps.Matrix().Cols)
	res, err := ps.Solve(context.Background(), b, x, method.Opts{
		MaxSweeps: fixedSweeps, Workers: workers, Seed: seed, MeasureDelay: measureDelay})
	if err != nil && !errors.Is(err, method.ErrNotConverged) {
		return 0, res, err
	}
	return float64(res.Wall) / float64(max(res.Iterations, 1)), res, nil
}

// speedupProbe times fixed work at 1 and nproc workers, alternating, and
// records ns per update and their ratio under prefix.
func speedupProbe(prefix string, ps method.PreparedSystem, b []float64, m map[string]metric) error {
	p := runtime.NumCPU()
	var w1, wp []float64
	for r := 0; r < probeRepeats; r++ {
		for _, w := range []int{1, p} {
			ns, _, err := fixedWork(ps, b, w, uint64(r)+1, false)
			if err != nil {
				return fmt.Errorf("%s fixed work: %w", prefix, err)
			}
			if w == 1 {
				w1 = append(w1, ns)
			} else {
				wp = append(wp, ns)
			}
		}
	}
	m[prefix+".ns_per_update.w1"] = metric{median(w1), "ns"}
	m[prefix+".ns_per_update.wP"] = metric{median(wp), "ns"}
	m[prefix+".speedup"] = metric{median(w1) / median(wp), "x"}
	return nil
}

func prepare(name string, a *sparse.CSR) (method.PreparedSystem, error) {
	meth, err := method.Get(name)
	if err != nil {
		return nil, err
	}
	return method.Prepare(context.Background(), meth, a, method.Opts{})
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// coreProbe measures the asynchronous coordinate engine through the
// asyrgs method on the SPD matrix a.
func coreProbe(a *sparse.CSR, m map[string]metric, d details) error {
	ps, err := prepare("asyrgs", a)
	if err != nil {
		return err
	}
	b := ones(a.Rows)
	if err := speedupProbe("core", ps, b, m); err != nil {
		return err
	}
	// Delay bookkeeping forces one iteration per claim, so τ̂ is
	// measured in its own runs and never timed.
	var taus []float64
	for r := 0; r < probeRepeats; r++ {
		_, res, err := fixedWork(ps, b, runtime.NumCPU(), uint64(r)+1, true)
		if err != nil {
			return err
		}
		taus = append(taus, float64(res.ObservedTau))
	}
	m["core.observed_tau"] = metric{median(taus), "count"}
	d["core.observed_tau"] = spread(taus)
	return nil
}

// lsqProbe measures the §8 least-squares engine (lsqcd-async) on the
// system (a, b): time per update at fixed work, and sweeps to lsqTol at 1
// and nproc workers.
func lsqProbe(a *sparse.CSR, b []float64, m map[string]metric, d details) error {
	ps, err := prepare("lsqcd-async", a)
	if err != nil {
		return err
	}
	if err := speedupProbe("lsq", ps, b, m); err != nil {
		return err
	}
	for _, w := range []int{1, runtime.NumCPU()} {
		var sw []float64
		for r := 0; r < 3; r++ {
			x := make([]float64, a.Cols)
			res, err := ps.Solve(context.Background(), b, x, method.Opts{
				Tol: lsqTol, MaxSweeps: 300, Workers: w, Seed: uint64(r) + 1})
			if err != nil && !errors.Is(err, method.ErrNotConverged) {
				return fmt.Errorf("lsq sweeps probe: %w", err)
			}
			sw = append(sw, float64(res.Sweeps))
		}
		name := "lsq.sweeps.w1"
		if w > 1 {
			name = "lsq.sweeps.wP"
		}
		m[name] = metric{median(sw), "count"}
		d[name] = spread(sw)
	}
	return nil
}

// krylovProbe runs solve-spd's solve (fcg, AsyRGS preconditioner, Inner
// 2, nproc workers) on a three times.
func krylovProbe(a *sparse.CSR, seed uint64, m map[string]metric, d details) error {
	ps, err := prepare("fcg", a)
	if err != nil {
		return err
	}
	b, _ := workload.RHSForSolution(a, seed*solveRHS)
	var its, per []float64
	for r := 0; r < 3; r++ {
		x := make([]float64, a.Cols)
		opts := spdOpts()
		opts.Seed = uint64(r) + 1
		res, err := ps.Solve(context.Background(), b, x, opts)
		if err != nil {
			return fmt.Errorf("fcg probe: %w", err)
		}
		its = append(its, float64(res.Sweeps))
		per = append(per, ms(res.Wall)/float64(max(res.Sweeps, 1)))
	}
	m["krylov.iterations"] = metric{median(its), "count"}
	m["krylov.ms_per_iteration"] = metric{median(per), "ms"}
	d["krylov.iterations"] = spread(its)
	return nil
}

// serveProbe runs serve-warm in miniature — its set-up, then a traced
// closed loop of serveProbeSeconds — and derives the serving-layer
// metrics from it, for a workload that has no server of its own.
func serveProbe(seed uint64, tr *tracer, m map[string]metric, d details) error {
	w, err := setupServeWarm(seed, tr)
	if err != nil {
		return err
	}
	b := w.(*serveBench)
	before, err := b.counters()
	if err != nil {
		return err
	}
	mark := tr.mark()
	ph := timed(b, serveProbeSeconds, tr)
	after, err := b.counters()
	if err != nil {
		return err
	}
	if extra, failed, reasons := b.verify(ph.ops); failed > 0 {
		return fmt.Errorf("serve probe: %d of %d requests failed: %v", failed, len(ph.ops)+extra, reasons)
	}
	d["serve.source"] = fmt.Sprintf("serve-warm probe, %d requests", len(ph.ops))
	return serveMetrics(tr.since(mark), before, after, b.bodies, m, d)
}
