// Command perfbench is the repository's end-to-end benchmark. It drives
// the solver stack only through its public entry points — the workload
// generators, method.Prepare / PreparedSystem.Solve, the sparse kernels
// and an in-process asyrgsd handler — and prints one JSON result line.
//
//	perfbench --workload solve-spd --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (setup_s,
// ops_per_s, latency_ms.p50, latency_ms.p90). With --trace 1 the timed
// phase is split into an untraced and a traced half, spans are recorded
// around every call into the layers, and the result carries the
// per-layer metrics plus the tracing overhead. NOTES.md explains the
// workloads and the choice of metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"github.com/asynclinalg/asyrgs/internal/serve"
)

// setupRepeats is how many times a run builds its workload from scratch;
// setup_s is the median, the last build is the one measured.
const setupRepeats = 5

// workloadDef is one set of inputs the benchmark can run.
type workloadDef struct {
	name string
	// setup generates the inputs from the seed and readies the system
	// under test up to its first timed op.
	setup func(seed uint64, tr *tracer) (bench, error)
}

var workloads = []workloadDef{
	{"solve-spd", setupSolveSPD},
	{"serve-warm", setupServeWarm},
	{"serve-cold", setupServeCold},
}

// bench is a workload after set-up.
type bench interface {
	// clients is the number of closed-loop callers.
	clients() int
	// op runs client c's next operation; tr is nil in the untraced
	// phase. It returns the op's outcome without verifying anything that
	// needs recomputation.
	op(ctx context.Context, c int, tr *tracer) opResult
	// verify re-checks the outputs outside the timed phase and returns
	// the extra ops it sent and how many of all ops failed.
	verify(ops []opResult) (extra, failed int, reasons map[string]int)
	// counters reads the serving layer's /stats (zero when the workload
	// has no server).
	counters() (serve.Stats, error)
	// serveLayer derives the serving-layer metrics: from the traced half
	// on serve-*, from a serve-warm probe on solve-spd.
	serveLayer(tr *tracer, run traceRun, m map[string]metric, d details) error
	// describe reports the workload's dimensions.
	describe() map[string]any
}

// opResult is one op's outcome.
type opResult struct {
	lat  time.Duration
	fail string // empty when the op passed its inline check
	// Workload-specific data kept for verify and the layer metrics.
	sweeps int
	idx    int // input index the op used
	x      []float64
	resp   *serveOutcome
}

// metric is one entry of the result's metrics object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// traceRun is the traced half of a traced run.
type traceRun struct {
	phase         []span // spans recorded during the traced half
	ops           []opResult
	before, after serve.Stats
}

// details is the line printed before the result: run metadata, bases of
// every ratio, sample counts and spreads.
type details map[string]any

func main() {
	name := flag.String("workload", "", "workload: solve-spd|serve-warm|serve-cold")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	traceOut := flag.String("trace-out", ".bench_build/spans.jsonl", "file the traced run writes its spans to")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int, traceOut string) error {
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	traced := trace == 1
	var tr *tracer
	if traced {
		tr = newTracer()
		registerTraced(tr)
	}
	d := details{"meta": meta(name, seed, seconds, traced)}

	var b bench
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		// Each set-up, and later each timed phase, starts from a collected
		// heap, so garbage from an earlier set-up is not charged to it.
		runtime.GC()
		start := time.Now()
		var err error
		if b, err = w.setup(seed, tr); err != nil {
			return fmt.Errorf("setup %s: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	d["workload"] = b.describe()
	d["setup_s"] = setups

	res := result{Metrics: map[string]metric{}}
	runtime.GC()
	if !traced {
		ph := timed(b, seconds, nil)
		extra, failed, reasons := b.verify(ph.ops)
		res.Attempted, res.Failed = len(ph.ops)+extra, failed
		ph.report(d, "timed")
		d["failures"] = reasons
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["ops_per_s"] = metric{ph.opsPerSec(), "1/s"}
		res.Metrics["latency_ms.p50"] = metric{ph.latencyMS(50), "ms"}
		res.Metrics["latency_ms.p90"] = metric{ph.latencyMS(90), "ms"}
	} else {
		// Untraced half first (end-to-end reference and runtime
		// counters), then the traced half.
		setupSpans := tr.since(0)
		mem0 := readMem()
		plain := timed(b, seconds/2, nil)
		mem1 := readMem()
		before, err := b.counters()
		if err != nil {
			return err
		}
		runtime.GC()
		mark := tr.mark()
		spanned := timed(b, seconds/2, tr)
		after, err := b.counters()
		if err != nil {
			return err
		}
		half := traceRun{phase: tr.since(mark), ops: spanned.ops, before: before, after: after}
		all := append(append([]opResult(nil), plain.ops...), spanned.ops...)
		extra, failed, reasons := b.verify(all)
		res.Attempted, res.Failed = len(all)+extra, failed
		plain.report(d, "untraced")
		spanned.report(d, "traced")
		d["failures"] = reasons
		commonLayerMetrics(res.Metrics, d, setupSpans, half.phase, plain, spanned, mem0, mem1)
		if err := b.serveLayer(tr, half, res.Metrics, d); err != nil {
			return fmt.Errorf("serving layer: %w", err)
		}
		if err := layerProbes(seed, res.Metrics, d); err != nil {
			return fmt.Errorf("layer probes: %w", err)
		}
		d["trace.spans"] = tr.mark()
		// Every traced run reports every per-layer metric, whether or not
		// its workload exercises the layer.
		for _, name := range perLayer {
			if _, ok := res.Metrics[name]; !ok {
				return fmt.Errorf("per-layer metric %s was not measured", name)
			}
		}
		if err := tr.write(traceOut); err != nil {
			return err
		}
	}
	res.Correct = res.Failed == 0
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", k)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(d); err != nil {
		return err
	}
	return enc.Encode(res)
}

// meta describes the host and build the run measured.
func meta(name string, seed uint64, seconds float64, traced bool) map[string]any {
	goamd64 := "v1"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				goamd64 = s.Value
			}
		}
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "traced": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"goamd64": goamd64, "go": runtime.Version(), "goarch": runtime.GOARCH,
		"commit": commit,
	}
}

// phase is one timed closed-loop phase.
type phase struct {
	ops  []opResult
	wall time.Duration
}

// timed runs b's clients in a closed loop until the budget has elapsed;
// each client finishes the op it is in. Wall time runs from the start to
// the completion of the last op.
func timed(b bench, seconds float64, tr *tracer) phase {
	n := b.clients()
	per := make([][]opResult, n)
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for first := true; first || time.Now().Before(deadline); first = false {
				per[c] = append(per[c], b.op(ctx, c, tr))
			}
		}(c)
	}
	wg.Wait()
	ph := phase{wall: time.Since(start)}
	for _, ops := range per {
		ph.ops = append(ph.ops, ops...)
	}
	return ph
}

func (p phase) passed() int {
	n := 0
	for _, o := range p.ops {
		if o.fail == "" {
			n++
		}
	}
	return n
}

// opsPerSec is completed ops that passed their check over measured wall
// time.
func (p phase) opsPerSec() float64 { return float64(p.passed()) / p.wall.Seconds() }

// latencies returns every op's latency in ms, ascending; a failed op
// ranks last, at the phase's wall time (no op can have taken longer).
func (p phase) latencies() []float64 {
	ls := make([]float64, len(p.ops))
	for i, o := range p.ops {
		ls[i] = ms(o.lat)
		if o.fail != "" {
			ls[i] = ms(p.wall)
		}
	}
	sort.Float64s(ls)
	return ls
}

func (p phase) latencyMS(q float64) float64 {
	v, _ := nearestRank(p.latencies(), q)
	return v
}

// report records the phase's sample counts and exact quantiles.
func (p phase) report(d details, key string) {
	ls := p.latencies()
	var sweeps []float64
	for _, o := range p.ops {
		sweeps = append(sweeps, float64(o.sweeps))
	}
	qs := map[string]any{}
	for _, q := range []float64{50, 90, 99} {
		v, beyond := nearestRank(ls, q)
		qs[fmt.Sprintf("p%g", q)] = map[string]any{"ms": v, "beyond": beyond}
	}
	d[key] = map[string]any{
		"ops": len(p.ops), "passed": p.passed(), "wall_s": p.wall.Seconds(),
		"ops_per_s": p.opsPerSec(), "latency_ms": qs,
		"latency_ms_min": ls[0], "latency_ms_max": ls[len(ls)-1],
		"sweeps": spread(sweeps),
	}
}

// nearestRank returns the exact nearest-rank q-th percentile of the
// ascending samples and how many samples lie beyond it.
func nearestRank(sorted []float64, q float64) (float64, int) {
	n := len(sorted)
	r := int(math.Ceil(q / 100 * float64(n)))
	r = min(max(r, 1), n)
	return sorted[r-1], n - r
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _ := nearestRank(s, 50)
	return v
}

// spread summarizes a per-op count across a run.
func spread(xs []float64) map[string]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return nil
	}
	p25, _ := nearestRank(s, 25)
	p50, _ := nearestRank(s, 50)
	p75, _ := nearestRank(s, 75)
	return map[string]float64{"n": float64(len(s)), "min": s[0], "p25": p25, "p50": p50, "p75": p75, "max": s[len(s)-1]}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perLayer names every metric a traced run reports.
var perLayer = []string{
	"workload.gen_s",
	"sparse.spmv_ns_per_nnz", "sparse.spmv_bytes_per_nnz", "sparse.readmm_ns_per_nnz",
	"core.ns_per_update.w1", "core.ns_per_update.wP", "core.speedup", "core.observed_tau",
	"krylov.iterations", "krylov.ms_per_iteration",
	"lsq.ns_per_update.w1", "lsq.ns_per_update.wP", "lsq.speedup", "lsq.sweeps.w1", "lsq.sweeps.wP",
	"method.prepare_ms", "method.solve_ms",
	"serve.handler_ms.p50", "serve.self_ms.p50", "serve.decode_ms",
	"serve.matrix_hit_ratio", "serve.prep_hit_ratio", "serve.batch_width", "serve.coalesced_ratio",
	"runtime.allocs_per_op", "runtime.bytes_per_op", "runtime.gc_cycles", "runtime.gc_pause_ms",
	"trace.overhead_pct",
}

// commonLayerMetrics derives the metrics every workload reports the same
// way: generator and prepare time from the set-up spans, solve time from
// the traced half, runtime counters from the untraced half, and the
// tracing overhead as the difference of the two halves' median latency.
func commonLayerMetrics(m map[string]metric, d details, setup, traced []span, plain, spanned phase, mem0, mem1 runtime.MemStats) {
	gen := durations(setup, "workload.gen")
	m["workload.gen_s"] = metric{median(gen) / 1000, "s"}
	prep := durations(append(append([]span(nil), setup...), traced...), "method.Prepare")
	m["method.prepare_ms"] = metric{median(prep), "ms"}
	d["method.prepare_ms"] = spread(prep)
	solo := durations(traced, "method.Solve")
	batch := durations(traced, "method.SolveBatch")
	m["method.solve_ms"] = metric{median(append(solo, batch...)), "ms"}
	d["method.solve_calls"] = map[string]int{"solve": len(solo), "solve_batch": len(batch)}

	ops := float64(len(plain.ops))
	m["runtime.allocs_per_op"] = metric{float64(mem1.Mallocs-mem0.Mallocs) / ops, "count"}
	m["runtime.bytes_per_op"] = metric{float64(mem1.TotalAlloc-mem0.TotalAlloc) / ops, "B"}
	m["runtime.gc_cycles"] = metric{float64(mem1.NumGC - mem0.NumGC), "count"}
	m["runtime.gc_pause_ms"] = metric{float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6, "ms"}

	p0, p1 := plain.latencyMS(50), spanned.latencyMS(50)
	m["trace.overhead_pct"] = metric{100 * (p1 - p0) / p0, "%"}
	d["trace.overhead"] = map[string]float64{
		"untraced_p50_ms": p0, "traced_p50_ms": p1,
		"untraced_ops_per_s": plain.opsPerSec(), "traced_ops_per_s": spanned.opsPerSec(),
	}
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}
