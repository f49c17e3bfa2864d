package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asynclinalg/asyrgs/internal/serve"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

// Shapes of the serving workloads. warm: a few small generator-spec
// systems, all prepared during set-up, sent by nproc clients. cold: one
// client sends inline MatrixMarket bodies, coldPerClient distinct
// matrices cycled through LRUs of coldLRU entries, so every timed
// request misses both caches. One client keeps the cold latency the
// ingestion cost of a request rather than the interference of two
// allocation-heavy requests and their garbage collection, which made it
// swing by a third between runs.
const (
	warmN         = 400
	warmSystems   = 2
	warmRHS       = 16
	warmRequests  = 100 // warm-up requests per client during set-up
	coldN         = 5000
	coldPerClient = 4
	coldLRU       = 2
	serveTol      = 1e-6
	serveSweeps   = 5000
	verifyBodies  = 4 // bodies re-sent with include_solution after the run
)

// serveBench drives an in-process asyrgsd handler with closed-loop
// clients: each waits for its reply before sending the next request.
type serveBench struct {
	cold    bool
	h       http.Handler
	nclient int
	seed    uint64
	reqs    []serve.SolveRequest // one per body
	bodies  [][]byte             // untraced method names
	tbodies [][]byte             // traced method names (traced runs only)
	mats    []*sparse.CSR        // the benchmark's own copy of each system
	matOf   []int                // reqs[i] solves mats[matOf[i]]
	// next counts, per client, the requests it has sent across set-up and
	// both phases of a traced run, so the serve-cold cycle never restarts.
	next []int
	ops  atomic.Int64
}

func newServeBench(cold bool, seed uint64, nclient int) *serveBench {
	return &serveBench{cold: cold, seed: seed, nclient: nclient, next: make([]int, nclient)}
}

func setupServeWarm(seed uint64, tr *tracer) (bench, error) {
	b := newServeBench(false, seed, runtime.NumCPU())
	id := tr.begin("workload.gen", -1, -1)
	for s := 0; s < warmSystems; s++ {
		spec := serve.MatrixSpec{Kind: "randomspd", N: warmN, NNZ: 6, Dominance: 1.5, Seed: seed*warmSystems + uint64(s)}
		b.mats = append(b.mats, workload.RandomSPD(spec.N, spec.NNZ, spec.Dominance, spec.Seed))
		for r := 0; r < warmRHS; r++ {
			b.reqs = append(b.reqs, serve.SolveRequest{Matrix: spec, Method: "asyrgs",
				Tol: serveTol, MaxSweeps: serveSweeps, Workers: 1, RHSSeed: seed*warmRHS + uint64(r) + 1})
			b.matOf = append(b.matOf, s)
		}
	}
	err := b.encode(tr != nil)
	tr.end(id, 0)
	if err != nil {
		return nil, err
	}
	b.h = serve.New(serve.Config{}).Handler()
	// Prepare every system (under both method names in a traced run),
	// then a fixed number of closed-loop warm-up requests.
	for s := 0; s < warmSystems; s++ {
		for _, bodies := range [][][]byte{b.bodies, b.tbodies} {
			if bodies != nil {
				if fail := b.send(context.Background(), bodies[s*warmRHS], -1, tr); fail != "" {
					return nil, fmt.Errorf("priming request: %s", fail)
				}
			}
		}
	}
	if err := b.warmup(warmRequests); err != nil {
		return nil, err
	}
	return b, nil
}

func setupServeCold(seed uint64, tr *tracer) (bench, error) {
	b := newServeBench(true, seed, 1)
	id := tr.begin("workload.gen", -1, -1)
	mats, texts, err := coldInputs(seed, coldPerClient*b.nclient)
	if err != nil {
		return nil, err
	}
	b.mats = mats
	for i, mm := range texts {
		b.reqs = append(b.reqs, serve.SolveRequest{Matrix: serve.MatrixSpec{Kind: "mm", MM: mm},
			Method: "asyrgs", Tol: serveTol, MaxSweeps: serveSweeps, Workers: 1, RHSSeed: seed + uint64(i) + 1})
		b.matOf = append(b.matOf, i)
	}
	err = b.encode(tr != nil)
	tr.end(id, 0)
	if err != nil {
		return nil, err
	}
	b.h = serve.New(serve.Config{CacheSize: coldLRU, PrepCacheSize: coldLRU}).Handler()
	// One pass over every client's matrices.
	if err := b.warmup(coldPerClient); err != nil {
		return nil, err
	}
	return b, nil
}

// coldInputs generates serve-cold's n matrices and their MatrixMarket
// texts (lower triangle).
func coldInputs(seed uint64, n int) ([]*sparse.CSR, []string, error) {
	var mats []*sparse.CSR
	var texts []string
	for i := 0; i < n; i++ {
		a := workload.RandomSPD(coldN, 6, 1.5, seed*1000+uint64(i))
		var mm strings.Builder
		if err := sparse.WriteMMSymmetric(&mm, a); err != nil {
			return nil, nil, fmt.Errorf("writing MatrixMarket: %w", err)
		}
		mats = append(mats, a)
		texts = append(texts, mm.String())
	}
	return mats, texts, nil
}

// encode renders the request bodies once, outside the timed phase.
func (b *serveBench) encode(traced bool) error {
	for _, r := range b.reqs {
		body, err := json.Marshal(r)
		if err != nil {
			return err
		}
		b.bodies = append(b.bodies, body)
		if traced {
			r.Method = tracedPrefix + r.Method
			if body, err = json.Marshal(r); err != nil {
				return err
			}
			b.tbodies = append(b.tbodies, body)
		}
	}
	return nil
}

// warmup sends n untraced requests per client, all clients at once.
func (b *serveBench) warmup(n int) error {
	var wg sync.WaitGroup
	fails := make([]string, b.nclient)
	for c := 0; c < b.nclient; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < n && fails[c] == ""; k++ {
				fails[c] = b.send(context.Background(), b.bodies[b.pick(c)], -1, nil)
			}
		}(c)
	}
	wg.Wait()
	b.ops.Store(0)
	for _, f := range fails {
		if f != "" {
			return fmt.Errorf("warm-up request: %s", f)
		}
	}
	return nil
}

func (b *serveBench) send(ctx context.Context, body []byte, op int64, tr *tracer) string {
	return post(ctx, b.h, body, serveTol, op, tr).fail
}

// pick chooses the body client c sends next. serve-warm mixes systems
// pseudo-randomly so concurrent same-system requests can coalesce;
// serve-cold cycles each client through its own matrices, so between two
// uses of one matrix the client itself inserts coldPerClient−1 > coldLRU
// others into both LRUs.
func (b *serveBench) pick(c int) int {
	k := b.next[c]
	b.next[c]++
	if b.cold {
		return c*coldPerClient + k%coldPerClient
	}
	return int(splitmix(b.seed<<32^uint64(c)<<24^uint64(k)) % uint64(len(b.bodies)))
}

func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (b *serveBench) clients() int { return b.nclient }

func (b *serveBench) describe() map[string]any {
	nnz := 0
	for _, a := range b.mats {
		nnz += a.NNZ()
	}
	bodyBytes := 0
	for _, body := range b.bodies {
		bodyBytes += len(body)
	}
	return map[string]any{
		"systems": len(b.mats), "rows": b.mats[0].Rows, "cols": b.mats[0].Cols,
		"nnz_mean": float64(nnz) / float64(len(b.mats)), "bodies": len(b.bodies),
		"body_bytes_mean": float64(bodyBytes) / float64(len(b.bodies)),
		"clients":         b.nclient, "workers_per_request": 1, "method": "asyrgs", "tol": serveTol,
	}
}

func (b *serveBench) op(ctx context.Context, c int, tr *tracer) opResult {
	idx := b.pick(c)
	body := b.bodies[idx]
	if tr != nil {
		body = b.tbodies[idx]
	}
	res := post(ctx, b.h, body, serveTol, b.ops.Add(1)-1, tr)
	res.idx = idx
	if res.fail == "" && b.cold && (res.resp.cacheHit || res.resp.prepHit) {
		res.fail = "serve-cold request hit a cache"
	}
	return res
}

// serveOutcome is what the benchmark keeps of one response.
type serveOutcome struct {
	cacheHit, prepHit bool
	x                 []float64
}

// post sends one /solve request straight into the handler and checks
// the reply: a 2xx status, a parseable non-empty body, a finite
// converged residual within the requested tolerance. The latency is
// the handler call; decoding the reply is the client's and untimed.
func post(ctx context.Context, h http.Handler, body []byte, tol float64, op int64, tr *tracer) opResult {
	id := tr.begin("serve.handler", op, -1)
	if tr != nil {
		ctx = withOp(ctx, op, id)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/solve", bytes.NewReader(body))
	if err != nil {
		tr.end(id, 0)
		return opResult{fail: "building request"}
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	lat := time.Since(start)
	tr.end(id, 0)
	out := opResult{lat: lat}
	var resp serve.SolveResponse
	switch {
	case rec.Code < 200 || rec.Code > 299:
		out.fail = fmt.Sprintf("status %d", rec.Code)
	case rec.Body.Len() == 0:
		out.fail = "empty body"
	case json.Unmarshal(rec.Body.Bytes(), &resp) != nil:
		out.fail = "unparseable body"
	case math.IsNaN(resp.Residual) || math.IsInf(resp.Residual, 0):
		out.fail = "non-finite residual"
	case !resp.Converged:
		out.fail = "not converged"
	case resp.Residual > tol:
		out.fail = "reported residual above tol"
	}
	out.sweeps = resp.Sweeps
	out.resp = &serveOutcome{cacheHit: resp.CacheHit, prepHit: resp.PrepHit, x: resp.X}
	return out
}

// verify re-sends verifyBodies bodies, spread over the inputs, with
// include_solution and recomputes ‖b−Ax‖/‖b‖ from the benchmark's own
// copy of the system and right-hand side.
func (b *serveBench) verify(ops []opResult) (int, int, map[string]int) {
	reasons := map[string]int{}
	failed := 0
	for _, o := range ops {
		if o.fail != "" {
			failed++
			reasons[o.fail]++
		}
	}
	extra := 0
	for i := 0; i < min(verifyBodies, len(b.reqs)); i++ {
		idx := i * len(b.reqs) / verifyBodies
		r := b.reqs[idx]
		r.IncludeSolution = true
		body, err := json.Marshal(r)
		extra++
		fail := "encoding check request"
		if err == nil {
			out := post(context.Background(), b.h, body, r.Tol, -1, nil)
			fail = out.fail
			if fail == "" {
				a := b.mats[b.matOf[idx]]
				rhs, _ := workload.RHSForSolution(a, r.RHSSeed)
				if len(out.resp.x) != a.Cols {
					fail = "solution missing"
				} else if res := relResidual(a, rhs, out.resp.x); !(res <= r.Tol) {
					fail = "recomputed residual above tol"
				}
			}
		}
		if fail != "" {
			failed++
			reasons["check: "+fail]++
		}
	}
	return extra, failed, reasons
}

func fetchStats(h http.Handler) (serve.Stats, error) {
	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var st serve.Stats
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("/stats status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return st, fmt.Errorf("/stats: %w", err)
	}
	return st, nil
}

func (b *serveBench) counters() (serve.Stats, error) { return fetchStats(b.h) }

func (b *serveBench) serveLayer(_ *tracer, run traceRun, m map[string]metric, d details) error {
	d["serve.source"] = "traced half"
	return serveMetrics(run.phase, run.before, run.after, b.bodies, m, d)
}

// serveMetrics derives the serving-layer metrics from the spans of a
// traced phase and the /stats counters around it.
func serveMetrics(ss []span, before, after serve.Stats, bodies [][]byte, m map[string]metric, d details) error {
	handler := durations(ss, "serve.handler")
	if len(handler) == 0 {
		return fmt.Errorf("no handler spans recorded")
	}
	self := selfTimes(ss, "serve.handler", map[string]bool{
		"method.Prepare": true, "method.Solve": true, "method.SolveBatch": true})
	m["serve.handler_ms.p50"] = metric{median(handler), "ms"}
	m["serve.self_ms.p50"] = metric{median(self), "ms"}
	d["serve.handler_ms"] = spread(handler)
	d["serve.self_ms"] = spread(self)

	// json.Unmarshal into serve.SolveRequest, the handler's first stage.
	var dec []float64
	for s := 0; s < 5; s++ {
		for _, body := range bodies {
			var r serve.SolveRequest
			start := time.Now()
			err := json.Unmarshal(body, &r)
			dec = append(dec, ms(time.Since(start)))
			if err != nil {
				return fmt.Errorf("decoding request: %w", err)
			}
		}
	}
	m["serve.decode_ms"] = metric{median(dec), "ms"}

	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	phits := float64(after.PrepCache.Hits - before.PrepCache.Hits)
	pmisses := float64(after.PrepCache.Misses - before.PrepCache.Misses)
	solved := float64(after.Solved - before.Solved)
	batches := float64(after.Batches - before.Batches)
	coalesced := float64(after.CoalescedRequests - before.CoalescedRequests)
	m["serve.matrix_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["serve.prep_hit_ratio"] = metric{ratio(phits, phits+pmisses), "ratio"}
	m["serve.batch_width"] = metric{ratio(solved, batches), "count"}
	m["serve.coalesced_ratio"] = metric{ratio(coalesced, solved), "ratio"}
	d["serve.counts"] = map[string]float64{
		"matrix_hits": hits, "matrix_misses": misses, "prep_hits": phits, "prep_misses": pmisses,
		"solved": solved, "batches": batches, "coalesced_requests": coalesced,
		"requests": float64(after.Requests - before.Requests),
		"errors":   float64(after.Errors - before.Errors), "rejected": float64(after.Rejected - before.Rejected),
	}
	return nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
