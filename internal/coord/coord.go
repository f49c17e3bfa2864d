// Package coord is the asynchronous coordinate engine shared by the
// coordinate solver families: AsyRGS (core, vector and row-major block
// right-hand sides), randomized Kaczmarz (kaczmarz) and least-squares
// coordinate descent (lsq). All of them are the paper's Algorithm 1 —
// claim an iteration index, draw a coordinate from the Philox stream,
// read, update — and differ only in the update, so the loop lives here
// once:
//
//   - Run executes global iterations [start, end) on P workers. In the
//     default mode the workers race over one shared counter, claiming
//     chunks of indices per atomic add; a Partitioned sampler instead
//     gives each worker its own contiguous slice of the range. SyncPeriod
//     splits the range into barrier-separated segments, and P ≤ 1 runs
//     on the calling goroutine (Inline).
//   - Sampler maps an index to a coordinate (uniform, alias-weighted or
//     partitioned), a pure function of (seed, index), so every worker
//     count and chunk size replays the identical direction multiset.
//   - Delay is the observed-asynchrony bookkeeping (τ̂ and its histogram).
//   - SizeFor sizes the claimed chunk from the budget and the L2 cache.
//   - Prep is the per-matrix state every family prepares once (matrix,
//     per-line sampling weights and divisor, alias table, float32 view).
//
// A family supplies its update rule as a Body, which Run calls once per
// claimed chunk. The family picks the rule's precision and atomicity
// before calling Run, so the inner loops carry no per-iteration branch on
// either and there is no per-iteration indirect call — except under the
// Throttle hook or delay measurement, which run the body one iteration at
// a time.
package coord

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"github.com/asynclinalg/asyrgs/internal/rng"
)

// Body is an update rule: it executes, as worker w and in order, the
// iterations whose coordinates are picks. Concurrent calls from different
// workers share the iterate, so a rule run with more than one worker must
// use atomic accesses (or be a deliberately racy ablation).
type Body func(worker int, picks []int32)

// InlineChunk is the direction-buffer length callers hand to Inline. It
// only amortizes generator and call overhead: the direction at index j is
// a pure function of (seed, j), so the sequence is independent of it.
const InlineChunk = 512

// Config describes how Run executes a range of global iterations.
type Config struct {
	Sampler Sampler
	Stream  rng.Stream
	// Workers is the number of goroutines P; P ≤ 1 runs inline.
	Workers int
	// SyncPeriod, when positive, inserts a full barrier across workers
	// every SyncPeriod iterations.
	SyncPeriod int
	// Chunk is the number of indices a worker claims at a time; zero
	// auto-sizes from the segment length, Workers and RowBytes (see
	// SizeFor). Delay measurement forces 1.
	Chunk int
	// RowBytes estimates the bytes one iteration touches, for the
	// cache-aware chunk cap.
	RowBytes int
	// Throttle, when non-nil, is invoked before every iteration of a
	// multi-worker run with the worker index and global iteration number.
	Throttle func(worker int, iteration uint64)
	// Delay, when non-nil, records the delay every iteration observed.
	Delay *Delay
}

// Run executes global iterations [start, end) and returns once every
// worker has drained. Body receives each claimed chunk once.
func Run(c *Config, start, end uint64, body Body) {
	if c.Workers <= 1 {
		Inline(c, start, end, make([]int32, InlineChunk), body)
		return
	}
	if p := uint64(c.SyncPeriod); p > 0 {
		// Occasional synchronization: run in barriers of p iterations.
		for lo := start; lo < end; lo += p {
			segment(c, lo, min(lo+p, end), body)
		}
		return
	}
	segment(c, start, end, body)
}

// Inline is Run's single-worker path: it executes [start, end) in order
// on the calling goroutine, generating directions into picks (any
// positive length, see InlineChunk) one buffer at a time. There is no
// concurrency to measure or to throttle: every iteration is recorded at
// delay zero and Throttle is not invoked. Passing a retained buffer keeps
// a warm solve allocation-free.
//
//asyrgs:noalloc
func Inline(c *Config, start, end uint64, picks []int32, body Body) {
	for base := start; base < end; {
		m := picks
		if rem := end - base; rem < uint64(len(m)) {
			m = m[:rem]
		}
		c.Sampler.Fill(c.Stream, base, m, 0)
		body(0, m)
		base += uint64(len(m))
	}
	if c.Delay != nil {
		c.Delay.hist[0].Add(end - start)
	}
}

// segment runs [lo, hi) on c.Workers goroutines and waits for them.
//
// With a shared counter, whoever is scheduled claims the next chunk, so
// the budget is spent at the maximum rate the machine allows. A
// partitioned sampler ties coordinates to workers, where a shared counter
// would let a starved scheduler spend the whole budget inside one block;
// each worker instead receives its own contiguous slice of the range, so
// every block gets its share regardless of scheduling — which is also how
// a distributed deployment behaves.
func segment(c *Config, lo, hi uint64, body Body) {
	t := &team{c: *c, body: body, chunk: 1, shared: c.Sampler.kind != samplerPartitioned}
	if c.Delay == nil {
		t.chunk = uint64(SizeFor(c.Chunk, hi-lo, c.Workers, c.RowBytes))
	}
	if t.shared {
		t.claimed.Store(lo)
	}
	// One direction buffer for the team, each worker's slice padded to
	// whole 64-byte lines so no two workers write the same line.
	stride := (t.chunk + 15) &^ 15
	picks := make([]int32, uint64(c.Workers)*stride)
	span, p := hi-lo, uint64(c.Workers)
	t.wg.Add(c.Workers)
	for w := uint64(0); w < p; w++ {
		wlo, whi := lo, hi
		if !t.shared {
			wlo, whi = lo+w*span/p, lo+(w+1)*span/p
		}
		go t.work(int(w), wlo, whi, picks[w*stride:w*stride+t.chunk])
	}
	t.wg.Wait()
}

// team is the state one segment's workers share.
type team struct {
	c      Config
	body   Body
	chunk  uint64
	shared bool // claim from the counter; otherwise walk an owned slice
	// claimed is the segment's claim count: the shared counter itself,
	// or, with owned slices, a counter each worker advances per claimed
	// index when measuring delay.
	claimed atomic.Uint64
	wg      sync.WaitGroup
}

// work claims chunks until worker w's range [lo, hi) is exhausted (with
// a shared counter only hi bounds it): one atomic add per chunk instead
// of one per iteration, with the chunk's directions generated into picks
// in a single pass.
func (t *team) work(w int, lo, hi uint64, picks []int32) {
	defer t.wg.Done()
	// Locals keep the loop off the line the shared counter bounces on.
	smp, stream, body, chunk, shared := t.c.Sampler, t.c.Stream, t.body, t.chunk, t.shared
	perIteration := t.c.Throttle != nil || t.c.Delay != nil
	next := lo
	//asyrgs:boundedloop both claim sources are monotone; every pass takes chunk>=1 indices and exits once base passes hi
	for {
		base := next
		if shared {
			base = t.claimed.Add(chunk) - chunk
		}
		if base >= hi {
			return
		}
		top := min(base+chunk, hi)
		next = top
		m := picks[:top-base]
		smp.Fill(stream, base, m, w)
		if !perIteration {
			body(w, m)
			continue
		}
		for k := range m {
			t.step(w, base+uint64(k), m[k:k+1])
		}
	}
}

// step runs iteration j alone, under the Throttle hook and the delay
// bookkeeping. The delay of iteration j is the number of iterations other
// workers claimed between j's claim and j's commit — a lower bound on the
// updates it may have missed. The mark is taken at the claim, before
// Throttle and the read phase, so a stall anywhere inside the iteration
// is seen.
func (t *team) step(w int, j uint64, pick []int32) {
	c := &t.c
	var mark uint64
	if c.Delay != nil {
		if t.shared {
			mark = j + 1 // chunk 1: claiming j advanced the counter to j+1
		} else {
			mark = t.claimed.Add(1)
		}
	}
	if c.Throttle != nil {
		c.Throttle(w, j)
	}
	t.body(w, pick)
	if c.Delay != nil {
		c.Delay.observe(t.claimed.Load() - mark)
	}
}

// delayBuckets is the number of power-of-two delay histogram buckets; 2⁶³
// exceeds any possible delay, so the histogram never saturates.
const delayBuckets = 64

// Delay accumulates observed asynchrony across runs: the largest delay τ̂
// and a power-of-two histogram (bucket 0 counts delay 0, bucket k ≥ 1
// counts delays in [2^(k-1), 2^k)). Workers update it atomically.
type Delay struct {
	max  atomic.Uint64
	hist [delayBuckets]atomic.Uint64
}

// observe raises the recorded max delay with a CAS loop and counts the
// observation into the histogram.
func (d *Delay) observe(v uint64) {
	d.hist[bits.Len64(v)].Add(1)
	for {
		cur := d.max.Load()
		if v <= cur || d.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Max returns the largest delay observed.
func (d *Delay) Max() int { return int(d.max.Load()) }

// Histogram returns the delay histogram, trimmed after its last non-zero
// bucket.
func (d *Delay) Histogram() []uint64 {
	out := make([]uint64, 0, delayBuckets)
	last := 0
	for i := range d.hist {
		c := d.hist[i].Load()
		if c != 0 {
			last = i
		}
		out = append(out, c)
	}
	return out[:last+1]
}

// Reset clears the statistics.
func (d *Delay) Reset() { *d = Delay{} }
