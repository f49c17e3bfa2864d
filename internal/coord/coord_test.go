package coord

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/asynclinalg/asyrgs/internal/rng"
)

// counts tallies how often each coordinate was handed to a body.
type counts []atomic.Uint64

func (c counts) body(_ int, picks []int32) {
	for _, p := range picks {
		c[p].Add(1)
	}
}

// TestRunReplaysDirectionMultiset runs one index range under every
// scheduling mode — inline, shared counter at several chunk sizes,
// barrier segments, the per-iteration Throttle path and owned slices —
// and checks the bodies received exactly the coordinates the sampler
// assigns to those indices: nothing dropped, nothing run twice.
func TestRunReplaysDirectionMultiset(t *testing.T) {
	const n, start, end = 37, 5, 905
	stream := rng.NewStream(11)
	// expect draws every index once, by the worker that owns it: the
	// owner matters only to a partitioned sampler.
	expect := func(smp Sampler, workers int) []uint64 {
		if smp.kind != samplerPartitioned {
			workers = 1
		}
		want := make([]uint64, n)
		span, p := uint64(end-start), uint64(workers)
		for w := uint64(0); w < p; w++ {
			for j := start + w*span/p; j < start+(w+1)*span/p; j++ {
				want[smp.Pick(stream, j, int(w))]++
			}
		}
		return want
	}
	throttle := func(int, uint64) {}
	for _, tc := range []struct {
		name string
		c    Config
	}{
		{"inline", Config{Sampler: Uniform(n)}},
		{"shared-auto", Config{Sampler: Uniform(n), Workers: 3}},
		{"shared-chunk1", Config{Sampler: Uniform(n), Workers: 3, Chunk: 1}},
		{"shared-chunk7", Config{Sampler: Uniform(n), Workers: 4, Chunk: 7}},
		{"sync-period", Config{Sampler: Uniform(n), Workers: 3, SyncPeriod: 100, Chunk: 9}},
		{"throttled", Config{Sampler: Uniform(n), Workers: 3, Chunk: 5, Throttle: throttle}},
		{"delay", Config{Sampler: Uniform(n), Workers: 2, Delay: &Delay{}}},
		{"owned", Config{Sampler: Partitioned(n, 3), Workers: 3, Chunk: 4}},
		{"owned-delay", Config{Sampler: Partitioned(n, 3), Workers: 3, Delay: &Delay{}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.c
			c.Stream = stream
			got := make(counts, n)
			Run(&c, start, end, got.body)
			want := expect(c.Sampler, c.Workers)
			for i := range want {
				if g := got[i].Load(); g != want[i] {
					t.Fatalf("coordinate %d drawn %d times, want %d", i, g, want[i])
				}
			}
			if c.Delay != nil {
				var total uint64
				for _, h := range c.Delay.Histogram() {
					total += h
				}
				if total != end-start {
					t.Fatalf("delay histogram counts %d iterations, want %d", total, end-start)
				}
			}
		})
	}
}

// TestInlineRecordsZeroDelay checks the single-worker bookkeeping: every
// iteration is recorded at delay zero and the throttle hook never runs.
func TestInlineRecordsZeroDelay(t *testing.T) {
	var d Delay
	c := Config{Sampler: Uniform(10), Stream: rng.NewStream(1), Delay: &d,
		Throttle: func(int, uint64) { t.Fatal("throttle invoked on the inline path") }}
	got := make(counts, 10)
	Inline(&c, 0, 1234, make([]int32, 100), got.body)
	if h := d.Histogram(); len(h) != 1 || h[0] != 1234 || d.Max() != 0 {
		t.Fatalf("inline delay record %v (max %d), want [1234] (max 0)", h, d.Max())
	}
	d.Reset()
	if h := d.Histogram(); len(h) != 1 || h[0] != 0 {
		t.Fatalf("Reset left %v", h)
	}
}

// TestSharedDelayMeasuresStall stalls the first iteration to reach the
// Throttle hook until the other workers have claimed every remaining
// index of the shared counter: that iteration's delay counts them all.
// The stall is not tied to a worker id, because with a fast body the
// others can drain the counter before a given worker is scheduled.
func TestSharedDelayMeasuresStall(t *testing.T) {
	var stalled atomic.Bool
	var calls atomic.Int64
	var d Delay
	c := Config{Sampler: Uniform(50), Stream: rng.NewStream(2), Workers: 4, Delay: &d,
		Throttle: func(int, uint64) {
			calls.Add(1)
			if stalled.CompareAndSwap(false, true) {
				// Polled with a deadline, so a broken engine fails the
				// check below instead of hanging the test.
				for deadline := time.Now().Add(10 * time.Second); calls.Load() < 1000 && time.Now().Before(deadline); {
					time.Sleep(50 * time.Microsecond)
				}
			}
		}}
	Run(&c, 0, 1000, make(counts, 50).body)
	if d.Max() < 500 {
		t.Fatalf("observed τ̂ = %d across a stall, want ≥ 500", d.Max())
	}
}
