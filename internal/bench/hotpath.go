package bench

import (
	"encoding/json"
	"io"
	"runtime"
	"time"

	"github.com/asynclinalg/asyrgs/internal/core"
	"github.com/asynclinalg/asyrgs/internal/sparse"
)

// HotpathRow is one cell of the sampler × workers × chunk × precision
// grid that measures the inner loop: uniform against O(1) alias-weighted
// sampling, chunked iteration claiming against one-CAS-per-iteration,
// and float32 value storage against float64 — all at fixed work. The
// BENCH_hotpath.json artifact CI regenerates on every PR is the
// serialized grid.
type HotpathRow struct {
	// Sampler is uniform | weighted-alias.
	Sampler string `json:"sampler"`
	// Precision is the matrix value-storage width: f64 | f32.
	Precision string `json:"precision"`
	// Kernel names the build's unrolled row-dot/axpy kernels ("unroll4",
	// or "unroll8-v3" under GOAMD64=v3).
	Kernel  string `json:"kernel"`
	Workers int    `json:"workers"`
	// Chunk is the claiming granularity; 0 reports the auto-sized default.
	Chunk      int     `json:"chunk"`
	Sweeps     int     `json:"sweeps"`
	Iterations uint64  `json:"iterations"`
	WallMS     float64 `json:"wall_ms"`     // median over Repeats
	NSPerIter  float64 `json:"ns_per_iter"` // WallMS normalised per coordinate update
	// BytesPerIter is the estimated cache footprint of one coordinate
	// update (mean row values + column indices + touched vector entries)
	// — the quantity the chunk auto-sizer fits to L2, halved on the value
	// side by f32 storage.
	BytesPerIter int `json:"bytes_per_iter"`
}

// hotpathSampler names one sampler configuration of the grid.
type hotpathSampler struct {
	name string
	opts core.Options
}

// Hotpath sweeps the direction-sampling and iteration-claiming hot path
// over samplers, worker counts, claiming chunk sizes and value-storage
// precisions, running fixed-work asynchronous sweeps on the Gram
// workload. f64 sweeps the full chunk grid; f32 runs at the auto-sized
// chunk only, keeping the grid linear rather than fully crossed in its
// cheap dimensions. Nil workers/chunks select defaults sized for CI. The
// direction multiset is identical across every cell of a sampler row
// (pure function of (seed, j), with weights kept float64 even at f32
// storage), so the grid isolates the cost of the selection structure,
// counter contention and memory traffic.
func (r *Runner) Hotpath(sweeps int, workers, chunks []int) []HotpathRow {
	r.Prepare()
	if sweeps <= 0 {
		sweeps = 4
	}
	if workers == nil {
		// Oversubscription (workers beyond GOMAXPROCS) still exercises
		// counter claiming — the paper's thread sweep does the same — so
		// the default grid is fixed, plus the machine's width when larger.
		workers = []int{1, 2, 4}
		if max := runtime.GOMAXPROCS(0); max > 4 {
			workers = append(workers, max)
		}
	}
	if chunks == nil {
		chunks = []int{1, 16, 64, 0}
	}
	repeats := r.Cfg.Repeats
	if repeats < 1 {
		repeats = 3
	}
	samplers := []hotpathSampler{
		{"uniform", core.Options{}},
		{"weighted-alias", core.Options{DiagonalWeighted: true}},
	}
	kernel := sparse.KernelName()

	prep, err := core.PrepareMatrix(r.Gram)
	if err != nil {
		panic(err)
	}
	n := r.Gram.Rows
	meanNNZ := r.Gram.NNZ() / n
	iters := uint64(sweeps) * uint64(n)

	cell := func(smp hotpathSampler, f32 bool, w, chunk int) HotpathRow {
		opts := smp.opts
		opts.Workers = w
		opts.Chunk = chunk
		opts.Seed = r.Cfg.Seed
		opts.Float32 = f32
		ds := make([]time.Duration, 0, repeats)
		for rep := 0; rep < repeats; rep++ {
			s, err := core.NewFromPrep(prep, opts)
			if err != nil {
				panic(err)
			}
			x := make([]float64, n)
			ds = append(ds, timeIt(func() { s.AsyncSweeps(x, r.b1, sweeps) }))
		}
		med := median(ds)
		precision, valBytes := "f64", 8
		if f32 {
			precision, valBytes = "f32", 4
		}
		row := HotpathRow{
			Sampler: smp.name, Precision: precision, Kernel: kernel,
			Workers: w, Chunk: chunk,
			Sweeps: sweeps, Iterations: iters,
			WallMS:       ms(med),
			NSPerIter:    float64(med.Nanoseconds()) / float64(iters),
			BytesPerIter: meanNNZ*(valBytes+8) + 24,
		}
		r.printf("%-16s %-5s %-12s %-8d %-7d %-10.3f %-10.1f\n",
			row.Sampler, row.Precision, row.Kernel, row.Workers, row.Chunk, row.WallMS, row.NSPerIter)
		return row
	}

	r.printf("\n== Hotpath grid: sampler × precision × workers × chunk (%d fixed sweeps on n=%d, median of %d) ==\n", sweeps, n, repeats)
	r.printf("%-16s %-5s %-12s %-8s %-7s %-10s %-10s\n", "sampler", "prec", "kernel", "workers", "chunk", "wall-ms", "ns/iter")
	var rows []HotpathRow
	for _, smp := range samplers {
		for _, w := range workers {
			// Chunk sweep at f64, then f32 at the auto-sized chunk.
			for _, chunk := range chunks {
				rows = append(rows, cell(smp, false, w, chunk))
			}
			rows = append(rows, cell(smp, true, w, 0))
		}
	}
	return rows
}

// WriteHotpathJSON writes the hotpath grid as an indented JSON baseline
// (the CI artifact BENCH_hotpath.json).
func WriteHotpathJSON(w io.Writer, rows []HotpathRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
