// Allocation regression tests for the warm path: once a system is
// prepared and the solver pool is warm, a sequential fixed-work Solve for
// the core family must not allocate at all — the direction buffer,
// residual scratch and the solver itself are all recycled — and no
// family's convergence check allocates. Run in CI's plain test step; skipped under -race, where the
// detector's instrumentation changes allocation accounting.
package method_test

import (
	"context"
	"errors"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/method"
	"github.com/asynclinalg/asyrgs/internal/race"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/workload"
)

func TestWarmPreparedSolveZeroAllocCoreFamily(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under -race")
	}
	a := workload.RandomSPD(300, 6, 1.5, 17)
	b := workload.RandomRHS(300, 18)
	for _, name := range []string{"asyrgs", "asyrgs-weighted", "asyrgs-partitioned", "rgs"} {
		t.Run(name, func(t *testing.T) {
			m, err := method.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			// Workers: 1 pins the sequential path: the asynchronous one
			// spawns goroutines, which allocate by nature (their stacks),
			// and is exercised by the hotpath benchmarks instead.
			opts := method.Opts{Tol: 0, MaxSweeps: 2, CheckEvery: 2, Workers: 1, Seed: 9}
			ps, err := method.Prepare(context.Background(), m, a, opts)
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, 300)
			solve := func() {
				if _, err := ps.Solve(context.Background(), b, x, opts); err != nil && !errors.Is(err, method.ErrNotConverged) {
					t.Fatal(err)
				}
			}
			solve() // warm the solver pool and its scratch
			if avg := testing.AllocsPerRun(20, solve); avg != 0 {
				t.Fatalf("warm prepared Solve allocated %.1f times per run, want 0", avg)
			}
		})
	}
}

// TestWarmSolveAllocsFlatInChecks covers the families whose solvers are
// forked per solve (kaczmarz, lsqcd): a solve allocates its solver and
// scratch once, but a convergence check must not allocate, so a warm
// solve checked every sweep allocates as often at 16 sweeps as at 4.
func TestWarmSolveAllocsFlatInChecks(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under -race")
	}
	spd := workload.RandomSPD(300, 6, 1.5, 17)
	tall := workload.RandomOverdetermined(300, 120, 4, 5)
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
	}{{"kaczmarz", spd}, {"lsqcd", tall}, {"lsqcd-weighted", tall}} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := method.Get(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			b := workload.RandomRHS(tc.a.Rows, 18)
			allocs := func(sweeps int) float64 {
				opts := method.Opts{Tol: 0, MaxSweeps: sweeps, CheckEvery: 1, Workers: 1, Seed: 9}
				ps, err := method.Prepare(context.Background(), m, tc.a, opts)
				if err != nil {
					t.Fatal(err)
				}
				x := make([]float64, tc.a.Cols)
				solve := func() {
					if _, err := ps.Solve(context.Background(), b, x, opts); err != nil && !errors.Is(err, method.ErrNotConverged) {
						t.Fatal(err)
					}
				}
				solve()
				return testing.AllocsPerRun(20, solve)
			}
			if a4, a16 := allocs(4), allocs(16); a4 != a16 {
				t.Fatalf("warm solve allocated %.1f times at 4 checks and %.1f at 16: a check allocates", a4, a16)
			}
		})
	}
}

// TestChunkOptFlowsThroughRegistry checks the -chunk plumbing: an
// explicit claiming granularity must reach the core solver and still
// execute the exact iteration budget.
func TestChunkOptFlowsThroughRegistry(t *testing.T) {
	a := workload.RandomSPD(80, 5, 1.5, 19)
	b := workload.RandomRHS(80, 20)
	m, err := method.Get("asyrgs")
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 32, 10000} {
		x := make([]float64, 80)
		res, err := m.Solve(context.Background(), a, b, x, method.Opts{
			Tol: 0, MaxSweeps: 4, CheckEvery: 4, Workers: 4, Chunk: chunk, Seed: 2,
		})
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if res.Iterations != 4*80 {
			t.Fatalf("chunk=%d: executed %d iterations, want %d", chunk, res.Iterations, 4*80)
		}
	}
	x := make([]float64, 80)
	if _, err := m.Solve(context.Background(), a, b, x, method.Opts{MaxSweeps: 1, Chunk: -3}); err == nil {
		t.Fatal("negative chunk must be rejected")
	}
}
