package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/race"
	"github.com/asynclinalg/asyrgs/internal/sparse"
)

// tinyConfig keeps the integration tests fast while still exercising every
// experiment path end to end.
func tinyConfig() Config {
	return Config{
		Terms:   250,
		RHSCols: 4,
		Threads: []int{1, 2, 4},
		Sweeps:  6,
		Repeats: 1,
		Seed:    7,
		Out:     io.Discard,
	}
}

func TestFig1Shape(t *testing.T) {
	r := NewRunner(tinyConfig())
	pts := r.Fig1(60)
	if len(pts) != 61 {
		t.Fatalf("expected 61 samples, got %d", len(pts))
	}
	// Both solvers must make progress over the run.
	if pts[60].RGSResidual >= pts[0].RGSResidual {
		t.Fatal("RGS made no progress")
	}
	if pts[60].CGResidual >= pts[0].CGResidual {
		t.Fatal("CG made no progress")
	}
	// The paper's long-run shape: CG ahead of RGS at the end.
	if pts[60].CGResidual > pts[60].RGSResidual {
		t.Fatalf("expected CG to win in the long run: CG=%v RGS=%v", pts[60].CGResidual, pts[60].RGSResidual)
	}
	// And RGS should be no worse than CG somewhere early (the fast
	// initial-progress property the paper emphasises).
	early := false
	for s := 1; s <= 20; s++ {
		if pts[s].RGSResidual <= pts[s].CGResidual {
			early = true
			break
		}
	}
	if !early {
		t.Fatal("RGS never led CG early — the Figure 1 shape is lost")
	}
}

func TestFig2LeftShape(t *testing.T) {
	r := NewRunner(tinyConfig())
	rows := r.Fig2Left()
	if len(rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(rows))
	}
	for _, row := range rows {
		if row.AsyRGSTime <= 0 || row.CGTime <= 0 {
			t.Fatalf("non-positive timing: %+v", row)
		}
	}
	if rows[0].AsyRGSSpeedup != 1 {
		t.Fatal("first row must be the speedup baseline")
	}
}

func TestFig2CenterShape(t *testing.T) {
	if race.Enabled {
		t.Skip("runs the deliberately racy NonAtomic ablation")
	}
	r := NewRunner(tinyConfig())
	rows := r.Fig2Center()
	for _, row := range rows {
		if row.Async <= 0 || row.AsyncNonAtomic <= 0 || row.Sync <= 0 {
			t.Fatalf("residuals must be positive: %+v", row)
		}
		// Paper shape: async within one order of magnitude of sync.
		if row.Async > 50*row.Sync {
			t.Fatalf("async residual %v catastrophically worse than sync %v at %d threads", row.Async, row.Sync, row.Threads)
		}
	}
}

func TestFig2RightShape(t *testing.T) {
	if race.Enabled {
		t.Skip("runs the deliberately racy NonAtomic ablation")
	}
	r := NewRunner(tinyConfig())
	rows := r.Fig2Right()
	for _, row := range rows {
		if row.Async <= 0 || row.Sync <= 0 {
			t.Fatalf("errors must be positive: %+v", row)
		}
		if row.Async > 50*row.Sync {
			t.Fatalf("async A-norm error %v catastrophically worse than sync %v", row.Async, row.Sync)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	cfg := tinyConfig()
	r := NewRunner(cfg)
	rows := r.Table1(1e-6, 4)
	if len(rows) != 7 {
		t.Fatalf("Table 1 must have 7 rows, got %d", len(rows))
	}
	// Inner sweeps are listed descending; outer iterations must be
	// (weakly) increasing as the preconditioner weakens.
	for i := 1; i < len(rows); i++ {
		if rows[i].InnerSweeps >= rows[i-1].InnerSweeps {
			t.Fatal("inner sweeps must descend")
		}
	}
	if rows[len(rows)-1].OuterIters < rows[0].OuterIters {
		t.Fatalf("1 inner sweep should need at least as many outer iterations as 30: %d vs %d",
			rows[len(rows)-1].OuterIters, rows[0].OuterIters)
	}
	for _, row := range rows {
		if row.MatOps != row.OuterIters*(row.InnerSweeps+1) {
			t.Fatalf("mat-ops accounting wrong: %+v", row)
		}
		if row.Time <= 0 || row.MatOpsPerS <= 0 {
			t.Fatalf("bad timing: %+v", row)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	cfg := tinyConfig()
	cfg.Threads = []int{1, 2}
	r := NewRunner(cfg)
	rows := r.Fig3(1e-6)
	if len(rows) != 4 { // 2 inner sweep counts × 2 thread counts
		t.Fatalf("expected 4 rows, got %d", len(rows))
	}
	for _, row := range rows {
		if row.OuterIters <= 0 || row.Time <= 0 {
			t.Fatalf("bad row: %+v", row)
		}
	}
}

func TestTheoryValidationBoundsHold(t *testing.T) {
	r := NewRunner(tinyConfig())
	rows := r.TheoryValidation(12, []int{2, 6}, 25, 4)
	if len(rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(rows))
	}
	for _, row := range rows {
		if !row.BoundOK {
			t.Fatalf("bound violated: %+v", row)
		}
		if row.Measured <= 0 {
			t.Fatalf("no progress measured: %+v", row)
		}
	}
}

func TestBetaSweepOptimalNotWorst(t *testing.T) {
	r := NewRunner(tinyConfig())
	rows := r.BetaSweep(10, 12, 20, []float64{0.25, 1.0})
	if len(rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(rows))
	}
	// The last row is β̃; under adversarial delay it must not be the worst
	// of the sampled step sizes.
	opt := rows[len(rows)-1].Error
	worst := 0.0
	for _, row := range rows[:len(rows)-1] {
		if row.Error > worst {
			worst = row.Error
		}
	}
	if opt > worst {
		t.Fatalf("β̃ error %v worse than every sampled β (worst %v)", opt, worst)
	}
}

func TestSyncPeriodSweepRuns(t *testing.T) {
	r := NewRunner(tinyConfig())
	rows := r.SyncPeriodSweep(4, 6, []int{0, 500})
	if len(rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(rows))
	}
	for _, row := range rows {
		if row.Error <= 0 {
			t.Fatalf("bad row %+v", row)
		}
	}
}

func TestLSQValidationConverges(t *testing.T) {
	r := NewRunner(tinyConfig())
	rows := r.LSQValidation(400, 100, 40, []int{1, 4})
	if len(rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(rows))
	}
	for _, row := range rows {
		if row.Residual > 1 {
			t.Fatalf("lsq residual did not drop: %+v", row)
		}
	}
}

func TestRhoReportPrints(t *testing.T) {
	var sb strings.Builder
	cfg := tinyConfig()
	cfg.Out = &sb
	r := NewRunner(cfg)
	r.RhoReport([]int{10})
	out := sb.String()
	if !strings.Contains(out, "ρ·n") || !strings.Contains(out, "ν_10") {
		t.Fatalf("report missing fields:\n%s", out)
	}
}

func TestRunnerPrepareIdempotent(t *testing.T) {
	r := NewRunner(tinyConfig())
	r.Prepare()
	g := r.Gram
	r.Prepare()
	if r.Gram != g {
		t.Fatal("Prepare must be idempotent")
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := Default()
	if cfg.Terms <= 0 || cfg.RHSCols <= 0 || len(cfg.Threads) == 0 {
		t.Fatalf("bad default config %+v", cfg)
	}
	// NewRunner must substitute defaults for a zero config.
	r := NewRunner(Config{})
	if r.Cfg.Terms == 0 {
		t.Fatal("NewRunner should fill in defaults")
	}
}

func TestDelayDistributionRows(t *testing.T) {
	r := NewRunner(tinyConfig())
	rows := r.DelayDistribution(4)
	if len(rows) == 0 {
		t.Fatal("no delay rows")
	}
	for _, row := range rows {
		if row.FractionZero < 0 || row.FractionZero > 1 {
			t.Fatalf("bad fraction %+v", row)
		}
		if uint64(row.ObservedTau) < row.P99Bound/4 && row.ObservedTau > 0 {
			// τ̂ is the max, p99 bound is a bucket edge ≤ 2·max.
			t.Fatalf("inconsistent tail stats %+v", row)
		}
	}
}

func TestSamplingAblationRows(t *testing.T) {
	r := NewRunner(tinyConfig())
	rows := r.SamplingAblation(4, 6)
	if len(rows) != 3 {
		t.Fatalf("want 3 strategies, got %d", len(rows))
	}
	for _, row := range rows {
		if row.Residual <= 0 || row.Residual > 1 {
			t.Fatalf("strategy %s made no progress: %v", row.Strategy, row.Residual)
		}
	}
}

func TestFaultInjectionRows(t *testing.T) {
	r := NewRunner(tinyConfig())
	rows := r.FaultInjection(4, 4)
	if len(rows) != 3 {
		t.Fatalf("want 3 scenarios, got %d", len(rows))
	}
	healthy := rows[0].Residual
	for _, row := range rows[1:] {
		// Randomization keeps slow-worker runs within an order of
		// magnitude of the healthy run.
		if row.Residual > 50*healthy {
			t.Fatalf("scenario %s catastrophically degraded: %v vs healthy %v", row.Scenario, row.Residual, healthy)
		}
	}
}

func TestDistMemRows(t *testing.T) {
	r := NewRunner(tinyConfig())
	rows := r.DistMem([]int{2, 4}, 4, []int{1, 16})
	if len(rows) != 4 {
		t.Fatalf("want 4 rows (2 worker counts x 2 caps), got %d", len(rows))
	}
	for _, row := range rows {
		if row.Residual <= 0 || row.Residual >= 1 {
			t.Fatalf("no progress at w=%d cap=%d: %v", row.Workers, row.QueueCap, row.Residual)
		}
		if row.Messages == 0 {
			t.Fatalf("no communication at w=%d cap=%d", row.Workers, row.QueueCap)
		}
		if row.Sweeps != 4 {
			t.Fatalf("fixed-work row ran %d sweeps", row.Sweeps)
		}
	}
	var buf bytes.Buffer
	if err := WriteDistMemJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	var decoded []DistRow
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("baseline not valid JSON: %v", err)
	}
	if len(decoded) != len(rows) || decoded[0].Workers != 2 {
		t.Fatalf("baseline round-trip mismatch: %+v", decoded)
	}
}

func TestClassicVsRandomizedRows(t *testing.T) {
	r := NewRunner(tinyConfig())
	rows := r.ClassicVsRandomized(4, 4)
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rows))
	}
	for _, row := range rows {
		if row.Residual <= 0 {
			t.Fatalf("bad row %+v", row)
		}
	}
	// AsyRGS under a slow worker must stay close to its healthy run.
	var healthy, slow float64
	for _, row := range rows {
		if row.Method == "asyrgs" {
			if row.Scenario == "healthy" {
				healthy = row.Residual
			} else {
				slow = row.Residual
			}
		}
	}
	if slow > 20*healthy {
		t.Fatalf("asyrgs slow-worker run degraded: %v vs %v", slow, healthy)
	}
}

func TestMethodTableRows(t *testing.T) {
	if race.Enabled {
		t.Skip("the table includes the deliberately racy NonAtomic ablation")
	}
	r := NewRunner(tinyConfig())
	rows := r.MethodTable(1e-4, 400, 2)
	if len(rows) < 8 {
		t.Fatalf("method table should cover every registered SPD method, got %d rows", len(rows))
	}
	seen := map[string]bool{}
	for _, row := range rows {
		seen[row.Method] = true
		if row.Residual <= 0 || row.Sweeps <= 0 {
			t.Fatalf("bad row %+v", row)
		}
	}
	for _, want := range []string{"asyrgs", "rgs", "cg", "fcg", "gs"} {
		if !seen[want] {
			t.Fatalf("method table missing %q", want)
		}
	}
}

func TestHotpathGridShape(t *testing.T) {
	r := NewRunner(tinyConfig())
	rows := r.Hotpath(2, []int{1, 2}, []int{1, 0})
	// 2 samplers × 2 worker counts × (2 chunk sizes at f64 + f32 at
	// auto chunk).
	if len(rows) != 12 {
		t.Fatalf("hotpath grid has %d rows, want 12", len(rows))
	}
	samplers := map[string]bool{}
	cells := map[[2]string]bool{}
	for _, row := range rows {
		samplers[row.Sampler] = true
		cells[[2]string{row.Precision, row.Kernel}] = true
		if row.WallMS <= 0 || row.NSPerIter <= 0 || row.Iterations == 0 {
			t.Fatalf("bad hotpath row %+v", row)
		}
		if row.BytesPerIter <= 0 {
			t.Fatalf("hotpath row missing bytes/iter estimate: %+v", row)
		}
	}
	for _, want := range []string{"uniform", "weighted-alias"} {
		if !samplers[want] {
			t.Fatalf("hotpath grid missing sampler %q", want)
		}
	}
	kernel := sparse.KernelName()
	for _, want := range [][2]string{{"f64", kernel}, {"f32", kernel}} {
		if !cells[want] {
			t.Fatalf("hotpath grid missing precision×kernel cell %v", want)
		}
	}
	// f32 storage must report a strictly smaller per-iteration footprint.
	var by = map[string]int{}
	for _, row := range rows {
		by[row.Precision] = row.BytesPerIter
	}
	if by["f32"] >= by["f64"] {
		t.Fatalf("f32 bytes/iter %d not below f64 %d", by["f32"], by["f64"])
	}
}
