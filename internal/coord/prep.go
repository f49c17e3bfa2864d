package coord

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/asynclinalg/asyrgs/internal/alias"
	"github.com/asynclinalg/asyrgs/internal/sparse"
)

// Family describes one coordinate solver family's prepared state: which
// views it carries, how restored state is checked, and how the divisor
// of the float32-rounded system is formed. The families differ only in
// the per-line weight they sample by and divide by (A_rr, ‖A_i‖² or
// ‖A e_j‖²), so this is all a Prep needs to know about its caller.
type Family struct {
	// Name prefixes the family's errors.
	Name string
	// Tag identifies the family in a Prep and in its persisted form, so
	// state one family built is refused by another.
	Tag byte
	// Columns marks a family that iterates over columns: its Prep
	// carries the CSC view of the matrix.
	Columns bool
	// SeparateD marks a family whose divisor is its own vector; otherwise
	// D is W itself.
	SeparateD bool
	// Check validates restored state against the matrix: the shape and
	// positivity invariants the family's PrepareMatrix establishes.
	Check func(p *Prep) error
	// Round returns the divisor of the rounded system whose values v
	// holds (v.D is unset), rejecting a line that underflows float32.
	Round func(p *Prep, v *View32) ([]float64, error)
}

// prepCount counts fresh preparations across the coordinate families;
// the Prepare/Solve pipeline tests use its delta to prove that cached or
// restored state never recomputes the per-matrix pass.
var prepCount atomic.Uint64

// PrepCount returns the number of per-matrix preparations performed so
// far in this process.
func PrepCount() uint64 { return prepCount.Load() }

// Prep is the reusable per-matrix state of a coordinate family: the
// matrix (plus its CSC view for a Columns family), the per-line sampling
// weights W, and the per-line divisor D the update rule applies — 1/A_rr
// for core, W itself for kaczmarz and lsq. The alias table over W and
// the float32 view are built on first use, once per Prep, so a serving
// prep cache amortizes them across every warm solve. The exported fields
// are read-only after construction; a Prep is safe for concurrent use,
// and any number of solvers can be forked from it.
type Prep struct {
	Family *Family
	A      *sparse.CSR
	CSC    *sparse.CSC
	W, D   []float64

	aliasOnce sync.Once
	tab       *alias.Table
	aliasErr  error

	f32Once sync.Once
	f32     View32
	f32Err  error
}

// View32 is the float32-storage view of a Prep: the rounded values of
// each matrix layout (index arrays shared with the float64 views) and
// the divisor of the rounded system. Sampling stays on the float64 W, so
// direction sequences are the same in both precisions.
type View32 struct {
	A   *sparse.CSR32
	CSC *sparse.CSC32 // nil unless the Prep carries a CSC view
	D   []float64
}

// NewPrep wraps freshly prepared state and counts the preparation.
func NewPrep(f *Family, a *sparse.CSR, csc *sparse.CSC, w, d []float64) *Prep {
	prepCount.Add(1)
	return &Prep{Family: f, A: a, CSC: csc, W: w, D: d}
}

// Restore rebuilds a Prep over a from state captured on an identical
// matrix, skipping the per-matrix pass, after the family's Check. It does
// not count as a preparation.
func Restore(f *Family, a *sparse.CSR, csc *sparse.CSC, w, d []float64) (*Prep, error) {
	p := &Prep{Family: f, A: a, CSC: csc, W: w, D: d}
	if err := f.Check(p); err != nil {
		return nil, err
	}
	return p, nil
}

// Alias returns the alias table over W, building it on first use. The
// builder rejects negative and non-finite weights and a zero total.
func (p *Prep) Alias() (*alias.Table, error) {
	p.aliasOnce.Do(func() {
		if p.tab, p.aliasErr = alias.New(p.W); p.aliasErr != nil {
			p.aliasErr = fmt.Errorf("%s: building sampling table: %w", p.Family.Name, p.aliasErr)
		}
	})
	return p.tab, p.aliasErr
}

// Float32 returns the float32-storage view, building it on first use.
func (p *Prep) Float32() (*View32, error) {
	p.f32Once.Do(func() {
		v := View32{A: sparse.NewCSR32(p.A)}
		if p.CSC != nil {
			v.CSC = sparse.NewCSC32(p.CSC)
		}
		if v.D, p.f32Err = p.Family.Round(p, &v); p.f32Err == nil {
			p.f32 = v
		}
	})
	if p.f32Err != nil {
		return nil, p.f32Err
	}
	return &p.f32, nil
}
