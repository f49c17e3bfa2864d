package method

import (
	"fmt"

	"github.com/asynclinalg/asyrgs/internal/coord"
	"github.com/asynclinalg/asyrgs/internal/sparse"
	"github.com/asynclinalg/asyrgs/internal/store"
)

// PersistentPreparer is the optional interface of methods whose prepared
// state can round-trip through the durable prep store. EncodePrepared
// serializes only the derived state (norms, diagonals, column views) —
// never the matrix, whose identity is already guaranteed by the
// content-addressed store key — and DecodePrepared rebuilds a
// PreparedSystem over the caller's matrix, applying the same prep-time
// option handling (precision views, weighted-sampling validation) as a
// fresh Prepare. A restored system must be behaviorally identical to a
// freshly prepared one: deterministic solves produce bit-identical
// trajectories (asserted in tests). Methods that do not implement the
// interface simply never spill or restore.
type PersistentPreparer interface {
	Method
	// EncodePrepared serializes ps's derived per-matrix state. It must
	// only be called with a PreparedSystem this method produced.
	EncodePrepared(ps PreparedSystem) ([]byte, error)
	// DecodePrepared rebuilds a prepared system over a from an encoded
	// payload. Structural damage is an error (callers fall back to a
	// fresh Prepare); it must never panic on arbitrary bytes.
	DecodePrepared(a *sparse.CSR, payload []byte, opts Opts) (PreparedSystem, error)
}

// AsPersistent reports whether m can persist its prepared systems,
// returning the persistence view when it can. A funcMethod qualifies
// only when both codec hooks are wired.
func AsPersistent(m Method) (PersistentPreparer, bool) {
	if fm, ok := m.(*funcMethod); ok {
		if fm.encode == nil || fm.decode == nil {
			return nil, false
		}
		return fm, true
	}
	pp, ok := m.(PersistentPreparer)
	return pp, ok
}

// persistVersion opens every payload, followed by the family tag. The
// tag is defense in depth — the store key already separates methods — so
// a blob that somehow reaches the wrong family's decoder fails loudly
// instead of misparsing.
const persistVersion = 1

// coordSystem is implemented by the prepared systems of the coordinate
// families, whose per-matrix state is one coord.Prep.
type coordSystem interface {
	coordPrep() *coord.Prep
}

// encodePrepared serializes a coordinate family's derived per-matrix
// state: the header, the CSC column view when the family carries one,
// the sampling weights W, then the divisor D when it is not W itself.
// The alias table and the float32 view are absent: each is an O(n) or
// O(nnz) rebuild from this state, cheaper to reconstruct than to ship and
// re-verify.
func encodePrepared(f *coord.Family, ps PreparedSystem) ([]byte, error) {
	c, ok := ps.(coordSystem)
	if !ok || c.coordPrep().Family != f {
		return nil, fmt.Errorf("method: cannot encode %T as %s prepared state", ps, f.Name)
	}
	p := c.coordPrep()
	var e store.Enc
	e.U8(persistVersion)
	e.U8(f.Tag)
	if f.Columns {
		e.Int(p.CSC.Rows)
		e.Int(p.CSC.Cols)
		e.Ints(p.CSC.ColPtr)
		e.Ints(p.CSC.RowIdx)
		e.F64s(p.CSC.Vals)
	}
	e.F64s(p.W)
	if f.SeparateD {
		e.F64s(p.D)
	}
	return e.Bytes(), nil
}

// decodePrepared reads a payload encodePrepared wrote for family f and
// restores the Prep over a through the family's own checks.
func decodePrepared(f *coord.Family, a *sparse.CSR, payload []byte) (*coord.Prep, error) {
	d := store.NewDec(payload)
	if v := d.U8(); d.Err() == nil && v != persistVersion {
		return nil, fmt.Errorf("method: prepared-state payload version %d, want %d", v, persistVersion)
	}
	if t := d.U8(); d.Err() == nil && t != f.Tag {
		return nil, fmt.Errorf("method: prepared-state payload family %q, want %q", t, f.Tag)
	}
	var csc *sparse.CSC
	if f.Columns {
		csc = &sparse.CSC{Rows: d.Int(), Cols: d.Int(), ColPtr: d.Ints(), RowIdx: d.Ints(), Vals: d.F64s()}
	}
	w := d.F64s()
	div := w
	if f.SeparateD {
		div = d.F64s()
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return coord.Restore(f, a, csc, w, div)
}
