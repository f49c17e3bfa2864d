package coord

import (
	"github.com/asynclinalg/asyrgs/internal/alias"
	"github.com/asynclinalg/asyrgs/internal/rng"
)

// samplerKind enumerates the direction distributions.
type samplerKind uint8

const (
	// samplerUniform draws uniformly over all n coordinates — the
	// paper's headline distribution.
	samplerUniform samplerKind = iota
	// samplerWeighted draws through a Walker/Vose alias table: O(1) per
	// pick for any fixed distribution (the Leventhal–Lewis A_rr/tr(A),
	// the Strohmer–Vershynin ‖A_i‖²/‖A‖_F², or ‖A e_j‖²/‖A‖_F²).
	samplerWeighted
	// samplerPartitioned gives worker w exclusive ownership of the
	// contiguous block [w·n/P, (w+1)·n/P) and draws uniformly within it —
	// the restricted randomization of the paper's distributed-memory
	// discussion. With equal blocks and workers drawing at the same rate
	// the marginal stays uniform; what changes is that no coordinate is
	// ever contended.
	samplerPartitioned
)

// Sampler maps a global iteration index to the coordinate updated at
// that iteration. Every mode is a pure function of (stream, index) —
// plus the worker id in partitioned mode, where ownership is part of the
// contract — so all workers agree on the direction sequence without
// coordination. It is a concrete struct rather than an interface so the
// fill loop pays no dynamic dispatch and building one allocates nothing.
type Sampler struct {
	kind    samplerKind
	n       int
	workers int
	tab     *alias.Table
}

// Uniform draws uniformly over n coordinates.
func Uniform(n int) Sampler { return Sampler{kind: samplerUniform, n: n} }

// Weighted draws slot r with the probability the alias table encodes.
func Weighted(tab *alias.Table) Sampler { return Sampler{kind: samplerWeighted, tab: tab} }

// Partitioned restricts worker w to its own contiguous block of about
// n/workers coordinates and draws uniformly within it. Run gives each
// worker of a partitioned sampler its own slice of the index range too.
func Partitioned(n, workers int) Sampler {
	return Sampler{kind: samplerPartitioned, n: n, workers: workers}
}

// Pick returns the coordinate for global iteration j when executed by
// the given worker (worker matters only for partitioned sampling).
func (s Sampler) Pick(stream rng.Stream, j uint64, worker int) int {
	switch s.kind {
	case samplerWeighted:
		return s.tab.Pick(stream, j)
	case samplerPartitioned:
		lo, hi := s.block(worker)
		return lo + stream.IntnAt(j, hi-lo)
	default:
		return stream.IntnAt(j, s.n)
	}
}

// Fill maps global iterations [base, base+len(dst)) to coordinates in
// one pass — the chunked-claiming fast path. The distribution switch is
// hoisted out of the loop and each mode consumes its Philox blocks in a
// tight scan, so a worker that claimed a chunk touches the generator
// machinery once per index with no dispatch. Fill(base, dst)[t] equals
// Pick(base+t) exactly, for every chunk partitioning.
func (s Sampler) Fill(stream rng.Stream, base uint64, dst []int32, worker int) {
	switch s.kind {
	case samplerWeighted:
		tab := s.tab
		for t := range dst {
			u1, u2 := stream.Uint64PairAt(base + uint64(t))
			dst[t] = int32(tab.PickUints(u1, u2))
		}
	case samplerPartitioned:
		lo, hi := s.block(worker)
		for t := range dst {
			dst[t] = int32(lo + stream.IntnAt(base+uint64(t), hi-lo))
		}
	default:
		n := s.n
		for t := range dst {
			dst[t] = int32(stream.IntnAt(base+uint64(t), n))
		}
	}
}

// block returns worker w's owned coordinate range in partitioned mode.
func (s Sampler) block(worker int) (lo, hi int) {
	if s.workers <= 1 {
		return 0, s.n
	}
	lo = worker * s.n / s.workers
	hi = (worker + 1) * s.n / s.workers
	if hi <= lo {
		// More workers than rows: clamp to a singleton block.
		lo = worker % s.n
		hi = lo + 1
	}
	return lo, hi
}
