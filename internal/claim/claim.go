// Package claim sizes the chunked iteration-claiming granularity of the
// coordinate engine (internal/coord): a worker grabs a block of global
// iteration indices from the shared atomic counter per CAS instead of
// one, taking the counter off the critical path.
package claim

// SizeFor resolves the claiming granularity. An explicit positive size
// wins; otherwise the chunk is total/(workers·16) — large enough that the
// shared counter stops being the bottleneck, small enough that P workers
// strand at most a few percent of the budget in partially-unfinished
// chunks at the tail — clamped to [1, MaxChunk(rowBytes)] so the
// bulk-generated direction buffer plus the row slices one chunk touches
// stay resident in L2 while the worker streams through them (see
// probe.go). rowBytes is the caller's estimate of bytes touched per
// iteration (mean row values + indices + iterate/rhs entries); rowBytes
// <= 0 falls back to the legacy 256-iteration cap.
func SizeFor(explicit int, total uint64, workers int, rowBytes int) int {
	if explicit > 0 {
		return explicit
	}
	if workers < 1 {
		workers = 1
	}
	k := int(total / uint64(workers*16))
	cap := MaxChunk(rowBytes)
	switch {
	case k < 1:
		return 1
	case k > cap:
		return cap
	}
	return k
}
