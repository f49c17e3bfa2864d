package sparse

// RowDotAtomic is RowDot with atomic loads of x. The asynchronous solvers
// read the shared iterate while other goroutines commit atomic updates;
// loading atomically keeps those executions free of data races (and costs
// nothing on mainstream architectures, where a 64-bit atomic load is a
// plain aligned load). The values observed are still arbitrarily stale —
// the inconsistent-read model is about ordering, not tearing.
func (m *CSR) RowDotAtomic(i int, x []float64) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return DotAtomic(m.Vals[lo:hi], m.ColIdx[lo:hi], x)
}
