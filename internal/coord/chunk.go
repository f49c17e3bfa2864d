package coord

import (
	"os"
	"strconv"
	"strings"
	"sync"
)

// SizeFor resolves the claiming granularity: a worker grabs a block of
// global iteration indices from the shared counter per atomic add instead
// of one, taking the counter off the critical path. An explicit positive
// size wins; otherwise the chunk is total/(workers·16) — large enough that
// the shared counter stops being the bottleneck, small enough that P
// workers strand at most a few percent of the budget in
// partially-unfinished chunks at the tail — clamped to [1,
// MaxChunk(rowBytes)] so the bulk-generated direction buffer plus the row
// slices one chunk touches stay resident in L2 while the worker streams
// through them. rowBytes is the caller's estimate of bytes touched per
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

// Cache-topology-aware chunk cap. A worker that claims a chunk of k
// iterations touches k·rowBytes of matrix/iterate data plus 4·k bytes of
// bulk-generated int32 directions before returning to the shared counter.
// Capping k so that footprint fits in half the per-core L2 (the other
// half is left to the iterate vector's working set and the neighbor
// hyperthread) keeps the streamed rows cache-resident across the
// direction-generation and execution passes of one chunk instead of
// evicting them in between.

const (
	// fallbackL2 is assumed when sysfs has no cache topology (non-Linux,
	// containers with masked sysfs): 256 KiB, the common per-core floor.
	fallbackL2 = 256 << 10

	// minChunkCap keeps tiny-L2 (or huge-row) systems from degrading to
	// per-iteration CAS traffic; maxChunkCap bounds tail imbalance on
	// huge caches the same way the legacy clamp did.
	minChunkCap = 16
	maxChunkCap = 4096
)

var l2Once struct {
	sync.Once
	bytes int
}

// L2CacheBytes returns the per-core L2 data-cache size, probed once from
// /sys/devices/system/cpu/cpu0/cache and memoized; fallbackL2 when the
// probe finds nothing. The probe allocates only on first use, keeping
// warm solve paths allocation-free.
func L2CacheBytes() int {
	l2Once.Do(func() {
		l2Once.bytes = probeL2("/sys/devices/system/cpu/cpu0/cache")
	})
	return l2Once.bytes
}

// probeL2 scans one CPU's cache index directories for a level-2 unified
// or data cache and parses its size ("512K", "1024K", "1M", plain bytes).
func probeL2(dir string) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fallbackL2
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "index") {
			continue
		}
		base := dir + "/" + e.Name()
		if readTrimmed(base+"/level") != "2" {
			continue
		}
		switch readTrimmed(base + "/type") {
		case "Unified", "Data":
		default:
			continue
		}
		if n := parseCacheSize(readTrimmed(base + "/size")); n > 0 {
			return n
		}
	}
	return fallbackL2
}

func readTrimmed(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// parseCacheSize parses sysfs cache sizes: "512K", "2M", "1G" or a plain
// byte count. Returns 0 on anything unparseable.
func parseCacheSize(s string) int {
	if s == "" {
		return 0
	}
	mult := 1
	switch s[len(s)-1] {
	case 'K', 'k':
		mult, s = 1<<10, s[:len(s)-1]
	case 'M', 'm':
		mult, s = 1<<20, s[:len(s)-1]
	case 'G', 'g':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0
	}
	return n * mult
}

// MaxChunk returns the chunk-size cap for a per-iteration footprint of
// rowBytes: half the L2 divided by the iteration footprint (row data plus
// the 4-byte direction entry), clamped to [minChunkCap, maxChunkCap].
// rowBytes <= 0 returns the legacy fixed cap of 256.
func MaxChunk(rowBytes int) int {
	if rowBytes <= 0 {
		return 256
	}
	c := (L2CacheBytes() / 2) / (rowBytes + 4)
	switch {
	case c < minChunkCap:
		return minChunkCap
	case c > maxChunkCap:
		return maxChunkCap
	}
	return c
}
