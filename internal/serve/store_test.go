package serve

// End-to-end tests for the durable prep store behind the prepared-system
// LRU: a fresh daemon over a warmed store restores prepared state
// without re-running Prepare, a corrupted blob falls back to a fresh
// Prepare (counted, never served), and LRU eviction spills state to the
// store instead of destroying it.

import (
	"net/http"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/coord"
	"github.com/asynclinalg/asyrgs/internal/store"
)

// storeSpec is the one matrix these tests solve; the prep key below must
// track it.
func storeSpec() MatrixSpec { return MatrixSpec{Kind: "randomspd", N: 200, NNZ: 5, Seed: 9} }

// storePrepKey reproduces the server's prepared-system cache key for
// storeSpec + asyrgs at default (f64) precision, which is also the
// store's blob key.
func storePrepKey() string {
	return SolveRequest{Matrix: storeSpec(), Method: "asyrgs"}.prepKey(storeSpec().key()) + "|p=f64"
}

// warmStore runs one solve against a fresh server wired to ps, then
// flushes so the spill is durable in ps's backend.
func warmStore(t *testing.T, ps *store.PrepStore) SolveResponse {
	t.Helper()
	ts := newTestServer(t, Config{PrepStore: ps})
	defer ts.Close()
	out, resp := postSolve(t, ts, SolveRequest{
		Matrix: storeSpec(), Method: "asyrgs", Tol: 1e-6, MaxSweeps: 3000, Workers: 2,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm solve status %d", resp.StatusCode)
	}
	if out.PrepHit || out.PrepRestored {
		t.Fatalf("first solve must be a cold fresh Prepare: %+v", out)
	}
	ps.Flush()
	return out
}

// TestPrepStoreRestoreSkipsPrepare is the tentpole's end-to-end promise:
// a restarted daemon (new server, new store instance, surviving backend)
// serves its first request by restoring the spilled prepared state —
// zero instrumented Prepare work — and reports it on the response and on
// /stats and /metrics.
func TestPrepStoreRestoreSkipsPrepare(t *testing.T) {
	backend := store.NewMemory()

	st1 := store.NewPrepStore(backend)
	warmStore(t, st1)
	if c := st1.Counters(); c.Spills == 0 {
		t.Fatalf("warm build did not spill: %+v", c)
	}
	st1.Close()
	if n, err := backend.Len(); err != nil || n == 0 {
		t.Fatalf("backend holds no blobs after flush (n=%d, err=%v)", n, err)
	}

	// "Restart": a fresh store over the surviving backend, a fresh server
	// with an empty prep LRU.
	st2 := store.NewPrepStore(backend)
	defer st2.Close()
	ts := newTestServer(t, Config{PrepStore: st2})
	defer ts.Close()

	before := coord.PrepCount()
	out, resp := postSolve(t, ts, SolveRequest{
		Matrix: storeSpec(), Method: "asyrgs", Tol: 1e-6, MaxSweeps: 3000, Workers: 2,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restored solve status %d", resp.StatusCode)
	}
	if !out.PrepRestored {
		t.Fatalf("restarted daemon must restore from the store: %+v", out)
	}
	if out.PrepHit {
		t.Fatal("restore is a prep-LRU miss, not a hit")
	}
	if d := coord.PrepCount() - before; d != 0 {
		t.Fatalf("restore ran %d instrumented preparations, want 0", d)
	}
	if !out.Converged {
		t.Fatalf("restored system did not converge: %+v", out)
	}

	var st Stats
	getJSON(t, ts, "/stats", &st)
	if st.PrepStore == nil {
		t.Fatal("/stats missing prep_store block")
	}
	if st.PrepStore.Restores != 1 || st.PrepStore.Errors != 0 {
		t.Fatalf("prep_store counters: %+v", st.PrepStore)
	}
}

// TestPrepStoreCorruptBlobFallsBack flips one payload byte in the stored
// blob: the restore must fail closed — counted as a store error, blob
// discarded — and the request must succeed via a fresh Prepare.
func TestPrepStoreCorruptBlobFallsBack(t *testing.T) {
	backend := store.NewMemory()
	st1 := store.NewPrepStore(backend)
	warmStore(t, st1)
	st1.Close()

	blob, err := backend.Get(storePrepKey())
	if err != nil {
		t.Fatalf("spilled blob not found under the computed prep key: %v", err)
	}
	blob[len(blob)-1] ^= 0xff
	if err := backend.Put(storePrepKey(), blob); err != nil {
		t.Fatal(err)
	}

	st2 := store.NewPrepStore(backend)
	defer st2.Close()
	ts := newTestServer(t, Config{PrepStore: st2})
	defer ts.Close()
	out, resp := postSolve(t, ts, SolveRequest{
		Matrix: storeSpec(), Method: "asyrgs", Tol: 1e-6, MaxSweeps: 3000, Workers: 2,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback solve status %d", resp.StatusCode)
	}
	if out.PrepRestored || out.PrepHit {
		t.Fatalf("corrupted blob must not restore: %+v", out)
	}
	if !out.Converged {
		t.Fatalf("fallback solve did not converge: %+v", out)
	}

	var stt Stats
	getJSON(t, ts, "/stats", &stt)
	if stt.PrepStore == nil || stt.PrepStore.Errors == 0 {
		t.Fatalf("corrupted blob must count a store error: %+v", stt.PrepStore)
	}
	if stt.PrepStore.Restores != 0 {
		t.Fatalf("corrupted blob must not count as a restore: %+v", stt.PrepStore)
	}
}

// TestPrepStoreEvictionSpills pins the demotion path: with a one-entry
// prep LRU, preparing a second system evicts the first, and the eviction
// hook spills it — both systems end up durable.
func TestPrepStoreEvictionSpills(t *testing.T) {
	backend := store.NewMemory()
	ps := store.NewPrepStore(backend)
	defer ps.Close()
	ts := newTestServer(t, Config{PrepStore: ps, PrepCacheSize: 1})
	defer ts.Close()

	for _, m := range []string{"asyrgs", "kaczmarz"} {
		_, resp := postSolve(t, ts, SolveRequest{
			Matrix: storeSpec(), Method: m, Tol: 1e-6, MaxSweeps: 5000, Workers: 2,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s solve status %d", m, resp.StatusCode)
		}
	}
	ps.Flush()
	if n, err := backend.Len(); err != nil || n != 2 {
		t.Fatalf("backend holds %d blobs (err=%v), want 2 (fresh spill + eviction spill)", n, err)
	}
	if c := ps.Counters(); c.Spills < 2 {
		t.Fatalf("want at least 2 spills (build + eviction), got %+v", c)
	}
}
