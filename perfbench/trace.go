package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/asynclinalg/asyrgs/internal/method"
	"github.com/asynclinalg/asyrgs/internal/sparse"
)

// span is one timed call into a layer. Spans of one op share its id;
// op is -1 for work not tied to a single op (set-up, a coalesced batch,
// a prepare detached from the request).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 if none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Count is a layer count recorded at the boundary (sweeps,
	// iterations); zero when the span carries none.
	Count uint64 `json:"count,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes span id, recording count.
func (t *tracer) end(id int, count uint64) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End, t.spans[id].Count = now, count
	t.mu.Unlock()
}

// mark returns the index the next span will get.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns a copy of the spans opened at or after mark.
func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// durations returns the durations (ms) of the named spans among ss.
func durations(ss []span, name string) []float64 {
	var out []float64
	for _, s := range ss {
		if s.Name == name && s.End > 0 {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTimes returns, for every span named outer, its duration minus the
// part of its interval covered by child spans: the op's own method
// spans, and method spans tied to no op that lie inside the interval (a
// coalesced batch serves every request it contains).
func selfTimes(ss []span, outer string, children map[string]bool) []float64 {
	byOp := map[int64][]span{}
	var shared []span
	for _, s := range ss {
		if !children[s.Name] || s.End == 0 {
			continue
		}
		if s.Op < 0 {
			shared = append(shared, s)
		} else {
			byOp[s.Op] = append(byOp[s.Op], s)
		}
	}
	var out []float64
	for _, s := range ss {
		if s.Name != outer || s.End == 0 {
			continue
		}
		var ivs [][2]int64
		for _, c := range byOp[s.Op] {
			ivs = append(ivs, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
		}
		for _, c := range shared {
			if c.Start >= s.Start && c.End <= s.End {
				ivs = append(ivs, [2]int64{c.Start, c.End})
			}
		}
		out = append(out, ms(s.dur()-time.Duration(covered(ivs))))
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, lo, hi int64
	open := false
	for _, iv := range ivs {
		if iv[1] <= iv[0] {
			continue
		}
		switch {
		case !open:
			lo, hi, open = iv[0], iv[1], true
		case iv[0] > hi:
			total += hi - lo
			lo, hi = iv[0], iv[1]
		case iv[1] > hi:
			hi = iv[1]
		}
	}
	if open {
		total += hi - lo
	}
	return total
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.since(0) {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// opSpan is the op id and enclosing span a request context carries into
// the traced method.
type opSpan struct {
	op     int64
	parent int
}

type opKey struct{}

func withOp(ctx context.Context, op int64, parent int) context.Context {
	return context.WithValue(ctx, opKey{}, opSpan{op, parent})
}

// opOf returns the op id and enclosing span on ctx; (-1, -1) when the
// call is tied to no single op.
func opOf(ctx context.Context) (int64, int) {
	if o, ok := ctx.Value(opKey{}).(opSpan); ok {
		return o.op, o.parent
	}
	return -1, -1
}

// tracedPrefix names the delegating methods a traced run registers.
const tracedPrefix = "traced:"

// registerTraced registers, for every built-in, a delegating method that
// records spans around the built-in's Prepare, Solve and SolveBatch.
func registerTraced(tr *tracer) {
	for _, m := range method.All() {
		method.Register(&tracedMethod{inner: m, tr: tr})
	}
}

type tracedMethod struct {
	inner method.Method
	tr    *tracer
}

func (m *tracedMethod) Name() string      { return tracedPrefix + m.inner.Name() }
func (m *tracedMethod) Kind() method.Kind { return m.inner.Kind() }

func (m *tracedMethod) Solve(ctx context.Context, a *sparse.CSR, b, x []float64, opts method.Opts) (method.Result, error) {
	ps, err := m.Prepare(ctx, a, opts)
	if err != nil {
		return method.Result{}, err
	}
	return ps.Solve(ctx, b, x, opts)
}

func (m *tracedMethod) Prepare(ctx context.Context, a *sparse.CSR, opts method.Opts) (method.PreparedSystem, error) {
	op, parent := opOf(ctx)
	id := m.tr.begin("method.Prepare", op, parent)
	ps, err := method.Prepare(ctx, m.inner, a, opts)
	m.tr.end(id, 0)
	if err != nil {
		return nil, err
	}
	return &tracedPrepared{PreparedSystem: ps, tr: m.tr}, nil
}

func (m *tracedMethod) PrepKey(opts method.Opts) string {
	if pk, ok := m.inner.(method.PrepKeyer); ok {
		return pk.PrepKey(opts)
	}
	return ""
}

// tracedPrepared times a prepared system's solves.
type tracedPrepared struct {
	method.PreparedSystem
	tr *tracer
}

func (p *tracedPrepared) Solve(ctx context.Context, b, x []float64, opts method.Opts) (method.Result, error) {
	op, parent := opOf(ctx)
	id := p.tr.begin("method.Solve", op, parent)
	res, err := p.PreparedSystem.Solve(ctx, b, x, opts)
	p.tr.end(id, uint64(res.Sweeps))
	return res, err
}

func (p *tracedPrepared) SolveBatch(ctx context.Context, bs, xs [][]float64, opts method.Opts) ([]method.Result, error) {
	op, parent := opOf(ctx)
	id := p.tr.begin("method.SolveBatch", op, parent)
	res, err := p.PreparedSystem.SolveBatch(ctx, bs, xs, opts)
	p.tr.end(id, uint64(len(bs)))
	return res, err
}
