package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/genbase/genbase/internal/bicluster"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/plan"
	"github.com/genbase/genbase/internal/serve"
)

// Span names, one per layer boundary the benchmark can see from outside the
// program.
const (
	spanRequest = "request" // one request as the load generator sees it
	spanEngine  = "engine"  // engine.Engine.Run under a serving backend
	spanExecute = "execute" // plan.Execute over a single-node engine
	spanCluster = "cluster" // a virtual-cluster engine's Run
	spanScan    = "scan"    // SelectIDs / ScanFloats / GOMembers / GeneMeta
	spanPivot   = "pivot"   // Pivot / SampleMeans
	spanKernel  = "kernel." // prefix: kernel.regression, kernel.covariance, ...
)

// span is one recorded interval. Spans of one request share Req; Parent is
// the span that caused this one (0 for a root).
type span struct {
	ID     uint64             `json:"id"`
	Parent uint64             `json:"parent,omitempty"`
	Req    uint64             `json:"req,omitempty"`
	Name   string             `json:"name"`
	Config string             `json:"config,omitempty"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory and writes them out when the run ends.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	paused atomic.Bool
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

type ctxKey int

const (
	parentKey ctxKey = iota
	reqKey
)

// withRequest tags ctx with a request id for the spans recorded under it.
func withRequest(ctx context.Context, req uint64) context.Context {
	return context.WithValue(ctx, reqKey, req)
}

// begin opens a span under ctx's current span and returns the context that
// makes it the parent of nested spans, plus the function that closes it.
// A nil or paused tracer records nothing.
func (t *tracer) begin(ctx context.Context, name, config string) (context.Context, func(attrs map[string]float64)) {
	if t == nil || t.paused.Load() {
		return ctx, func(map[string]float64) {}
	}
	id := t.nextID.Add(1)
	parent, _ := ctx.Value(parentKey).(uint64)
	req, _ := ctx.Value(reqKey).(uint64)
	start := time.Since(t.t0)
	return context.WithValue(ctx, parentKey, id), func(attrs map[string]float64) {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Config: config,
			Start: int64(start), End: int64(end), Attrs: attrs})
		t.mu.Unlock()
	}
}

// record adds a finished span measured by the caller.
func (t *tracer) record(ctx context.Context, name, config string, start, end time.Time, attrs map[string]float64) {
	if t == nil || t.paused.Load() {
		return
	}
	parent, _ := ctx.Value(parentKey).(uint64)
	req, _ := ctx.Value(reqKey).(uint64)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: t.nextID.Add(1), Parent: parent, Req: req, Name: name, Config: config,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Attrs: attrs})
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// pause stops (p true) or resumes recording spans.
func (t *tracer) pause(p bool) {
	if t != nil {
		t.paused.Store(p)
	}
}

// reset drops every span (discarded warm-up traffic).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// sumMs sums the durations of the spans accepted by keep, in milliseconds.
func sumMs(spans []span, keep func(*span) bool) float64 {
	var d time.Duration
	for i := range spans {
		if keep(&spans[i]) {
			d += spans[i].dur()
		}
	}
	return ms(d)
}

// sumAttr sums one attribute over the spans accepted by keep.
func sumAttr(spans []span, attr string, keep func(*span) bool) float64 {
	var v float64
	for i := range spans {
		if keep(&spans[i]) {
			v += spans[i].Attrs[attr]
		}
	}
	return v
}

// selfMs is the total self time of the spans named name: each span's
// duration minus the part its direct children cover.
func selfMs(spans []span, name string) float64 {
	child := map[uint64]time.Duration{}
	for i := range spans {
		if spans[i].Parent != 0 {
			child[spans[i].Parent] += spans[i].dur()
		}
	}
	var d time.Duration
	for i := range spans {
		if spans[i].Name == name {
			d += spans[i].dur() - child[spans[i].ID]
		}
	}
	return ms(d)
}

// write stores the run's provenance, its per-layer metrics and every span,
// one JSON object per line.
func (t *tracer) write(path string, prov provenanceInfo, metrics map[string]metric) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"provenance": prov, "metrics": metrics}); err != nil {
		return err
	}
	spans := t.snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return w.Flush()
}

// tracedPhysical wraps a single-node engine's exported plan operators with
// spans, so plan.Execute over it attributes time to scans, pivots and
// kernels. Kernel spans carry the glue transfer the kernel booked on the
// query's StopWatch, so kernel time excludes it.
type tracedPhysical struct {
	plan.Physical[*linalg.Matrix]
	tr     *tracer
	config string
}

func (t tracedPhysical) SelectIDs(ctx context.Context, table string, preds []plan.Pred) ([]int64, error) {
	_, end := t.tr.begin(ctx, spanScan, t.config)
	out, err := t.Physical.SelectIDs(ctx, table, preds)
	end(map[string]float64{"rows": float64(len(out))})
	return out, err
}

func (t tracedPhysical) ScanFloats(ctx context.Context, table, col string, ids []int64) ([]float64, error) {
	_, end := t.tr.begin(ctx, spanScan, t.config)
	out, err := t.Physical.ScanFloats(ctx, table, col, ids)
	end(map[string]float64{"rows": float64(len(out))})
	return out, err
}

func (t tracedPhysical) GOMembers(ctx context.Context) ([][]int32, error) {
	_, end := t.tr.begin(ctx, spanScan, t.config)
	out, err := t.Physical.GOMembers(ctx)
	end(nil)
	return out, err
}

func (t tracedPhysical) GeneMeta(ctx context.Context) (engine.GeneMeta, error) {
	_, end := t.tr.begin(ctx, spanScan, t.config)
	out, err := t.Physical.GeneMeta(ctx)
	end(nil)
	return out, err
}

func (t tracedPhysical) Pivot(ctx context.Context, patientIDs, geneIDs []int64) (*linalg.Matrix, error) {
	_, end := t.tr.begin(ctx, spanPivot, t.config)
	out, err := t.Physical.Pivot(ctx, patientIDs, geneIDs)
	var cells float64
	if out != nil {
		cells = float64(out.Rows * out.Cols)
	}
	end(map[string]float64{"cells": cells})
	return out, err
}

func (t tracedPhysical) SampleMeans(ctx context.Context, step int) ([]float64, int, error) {
	_, end := t.tr.begin(ctx, spanPivot, t.config)
	means, n, err := t.Physical.SampleMeans(ctx, step)
	end(nil)
	return means, n, err
}

// kernel runs fn under a kernel span, booking the StopWatch transfer delta
// across the call as the span's "transfer_ns" attribute.
func (t tracedPhysical) kernel(ctx context.Context, sw *engine.StopWatch, name string, attrs map[string]float64, fn func() error) error {
	_, end := t.tr.begin(ctx, spanKernel+name, t.config)
	before := sw.Timing().Transfer
	err := fn()
	if attrs == nil {
		attrs = map[string]float64{}
	}
	attrs["transfer_ns"] = float64(sw.Timing().Transfer - before)
	end(attrs)
	return err
}

func (t tracedPhysical) RunRegression(ctx context.Context, sw *engine.StopWatch, x *linalg.Matrix, y []float64) (coef []float64, r2 float64, err error) {
	err = t.kernel(ctx, sw, "regression", nil, func() error {
		coef, r2, err = t.Physical.RunRegression(ctx, sw, x, y)
		return err
	})
	return coef, r2, err
}

func (t tracedPhysical) RunCovariance(ctx context.Context, sw *engine.StopWatch, x *linalg.Matrix) (cov *linalg.Matrix, err error) {
	// Computed flops of the covariance Gram over the upper triangle:
	// p(p+1)/2 dot products of length n, two flops per multiply-add.
	n, p := float64(x.Rows), float64(x.Cols)
	err = t.kernel(ctx, sw, "covariance", map[string]float64{"flops": n * p * (p + 1)}, func() error {
		cov, err = t.Physical.RunCovariance(ctx, sw, x)
		return err
	})
	return cov, err
}

func (t tracedPhysical) RunSVD(ctx context.Context, sw *engine.StopWatch, x *linalg.Matrix, k int, seed uint64) (sv []float64, err error) {
	err = t.kernel(ctx, sw, "svd", nil, func() error {
		sv, err = t.Physical.RunSVD(ctx, sw, x, k, seed)
		return err
	})
	return sv, err
}

func (t tracedPhysical) RunBicluster(ctx context.Context, sw *engine.StopWatch, x *linalg.Matrix, maxB int, seed uint64) (bs []bicluster.Bicluster, err error) {
	err = t.kernel(ctx, sw, "bicluster", nil, func() error {
		bs, err = t.Physical.RunBicluster(ctx, sw, x, maxB, seed)
		return err
	})
	return bs, err
}

func (t tracedPhysical) RunStats(ctx context.Context, sw *engine.StopWatch, means []float64, members [][]int32, sampled int) (ans *engine.StatsAnswer, err error) {
	err = t.kernel(ctx, sw, "stats", nil, func() error {
		ans, err = t.Physical.RunStats(ctx, sw, means, members, sampled)
		return err
	})
	return ans, err
}

// runTraced executes one query on eng under spans: single-node engines go
// through plan.Compile and plan.Execute over their traced operators (the
// same two calls their own Run makes); virtual-cluster engines, whose
// operators are not exported, run whole under one span carrying their
// virtual phase split.
func runTraced(ctx context.Context, tr *tracer, config string, eng engine.Engine, q engine.QueryID, p engine.Params) (*engine.Result, error) {
	if phys, ok := eng.(plan.Physical[*linalg.Matrix]); ok {
		pl, err := plan.Compile(q, p)
		if err != nil {
			return nil, err
		}
		ctx, end := tr.begin(ctx, spanExecute, config)
		res, err := plan.Execute(ctx, tracedPhysical{Physical: phys, tr: tr, config: config}, pl)
		end(timingAttrs(res))
		return res, err
	}
	ctx, end := tr.begin(ctx, spanCluster, config)
	res, err := eng.Run(ctx, q, p)
	end(timingAttrs(res))
	return res, err
}

func timingAttrs(res *engine.Result) map[string]float64 {
	if res == nil {
		return nil
	}
	return map[string]float64{
		"dm_ns":        float64(res.Timing.DataManagement),
		"analytics_ns": float64(res.Timing.Analytics),
		"transfer_ns":  float64(res.Timing.Transfer),
	}
}

// tracedEngine decorates a serving backend's engine: every Run becomes an
// engine span (with operator spans below it for single-node engines), so the
// benchmark sees engine time and, by difference, queueing time per request.
type tracedEngine struct {
	engine.Engine
	tr     *tracer
	config string
}

// SetWorkers forwards the server's worker pinning to engines that accept it.
func (e *tracedEngine) SetWorkers(n int) {
	if ws, ok := e.Engine.(serve.WorkerSetter); ok {
		ws.SetWorkers(n)
	}
}

func (e *tracedEngine) Run(ctx context.Context, q engine.QueryID, p engine.Params) (*engine.Result, error) {
	ctx, end := e.tr.begin(ctx, spanEngine, e.config)
	res, err := runTraced(ctx, e.tr, e.config, e.Engine, q, p)
	end(nil)
	return res, err
}

// measureHostCeilings records the in-run ceilings the kernel numbers are
// read against: scalar fused multiply-add throughput on one core and
// memcpy bandwidth, each the best of three short trials.
func measureHostCeilings(r *runCtx) {
	const chains, iters = 8, 4_000_000
	best := math.Inf(1)
	var sink float64
	for trial := 0; trial < 3; trial++ {
		var acc [chains]float64
		for i := range acc {
			acc[i] = float64(i + 1)
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			for c := range acc {
				acc[c] = math.FMA(acc[c], 0.999999, 1e-9)
			}
		}
		best = min(best, time.Since(start).Seconds())
		for _, v := range acc {
			sink += v
		}
	}
	r.setLayer("host.fma_gflops", 2*chains*iters/best/1e9, "GFLOP/s")

	const size, reps = 32 << 20, 4
	src, dst := make([]byte, size), make([]byte, size)
	for i := range src {
		src[i] = byte(i)
	}
	best = math.Inf(1)
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			copy(dst, src)
		}
		best = min(best, time.Since(start).Seconds())
	}
	r.setLayer("host.memcpy_gbps", size*reps/best/1e9, "GB/s")
	if sink == 0 || dst[size-1] != src[size-1] {
		fmt.Fprintln(os.Stderr, "genbench: host ceiling probe produced no work")
	}
}

// addTraceOverhead reports, for every end-to-end metric, the traced run's
// value against the untraced run's of the same workload and seed as a share
// (traced/untraced - 1). Without that untraced result the overhead reads 0.
func addTraceOverhead(r *runCtx, resultsDir string) {
	path := filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "genbench: no untraced %s seed %d result yet; tracing overhead reads 0\n", r.workload, r.seed)
		return
	}
	var base map[string]metric
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "genbench: %s: %v\n", path, err)
		return
	}
	for name, traced := range r.e2e {
		if b, ok := base[name]; ok && b.Value != 0 {
			r.setLayer("trace.overhead."+name, traced.Value/b.Value-1, "ratio")
		}
	}
}
