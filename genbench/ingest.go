package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/genbase/genbase/internal/core"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/serve"
	"github.com/genbase/genbase/internal/wal"
)

// ingest-serve settings, part of the workload's definition. The write rate
// and checkpoint cadence are those of the repository's documented ingest
// drill (genbase-bench -ingest-rate 200 -checkpoint-every 20).
const (
	ingestSystem     = "colstore-udf"
	ingestReadRate   = 200  // reads per second, one worker
	ingestAppendRate = 200  // rows per second, one writer
	ingestCkptEvery  = 20   // rows per checkpoint: ten epochs a second
	ingestTail       = 0.99 // each cycle holds >= 1000 reads
	// ingestCheckEvery: reads served at every ingestCheckEvery-th epoch, and
	// every read that overlapped a swap, are checked against a direct run
	// on that epoch's snapshot.
	ingestCheckEvery = 4
	// ingestCycles is how many cycles the measured seconds are cut into;
	// each cycle's reads resolve p99.
	ingestCycles = 4
	// ingestSetupsPerCycle is how many times each cycle sets up: one
	// set-up takes a few tens of milliseconds, so setup_s's median needs
	// more of them than the cycles.
	ingestSetupsPerCycle = 4
)

// ingestReads is the read mix: a hot set that fits the cache.
var ingestReads = []engine.QueryID{engine.Q1Regression, engine.Q2Covariance, engine.Q5Statistics}

// ingestState is one set-up of the workload: a WAL store over the base
// dataset and a server over an engine loaded from it.
type ingestState struct {
	base    *datagen.Dataset
	dir     string
	store   *wal.Store
	srv     *serve.Server
	retired []retiredEngine // displaced by a swap, not yet closed
}

// retiredEngine is an engine a swap displaced. Reads admitted before the
// swap may still run on it: it is closed once the first `reads` reads have
// finished.
type retiredEngine struct {
	eng   engine.Engine
	reads int64
}

// closeRetired closes every retired engine no read can still be using,
// given that the first finished reads have completed. The workload has one
// read worker, so reads finish in the order they start.
func (st *ingestState) closeRetired(finished int64) {
	keep := st.retired[:0]
	for _, re := range st.retired {
		if re.reads <= finished {
			re.eng.Close()
		} else {
			keep = append(keep, re)
		}
	}
	st.retired = keep
}

func (st *ingestState) close() {
	st.closeRetired(math.MaxInt64)
	if st.srv != nil {
		st.srv.Engine().Close()
	}
	if st.store != nil {
		if err := st.store.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "genbench: close store:", err)
		}
	}
}

// loadIngestEngine loads ds into a fresh engine of the served system.
func loadIngestEngine(ds *datagen.Dataset) (engine.Engine, error) {
	cfg, err := core.ConfigByName(ingestSystem)
	if err != nil {
		return nil, err
	}
	eng := cfg.New(1, "")
	if err := eng.Load(ds); err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

// newIngestEngine loads ds into the engine the server is to serve, under a
// tracing decorator in a traced run.
func (r *runCtx) newIngestEngine(ds *datagen.Dataset) (engine.Engine, error) {
	eng, err := loadIngestEngine(ds)
	if err != nil {
		return nil, err
	}
	if r.trace {
		return &tracedEngine{Engine: eng, tr: r.tr, config: ingestSystem}, nil
	}
	return eng, nil
}

func (r *runCtx) setupIngest(dir string) (*ingestState, error) {
	dscale := 1.0
	if r.scale.tiny {
		dscale = 0.5
	}
	base, err := datagen.Generate(datagen.Config{Size: datagen.Small, Scale: dscale, Seed: dataSeed})
	if err != nil {
		return nil, err
	}
	st := &ingestState{base: base, dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if st.store, err = wal.Open(dir, base); err != nil {
		return nil, err
	}
	eng, err := r.newIngestEngine(base)
	if err != nil {
		st.close()
		return nil, err
	}
	st.srv = serve.New(eng, serve.Options{})
	for _, q := range ingestReads {
		if _, _, err := st.srv.Run(context.Background(), q, engine.DefaultParams()); err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up %s: %w", q, err)
		}
	}
	return st, nil
}

// epochTiming is the visibility pipeline of one checkpoint.
type epochTiming struct {
	checkpoint, snapshot, load, swap time.Duration
}

func (e epochTiming) visible() time.Duration { return e.checkpoint + e.snapshot + e.load + e.swap }

// ingestTotals gathers what the cycles of one run measured.
type ingestTotals struct {
	outs                    []outcome
	cpu                     []float64 // per cycle: process CPU per operation, ms
	lat                     []samples // per cycle: read latencies
	appendLat               samples
	epochs                  []epochTiming
	hits, misses            int64
	poolHits, poolMisses    int64
	recovery, replay        []float64 // per cycle: s, ms
	records, bytesPerRecord []float64 // per cycle
}

// runIngestServe serves cached reads at a fixed rate from one worker while
// one writer appends rows at a fixed rate; every ingestCkptEvery rows a
// checkpoint is folded, its snapshot loaded into a fresh engine and swapped
// in. The measured seconds are cut into ingestCycles cycles, each on a fresh
// set-up: the served dataset grows by every row appended (a 20 s window at
// 200 rows/s would grow the 250-patient base seventeen-fold, and CPU per
// operation with it), so a cycle restarts the growth and every cycle does
// the same work. At the end of a cycle the store is closed and recovered,
// and the recovered state must equal the live one.
func runIngestServe(r *runCtx) error {
	cycleSeconds := max(r.seconds.Seconds()/ingestCycles, 10/(1-ingestTail)/ingestReadRate)
	reads, rows := int(ingestReadRate*cycleSeconds), int(ingestAppendRate*cycleSeconds)
	if r.scale.tiny {
		reads, rows = 25, 2*ingestCkptEvery
	}
	var setups []float64
	setup := func(i int) (*ingestState, error) {
		runtime.GC()
		r.tr.pause(true) // set-up traffic is not measured
		defer r.tr.pause(false)
		start := cpuNow()
		st, err := r.setupIngest(filepath.Join(r.scratch, fmt.Sprintf("setup%d", i)))
		setups = append(setups, (cpuNow() - start).Seconds())
		return st, err
	}
	var tot ingestTotals
	steal := measureSteal(r)
	for k := 0; k < ingestCycles; k++ {
		// The cycle's own set-up comes last; the ones before it only add
		// to setup_s's median, spread over the run.
		var st *ingestState
		for i := 0; i < ingestSetupsPerCycle; i++ {
			if st != nil {
				st.close()
			}
			var err error
			if st, err = setup(k*ingestSetupsPerCycle + i); err != nil {
				return err
			}
			if k == 0 && i == 0 {
				r.setE2E("heap_mb", liveHeapMB(), "MB")
			}
		}
		err := r.ingestCycle(st, k, reads, rows, &tot)
		st.close()
		if err != nil {
			return err
		}
	}
	steal()
	r.setE2E("setup_s", medianFloat(setups), "s")
	fmt.Printf("genbench: ingest-serve served %d reads beside %d appends over %d epochs in %d cycles\n",
		len(tot.outs), len(tot.appendLat), len(tot.epochs), ingestCycles)
	r.setE2E("cpu_ms", medianFloat(tot.cpu), "ms")
	reportLatency(r, tot.lat, ingestTail)
	r.setE2E("ok_frac", float64(r.attempted-r.failed)/float64(r.attempted), "ratio")

	r.setLayer("wal.append_p50_ms", ms(tot.appendLat.quantile(0.5)), "ms")
	r.setLayer("wal.append_p99_ms", ms(tot.appendLat.quantile(0.99)), "ms")
	var ck, sn, ld, sw, vis []float64
	for _, e := range tot.epochs {
		ck = append(ck, ms(e.checkpoint))
		sn = append(sn, ms(e.snapshot))
		ld = append(ld, ms(e.load))
		sw = append(sw, ms(e.swap))
		vis = append(vis, ms(e.visible()))
	}
	r.setLayer("wal.checkpoint_ms", medianFloat(ck), "ms")
	r.setLayer("wal.snapshot_ms", medianFloat(sn), "ms")
	r.setLayer("engine.load_ms", medianFloat(ld), "ms")
	r.setLayer("serve.swap_ms", medianFloat(sw), "ms")
	r.setLayer("wal.visible_ms", medianFloat(vis), "ms")
	r.setLayer("wal.recovery_s", medianFloat(tot.recovery), "s")
	r.setLayer("wal.replay_ms", medianFloat(tot.replay), "ms")
	r.setLayer("wal.replay_records", medianFloat(tot.records), "count")
	r.setLayer("wal.bytes_per_row", medianFloat(tot.bytesPerRecord), "B")
	if tot.poolHits+tot.poolMisses > 0 {
		r.setLayer("wal.segment_pool_hit_ratio", float64(tot.poolHits)/float64(tot.poolHits+tot.poolMisses), "ratio")
	}
	r.setLayer("serve.cache_hits", float64(tot.hits), "count")
	r.setLayer("serve.cache_misses", float64(tot.misses), "count")
	if tot.hits+tot.misses > 0 {
		r.setLayer("serve.cache_hit_ratio", float64(tot.hits)/float64(tot.hits+tot.misses), "ratio")
	}
	if r.trace {
		spans := r.tr.snapshot()
		engineLayers(r, tot.outs, spans)
		kernelLayers(r, spans)
	}
	return nil
}

// ingestCycle runs cycle k on the fresh set-up st: reads and appends at
// their rates, with the epoch pipeline beside them, then checks the reads
// and recovers the store. Its figures are added to tot.
func (r *runCtx) ingestCycle(st *ingestState, k, reads, rows int, tot *ingestTotals) error {
	ctx := context.Background()
	base := st.srv.Stats()
	poolBase := st.store.ServePoolStats()
	rng := datagen.NewRNG(r.seed).DeriveStream(uint64(10 + k))

	// Writer: a fixed-rate schedule; each append is timed from its scheduled
	// time to its durable ack. The checkpointer runs beside it, so a fold
	// stalls appends only for as long as the store excludes them.
	var appendLat samples
	var appendErrs int64
	var epochs []epochTiming
	// Reads started and finished, to know when a displaced engine is idle.
	var started, finished atomic.Int64
	var pipeErr error
	var wg sync.WaitGroup
	ckpt := make(chan struct{}, rows/ingestCkptEvery+1) // one signal per checkpoint
	cpu0 := cpuNow()
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(ckpt)
		gen := wal.NewRowGen(st.base, rng.Uint64())
		interval := time.Second / ingestAppendRate
		start := time.Now()
		for i := 0; i < rows; i++ {
			due := start.Add(time.Duration(i) * interval)
			sleepUntil(due)
			row := gen.Next()
			if err := st.store.Append(row); err != nil {
				appendErrs++
				fmt.Fprintln(os.Stderr, "genbench: append:", err)
				continue
			}
			appendLat = append(appendLat, time.Since(due))
			if (i+1)%ingestCkptEvery == 0 {
				ckpt <- struct{}{}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for range ckpt {
			if pipeErr != nil {
				continue
			}
			et, old, err := r.advanceEpoch(st)
			if err != nil {
				pipeErr = err
				continue
			}
			epochs = append(epochs, et)
			st.retired = append(st.retired, retiredEngine{old, started.Load()})
			st.closeRetired(finished.Load())
		}
	}()
	mixRNG := rng.DeriveStream(4)
	firstID := uint64(1 + k*reads)
	// readEpochs[i] brackets the epoch read i was admitted at: the served
	// epoch just before and just after it ran.
	readEpochs := make([][2]uint64, reads)
	l := openLoop(ctx, rng.DeriveStream(3), ingestReadRate, reads, firstID,
		func() request { return request{ingestReads[mixRNG.Intn(len(ingestReads))], engine.DefaultParams()} },
		func(ctx context.Context, id uint64, req request) (*engine.Result, error) {
			started.Add(1)
			e0 := st.srv.Epoch()
			ctx, end := r.tr.begin(withRequest(ctx, id), spanRequest, "")
			res, _, err := st.srv.Run(ctx, req.q, req.p)
			end(nil)
			readEpochs[id-firstID] = [2]uint64{e0, st.srv.Epoch()}
			finished.Add(1)
			return res, err
		})
	wg.Wait()
	cpu := cpuNow() - cpu0
	if pipeErr != nil {
		return fmt.Errorf("epoch pipeline: %w", pipeErr)
	}
	for i := range l.outs {
		if l.outs[i].err != nil {
			r.failed++
			fmt.Fprintln(os.Stderr, "genbench: read:", l.outs[i].err)
		}
	}
	r.attempted += int64(reads + rows)
	r.failed += appendErrs
	// CPU per operation: the reads plus the appends, checkpoints and epoch
	// loads running beside them.
	tot.cpu = append(tot.cpu, ms(cpu)/float64(reads+rows))
	tot.lat = append(tot.lat, latencies(l.outs))
	tot.outs = append(tot.outs, l.outs...)
	tot.appendLat = append(tot.appendLat, appendLat...)
	tot.epochs = append(tot.epochs, epochs...)
	checkIngestReads(r, st, l.outs, readEpochs)

	after := st.srv.Stats()
	tot.hits += after.CacheHits - base.CacheHits
	tot.misses += after.CacheMisses - base.CacheMisses
	pool := st.store.ServePoolStats()
	tot.poolHits += pool.Hits - poolBase.Hits
	tot.poolMisses += pool.Misses - poolBase.Misses
	return recoverAndCheck(r, st, int64(len(appendLat)), tot)
}

// advanceEpoch runs the visibility pipeline once: checkpoint the delta,
// materialize the new epoch's snapshot, load it into a fresh engine and
// swap it into the server. It returns the engine the swap displaced.
func (r *runCtx) advanceEpoch(st *ingestState) (epochTiming, engine.Engine, error) {
	ctx := context.Background()
	var et epochTiming
	t0 := time.Now()
	epoch, err := st.store.Checkpoint()
	if err != nil {
		return et, nil, fmt.Errorf("checkpoint: %w", err)
	}
	t1 := time.Now()
	snap, err := st.store.SnapshotAt(epoch)
	if err != nil {
		return et, nil, fmt.Errorf("snapshot %d: %w", epoch, err)
	}
	t2 := time.Now()
	eng, err := r.newIngestEngine(snap.Dataset)
	if err != nil {
		return et, nil, fmt.Errorf("load epoch %d: %w", epoch, err)
	}
	t3 := time.Now()
	old := st.srv.Swap(eng, epoch)
	t4 := time.Now()
	r.tr.record(ctx, "wal.checkpoint", ingestSystem, t0, t1, map[string]float64{"epoch": float64(epoch)})
	r.tr.record(ctx, "wal.snapshot", ingestSystem, t1, t2, nil)
	r.tr.record(ctx, "engine.load", ingestSystem, t2, t3, nil)
	r.tr.record(ctx, "serve.swap", ingestSystem, t3, t4, nil)
	return epochTiming{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)}, old, nil
}

// untraced returns the engine under a tracing decorator.
func untraced(e engine.Engine) engine.Engine {
	if te, ok := e.(*tracedEngine); ok {
		return te.Engine
	}
	return e
}

// checkIngestReads asserts that each checked read equals a direct run of
// the same query on the snapshot of an epoch it may have been admitted at.
// The reads checked are those served at every ingestCheckEvery-th epoch and
// every read that overlapped a swap.
func checkIngestReads(r *runCtx, st *ingestState, outs []outcome, readEpochs [][2]uint64) {
	answers := map[uint64]map[engine.QueryID]string{}
	epochAnswers := func(e uint64) map[engine.QueryID]string {
		if a, ok := answers[e]; ok {
			return a
		}
		a := map[engine.QueryID]string{}
		answers[e] = a
		snap, err := st.store.SnapshotAt(e)
		if err != nil {
			r.mismatch("snapshot %d: %v", e, err)
			return a
		}
		eng, err := loadIngestEngine(snap.Dataset)
		if err != nil {
			r.mismatch("load epoch %d: %v", e, err)
			return a
		}
		defer eng.Close()
		for _, q := range ingestReads {
			res, err := eng.Run(context.Background(), q, engine.DefaultParams())
			if err != nil {
				r.mismatch("direct %s on epoch %d: %v", q, e, err)
				continue
			}
			a[q], _ = answerHash(res.Answer)
		}
		return a
	}
	for i := range outs {
		o := &outs[i]
		e0, e1 := readEpochs[i][0], readEpochs[i][1]
		if o.err != nil || (e0 == e1 && e0%ingestCheckEvery != 0) {
			continue
		}
		h, _ := answerHash(o.res.Answer)
		matched := false
		for e := e0; e <= e1 && !matched; e++ {
			matched = epochAnswers(e)[o.req.q] == h
		}
		if !matched {
			r.mismatch("served %s answer %.12s matches no epoch in %d..%d", o.req.q, h, e0, e1)
		}
	}
}

// recoverAndCheck closes the store, re-opens it from its log and asserts
// the recovered epoch, segment digests, snapshot hash and delta equal the
// live store's, that every acked row was replayed, and that an engine
// loaded from the recovered snapshot answers the reads as the live one did.
func recoverAndCheck(r *runCtx, st *ingestState, acked int64, tot *ingestTotals) error {
	epoch := st.store.Epoch()
	digests := make([][wal.DigestSize]byte, epoch+1)
	for e := uint64(1); e <= epoch; e++ {
		d, err := st.store.SegmentDigest(e)
		if err != nil {
			return err
		}
		digests[e] = d
	}
	snap, err := st.store.SnapshotAt(epoch)
	if err != nil {
		return err
	}
	wantHash, delta := snap.Hash(), st.store.DeltaRows()
	err = st.store.Close()
	st.store = nil
	if err != nil {
		return fmt.Errorf("close store: %w", err)
	}

	start := time.Now()
	re, err := wal.Open(st.dir, st.base)
	recovery := time.Since(start)
	if err != nil {
		r.mismatch("recovery: %v", err)
		return nil
	}
	st.store = re
	rt := re.Recovery()
	tot.recovery = append(tot.recovery, recovery.Seconds())
	tot.replay = append(tot.replay, ms(rt.Replay))
	tot.records = append(tot.records, float64(rt.Records))
	if rt.Records > 0 {
		tot.bytesPerRecord = append(tot.bytesPerRecord, float64(rt.BytesReplayed)/float64(rt.Records))
	}

	if got := re.Epoch(); got != epoch {
		r.mismatch("recovery: epoch %d, live store had %d", got, epoch)
		return nil
	}
	for e := uint64(1); e <= epoch; e++ {
		if d, err := re.SegmentDigest(e); err != nil || d != digests[e] {
			r.mismatch("recovery: segment %d digest differs (%v)", e, err)
		}
	}
	if got := re.DeltaRows(); got != delta {
		r.mismatch("recovery: %d delta rows, live store had %d", got, delta)
	}
	if want := acked + int64(epoch); int64(rt.Records) != want {
		r.mismatch("recovery: replayed %d records, want %d acked rows + %d checkpoints", rt.Records, acked, epoch)
	}
	rsnap, err := re.SnapshotAt(epoch)
	if err != nil {
		r.mismatch("recovery: snapshot %d: %v", epoch, err)
		return nil
	}
	if rsnap.Hash() != wantHash {
		r.mismatch("recovery: snapshot %d hash differs from the live store's", epoch)
	}
	eng, err := loadIngestEngine(rsnap.Dataset)
	if err != nil {
		return err
	}
	defer eng.Close()
	live := untraced(st.srv.Engine())
	for _, q := range ingestReads {
		a, err1 := eng.Run(context.Background(), q, engine.DefaultParams())
		b, err2 := live.Run(context.Background(), q, engine.DefaultParams())
		if err1 != nil || err2 != nil {
			r.mismatch("recovery: %s: %v / %v", q, err1, err2)
			continue
		}
		ha, _ := answerHash(a.Answer)
		hb, _ := answerHash(b.Answer)
		if ha != hb {
			r.mismatch("recovery: %s on the recovered snapshot answers %.12s, live engine %.12s", q, ha, hb)
		}
	}
	return nil
}
