package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/genbase/genbase/internal/core"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
)

// paperNodes is the node count of the paper-medium cluster configurations.
const paperNodes = 4

// paperTail is paper-medium's tail percentile: 69 per-pair times leave
// 10.35 samples beyond p85, too few beyond p90.
const paperTail = 0.85

// paper-medium measures every pair in whole passes, as many as fit in the
// measured seconds (at least one), then runs paperCheapPasses more passes
// over the pairs whose first run took under paperCheapBelow. A single run
// of a millisecond pair swings by a factor of two or more with what ran
// before it; the repeats give those pairs medians at a few seconds' cost,
// where a whole pass takes about 20 s, most of it in the MapReduce pairs.
const (
	paperCheapBelow  = 100 * time.Millisecond
	paperCheapPasses = 4
)

// setupRepeats is how many times paper-medium sets up; setup_s is the
// median.
const setupRepeats = 5

// dataSeed generates every workload's dataset. Datasets are part of a
// workload's definition, like its preset: the workload seed drives the
// request stream (order, arrival times, parameter draws and ingested rows),
// so runs with different seeds do the same amount of work.
const dataSeed = 1

// paperMembers returns the paper's evaluation matrix as fleet members: the
// single-node configurations of Figures 1-2 and the multi-node ones of
// Figures 3-4 at nodes, each with its answer class.
func paperMembers(nodes int) ([]core.FleetMember, error) {
	fleet, err := core.FleetConfigs(nodes)
	if err != nil {
		return nil, err
	}
	single, multi := map[string]bool{}, map[string]bool{}
	for _, c := range core.SingleNodeConfigs() {
		single[c.Name] = true
	}
	for _, c := range core.MultiNodeConfigs() {
		multi[c.Name] = true
	}
	var out []core.FleetMember
	for _, m := range fleet {
		if (m.Config.Nodes == 0 && single[m.Key]) || (m.Config.Nodes > 0 && multi[m.Config.System]) {
			out = append(out, m)
		}
	}
	return out, nil
}

// loadedMember is a fleet member with its engine loaded.
type loadedMember struct {
	core.FleetMember
	eng engine.Engine
}

// loadMembers builds and loads every member over ds, with disk-backed
// engines under dir.
func loadMembers(members []core.FleetMember, ds *datagen.Dataset, dir string) ([]loadedMember, error) {
	out := make([]loadedMember, 0, len(members))
	for _, m := range members {
		mdir := filepath.Join(dir, metricKey(m.Key))
		if err := os.MkdirAll(mdir, 0o755); err != nil {
			closeMembers(out)
			return nil, err
		}
		eng := m.New(mdir)
		if err := eng.Load(ds); err != nil {
			eng.Close()
			closeMembers(out)
			return nil, fmt.Errorf("%s: load: %w", m.Key, err)
		}
		out = append(out, loadedMember{m, eng})
	}
	return out, nil
}

func closeMembers(ms []loadedMember) {
	for _, m := range ms {
		if err := m.eng.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "genbench: close %s: %v\n", m.Key, err)
		}
	}
}

// liveHeapMB forces a collection and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}

// runPaperMedium is the paper's own matrix: one closed-loop client runs
// every supported (configuration, scenario) pair with DefaultParams at the
// medium preset, in an order drawn from the workload seed. Each pair's
// figures are the medians over the passes run. cpu_ms is the geometric mean
// over pairs of the process CPU time a query takes (its own parallel kernels
// and garbage collection included), so halving any one engine's queries
// moves it although the MapReduce pairs take most of a pass.
func runPaperMedium(r *runCtx) error {
	size, dscale := datagen.Medium, 1.0
	if r.scale.tiny {
		size, dscale = datagen.Small, 0.5
	}
	members, err := paperMembers(paperNodes)
	if err != nil {
		return err
	}
	p := engine.DefaultParams()

	var setups []float64
	var loaded []loadedMember
	defer func() { closeMembers(loaded) }()
	for i := 0; i < setupRepeats; i++ {
		closeMembers(loaded)
		loaded = nil
		runtime.GC()
		start := cpuNow()
		ds, err := datagen.Generate(datagen.Config{Size: size, Scale: dscale, Seed: dataSeed})
		if err != nil {
			return err
		}
		if loaded, err = loadMembers(members, ds, filepath.Join(r.scratch, fmt.Sprintf("setup%d", i))); err != nil {
			return err
		}
		setups = append(setups, (cpuNow() - start).Seconds())
	}
	r.setE2E("setup_s", medianFloat(setups), "s")
	r.setE2E("heap_mb", liveHeapMB(), "MB")

	type pair struct {
		m     loadedMember
		q     engine.QueryID
		times samples
		cpu   samples
	}
	var pairs []*pair
	for _, m := range loaded {
		for _, q := range engine.AllScenarios() {
			if m.eng.Supports(q) {
				pairs = append(pairs, &pair{m: m, q: q})
			}
		}
	}
	rng := datagen.NewRNG(r.seed)
	check := newClassCheck()
	ctx := context.Background()
	// runPass runs ps once each in an order drawn from the seed. With
	// collect, each query starts from a collected heap, so the garbage one
	// pair leaves is not charged to whichever pair the seed puts next. The
	// repeat passes skip that (a collection of the loaded engines' heap
	// costs more than most cheap pairs): their medians drop the runs a
	// collection lands on.
	runPass := func(ps []*pair, collect bool) {
		for _, idx := range rng.Perm(len(ps)) {
			pr := ps[idx]
			if collect {
				runtime.GC()
			}
			c0 := cpuNow()
			t0 := time.Now()
			var res *engine.Result
			var err error
			if r.trace {
				res, err = runTraced(ctx, r.tr, pr.m.Key, pr.m.eng, pr.q, p)
			} else {
				res, err = pr.m.eng.Run(ctx, pr.q, p)
			}
			d := time.Since(t0)
			c := cpuNow() - c0
			r.attempted++
			if err != nil {
				r.failed++
				fmt.Fprintf(os.Stderr, "genbench: %s %s: %v\n", pr.m.Key, pr.q, err)
				continue
			}
			pr.times = append(pr.times, d)
			pr.cpu = append(pr.cpu, c)
			check.observe(r, pr.m.Class, pr.m.Key, pr.q, p, res.Answer)
		}
	}
	start := time.Now()
	steal := measureSteal(r)
	for pass := 0; pass == 0 || time.Since(start)*time.Duration(pass+1)/time.Duration(pass) <= r.seconds; pass++ {
		runPass(pairs, true)
	}
	var cheap []*pair
	for _, pr := range pairs {
		if len(pr.times) > 0 && pr.times[0] < paperCheapBelow {
			cheap = append(cheap, pr)
		}
	}
	for pass := 0; pass < paperCheapPasses; pass++ {
		runPass(cheap, false)
	}
	fmt.Printf("genbench: paper-medium ran %d queries over %d pairs in %.2fs\n", r.attempted, len(pairs), time.Since(start).Seconds())

	steal()
	var perPair, perPairCPU samples
	for _, pr := range pairs {
		if len(pr.times) > 0 {
			perPair = append(perPair, pr.times.quantile(0.5))
			perPairCPU = append(perPairCPU, pr.cpu.quantile(0.5))
		}
	}
	r.setE2E("cpu_ms", perPairCPU.geomeanMs(), "ms")
	reportLatency(r, []samples{perPair}, paperTail)
	r.setE2E("ok_frac", float64(r.attempted-r.failed)/float64(r.attempted), "ratio")
	if r.trace {
		paperLayers(r, members)
	}
	return nil
}

// paperLayers derives the per-layer metrics of a traced paper-medium run
// from its spans.
func paperLayers(r *runCtx, members []core.FleetMember) {
	spans := r.tr.snapshot()
	for _, m := range members {
		key, cfg := metricKey(m.Key), m.Key
		is := func(name string) func(*span) bool {
			return func(s *span) bool { return s.Name == name && s.Config == cfg }
		}
		root := func(s *span) bool { return (s.Name == spanExecute || s.Name == spanCluster) && s.Config == cfg }
		if m.Config.Nodes == 0 {
			r.setLayer("scan.ms."+key, sumMs(spans, is(spanScan)), "ms")
			r.setLayer("pivot.ms."+key, sumMs(spans, is(spanPivot)), "ms")
		}
		r.setLayer("phase.dm_ms."+key, sumAttr(spans, "dm_ns", root)/1e6, "ms")
		r.setLayer("phase.analytics_ms."+key, sumAttr(spans, "analytics_ns", root)/1e6, "ms")
		r.setLayer("phase.transfer_ms."+key, sumAttr(spans, "transfer_ns", root)/1e6, "ms")
	}
	kernelLayers(r, spans)
	isCluster := func(s *span) bool { return s.Name == spanCluster }
	r.setLayer("cluster.wall_ms", sumMs(spans, isCluster), "ms")
	r.setLayer("cluster.virtual_ms", (sumAttr(spans, "dm_ns", isCluster)+sumAttr(spans, "analytics_ns", isCluster)+
		sumAttr(spans, "transfer_ns", isCluster))/1e6, "ms")
}

// kernelLayers derives the kernel, glue and executor metrics shared by every
// workload that runs single-node plans under spans.
func kernelLayers(r *runCtx, spans []span) {
	var flops, covSec float64
	for _, k := range []string{"regression", "covariance", "svd", "bicluster", "stats"} {
		name := spanKernel + k
		is := func(s *span) bool { return s.Name == name }
		own := sumMs(spans, is) - sumAttr(spans, "transfer_ns", is)/1e6
		r.setLayer("kernel."+k+"_ms", own, "ms")
		if k == "covariance" {
			flops, covSec = sumAttr(spans, "flops", is), own/1e3
		}
	}
	if covSec > 0 {
		r.setLayer("kernel.covariance_gflops", flops/covSec/1e9, "GFLOP/s")
	}
	isKernel := func(s *span) bool { return strings.HasPrefix(s.Name, spanKernel) }
	r.setLayer("glue.transfer_ms", sumAttr(spans, "transfer_ns", isKernel)/1e6, "ms")
	r.setLayer("plan.self_ms", selfMs(spans, spanExecute), "ms")
}
