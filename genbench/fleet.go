package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/genbase/genbase/internal/core"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/plan"
	"github.com/genbase/genbase/internal/serve"
)

// fleet-mixed settings. They are part of the workload's definition and
// recorded in its BENCHMARK.json entry.
const (
	fleetNodes       = 2    // cluster variants of core.FleetConfigs
	fleetRefRate     = 300  // reference arrival rate, requests per second
	fleetTail        = 0.99 // each episode holds >= 1000 requests
	warmupRequests   = 1500 // sequential, discarded
	fleetEpisodes    = 5    // set-ups, each measured for a fifth of the window
	probeRepeats     = 5    // start-up probe runs of a cheap (member, scenario) pair
	probeRepeatBelow = 20 * time.Millisecond
	hotPerQuery      = 2    // hot parameterizations per query
	coldPerQuery     = 64   // cold pool per query: 6x64 keys outgrow the 256-entry cache
	ladderMin        = 1000 // requests per ladder rung, so each rung resolves p99
	sampleEvery      = 64   // every 64th served answer is re-checked directly
)

// mixSeed draws the mix's key universe (hot set, Zipf ranks, cold pool),
// which is part of the workload's definition; the workload seed draws the
// traffic over it.
const mixSeed = 1

// fleetLimit is the p99 latency limit of the rate ladder.
const fleetLimit = 25 * time.Millisecond

// fleetLadder is the rate ladder serve.slo_qps climbs, requests per second.
var fleetLadder = []float64{300, 600, 900, 1200, 1500, 1800, 2400}

// fleetMix draws requests: half from a Zipf-skewed hot set, half from a
// cold pool larger than the router's result cache.
type fleetMix struct {
	hot     []request
	cold    [][]request // per scenario, in engine.AllScenarios order
	zipfCDF []float64
}

// stream returns a request sequence drawn with rng. It deals requests from
// shuffled rounds of one hot and one cold draw per scenario, so every
// stretch of the traffic holds the queries in equal shares and equal
// halves of hot and cold keys: the CPU a stretch costs then depends on the
// program, not on which queries the seed happened to bunch into it. Within
// a round the order, the hot key (Zipf-ranked) and the cold key (uniform
// over the scenario's pool) are seeded draws.
func (m *fleetMix) stream(rng *datagen.RNG) func() request {
	var round []request
	return func() request {
		if len(round) == 0 {
			for _, pool := range m.cold {
				round = append(round, m.hotDraw(rng), pool[rng.Intn(len(pool))])
			}
			for i := len(round) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				round[i], round[j] = round[j], round[i]
			}
		}
		req := round[len(round)-1]
		round = round[:len(round)-1]
		return req
	}
}

func (m *fleetMix) hotDraw(rng *datagen.RNG) request {
	u := rng.Float64()
	for i, c := range m.zipfCDF {
		if u < c {
			return m.hot[i]
		}
	}
	return m.hot[len(m.hot)-1]
}

// variant draws one seeded parameterization of q. Each query varies a
// parameter that changes its plan fingerprint (its cache key) but hardly
// its cost — a seed, a top fraction, a narrow threshold band — so that the
// mix's cost per request does not depend on which keys a run draws. Q6
// varies its cohort, which set-up validation must screen.
func variant(rng *datagen.RNG, q engine.QueryID) engine.Params {
	p := engine.DefaultParams()
	switch q {
	case engine.Q1Regression:
		p.FunctionThreshold = int64(200 + rng.Intn(101))
	case engine.Q2Covariance:
		p.CovarianceTopFrac = 0.05 + 0.001*float64(rng.Intn(150))
	case engine.Q3Biclustering, engine.Q4SVD:
		p.Seed = uint64(2 + rng.Intn(1000))
	case engine.Q5Statistics:
		p.SampleFrac = 1 / float64(30+rng.Intn(100))
	case engine.Q6CohortRegression:
		p.DiseaseID = int64(1 + rng.Intn(datagen.NumDiseases))
		p.CohortFunctionThreshold = int64(15 + rng.Intn(26))
	}
	return p
}

// buildMix draws the hot set and the cold pool with distinct plan
// fingerprints (distinct cache keys). Every drawn parameterization is
// validated first; one that fails is reported and replaced, so each query
// keeps its share of the mix.
func buildMix(seed uint64, perHot, perCold int, validate func(request, bool) error) (*fleetMix, error) {
	rng := datagen.NewRNG(seed).DeriveStream(11)
	seen := map[string]bool{}
	dropped := map[engine.QueryID]int{}
	draw := func(q engine.QueryID, first bool, idx int) (request, error) {
		for attempt := 0; ; attempt++ {
			if attempt == 10000 {
				return request{}, fmt.Errorf("fleet mix: %s has too few valid distinct parameterizations", q)
			}
			p := engine.DefaultParams()
			if !first {
				p = variant(rng, q)
			}
			first = false
			pl, err := plan.Compile(q, p)
			if err != nil {
				return request{}, err
			}
			fp := pl.Fingerprint()
			if seen[fp] {
				continue
			}
			seen[fp] = true
			req := request{q, p}
			if err := validate(req, idx < mrValidatePerQuery); err != nil {
				if dropped[q] == 0 {
					fmt.Fprintf(os.Stderr, "genbench: fleet-mixed: finding: %s %+v fails validation (%s): %v\n", q, p, failureKind(err), err)
				}
				dropped[q]++
				continue
			}
			return req, nil
		}
	}
	m := &fleetMix{}
	for _, q := range engine.AllScenarios() {
		for i := 0; i < perHot; i++ {
			req, err := draw(q, i == 0, 0)
			if err != nil {
				return nil, err
			}
			m.hot = append(m.hot, req)
		}
	}
	for _, q := range engine.AllScenarios() {
		var pool []request
		for i := 0; i < perCold; i++ {
			req, err := draw(q, false, i)
			if err != nil {
				return nil, err
			}
			pool = append(pool, req)
		}
		m.cold = append(m.cold, pool)
	}
	// Seeded Zipf (s = 1.1) ranks over the hot set.
	perm := rng.Perm(len(m.hot))
	hot := make([]request, len(m.hot))
	for i, j := range perm {
		hot[i] = m.hot[j]
	}
	m.hot = hot
	var total float64
	w := make([]float64, len(hot))
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), 1.1)
		total += w[i]
	}
	var acc float64
	for i := range w {
		acc += w[i] / total
		m.zipfCDF = append(m.zipfCDF, acc)
	}
	for _, q := range engine.AllScenarios() {
		if dropped[q] > 0 {
			fmt.Printf("genbench: fleet-mixed: %d drawn %s parameterizations failed validation and were replaced\n", dropped[q], q)
		}
	}
	return m, nil
}

// fleet is a loaded 14-configuration fleet behind one router.
type fleet struct {
	members []loadedMember
	router  *serve.Router
}

func buildFleet(r *runCtx, ds *datagen.Dataset, dir string) (*fleet, error) {
	fm, err := core.FleetConfigs(fleetNodes)
	if err != nil {
		return nil, err
	}
	members, err := loadMembers(fm, ds, dir)
	if err != nil {
		return nil, err
	}
	// The open loop serves one request at a time (openLoop), and every
	// backend admits one query with one kernel worker. With two workers
	// draining the loop, CPU per request rose 20-40% whenever the host took
	// a CPU away (measured by pinning the run to one CPU): overlapping
	// requests queued, and the router hedged them onto costlier backends of
	// other answer classes, which missed the class-keyed cache. At 300/s
	// the one server is busy about a quarter of the time.
	backends := make([]serve.Backend, len(members))
	for i, m := range members {
		var eng engine.Engine = m.eng
		if r.trace {
			eng = &tracedEngine{Engine: m.eng, tr: r.tr, config: m.Key}
		}
		backends[i] = serve.Backend{
			Server: serve.New(eng, serve.Options{MaxConcurrent: 1, WorkerBudget: 1, DisableCache: true}),
			Config: m.Config,
			Class:  m.Class,
		}
	}
	router, err := serve.NewRouter(backends, serve.RouterOptions{})
	if err != nil {
		closeMembers(members)
		return nil, err
	}
	return &fleet{members: members, router: router}, nil
}

// probe grounds the router's cost model in this host: every (member,
// scenario) pair runs with DefaultParams, sequentially, and its wall time
// feeds the model, as a deployed fleet's start-up probe would. Without it
// the model starts from the committed offline fit alone, and which
// expensive backend it tries during the warm-up varies from run to run.
// A pair that runs in under probeRepeatBelow runs probeRepeats times and
// feeds its median: the router ranks near-tied backends by these walls, so
// one noisy sample would decide a whole set-up's routing.
func (f *fleet) probe() error {
	model := f.router.Model()
	for _, m := range f.members {
		for _, q := range engine.AllScenarios() {
			if !m.eng.Supports(q) {
				continue
			}
			pl, err := plan.Compile(q, engine.DefaultParams())
			if err != nil {
				return err
			}
			var walls samples
			for len(walls) < probeRepeats && (len(walls) == 0 || walls[0] < probeRepeatBelow) {
				start := time.Now()
				if _, err := m.eng.Run(context.Background(), q, engine.DefaultParams()); err != nil {
					return fmt.Errorf("probe %s %s: %w", m.Key, q, err)
				}
				walls = append(walls, time.Since(start))
			}
			model.ObserveWall(m.Config, pl, float64(walls.quantile(0.5).Nanoseconds()))
		}
	}
	return nil
}

// warm probes the fleet, then sends it n sequential requests of the mix
// whose answers are discarded. The warm-up traffic is drawn from the mix's
// own seed and the set-up's index, not the workload seed, so every run
// sets up alike.
func (f *fleet) warm(mix *fleetMix, setup, n int) error {
	if err := f.probe(); err != nil {
		return err
	}
	next := mix.stream(datagen.NewRNG(mixSeed).DeriveStream(uint64(100 + setup)))
	for j := 0; j < n; j++ {
		req := next()
		if _, _, err := f.router.Run(context.Background(), req.q, req.p); err != nil {
			return fmt.Errorf("warm-up %s: %w", req.q, err)
		}
	}
	return nil
}

func (f *fleet) member(key string) engine.Engine {
	for _, m := range f.members {
		if m.Key == key {
			return m.eng
		}
	}
	panic("genbench: no fleet member " + key)
}

// Class representatives the benchmark runs requests on directly: the
// cheapest member of each class at the small preset.
var classRep = map[string]string{
	core.ClassDense: "scidb",
	core.ClassDist:  "pbdr@2n",
	core.ClassMR:    "hadoop",
}

// mrValidatePerQuery bounds validation on the MapReduce class, whose
// members take up to 0.6 s per query at the small preset: the hot set and
// this many cold keys per query run there too. The dense and dist classes
// validate every key. No selection guard differs between classes, so a key
// valid on two classes is valid on the third.
const mrValidatePerQuery = 2

// validate runs req once on the dense and dist class representatives, and
// on the MapReduce one when mr is set, concurrently.
func (f *fleet) validate(req request, mr bool) error {
	classes := []string{core.ClassDense, core.ClassDist}
	if mr {
		classes = append(classes, core.ClassMR)
	}
	errs := make([]error, len(classes))
	var wg sync.WaitGroup
	for i, class := range classes {
		eng := f.member(classRep[class])
		if !eng.Supports(req.q) {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Run(context.Background(), req.q, req.p); err != nil {
				errs[i] = fmt.Errorf("%s: %w", classRep[class], err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// checkGoldens runs Q1-Q6 with DefaultParams on every member: Q1-Q5 must
// hash to the committed class goldens (the fleet is at the golden point),
// and every class must answer Q6 identically.
func checkGoldens(r *runCtx, f *fleet) error {
	want, err := loadGoldens()
	if err != nil {
		return err
	}
	check := newClassCheck()
	p := engine.DefaultParams()
	for _, m := range f.members {
		for _, q := range engine.AllScenarios() {
			if !m.eng.Supports(q) {
				continue
			}
			res, err := m.eng.Run(context.Background(), q, p)
			if err != nil {
				r.mismatch("golden point: %s %s: %v", m.Key, q, err)
				continue
			}
			check.observe(r, m.Class, m.Key, q, p, res.Answer)
			if golden, ok := want[classGoldenKey(m.Class, q)]; ok && !r.scale.tiny {
				if h, _ := answerHash(res.Answer); h != golden {
					r.mismatch("golden point: %s %s hashes %.12s, committed class golden %.12s", m.Key, q, h, golden)
				}
			}
		}
	}
	return nil
}

// runFleetMixed serves open-loop Poisson traffic through the cost router
// over the whole fleet at the small preset. The reference window at the
// reference rate is split into fleetEpisodes episodes, each on a freshly
// set-up fleet. The router ranks near-tied backends by the wall times it
// learns, and a set-up's router can settle on costlier backends than
// another's for its whole window: over six runs of one episode each, CPU
// per request spread by 13-15% (interquartile range over median), and
// episodes of one run differ by up to 15%. cpu_ms is therefore the mean
// over episodes of each episode's median CPU slice: the median keeps a slow
// stretch of the host out of an episode's figure, the mean averages the
// routers. Untraced, the episodes take the measured seconds; traced, they
// take half and the rate ladder behind serve.slo_qps the rest.
func runFleetMixed(r *runCtx) error {
	dscale := 1.0
	if r.scale.tiny {
		dscale = 0.5
	}
	// The fleet serves the golden-point dataset (small preset, seed 1).
	gen := func() (*datagen.Dataset, error) {
		return datagen.Generate(datagen.Config{Size: datagen.Small, Scale: dscale, Seed: dataSeed})
	}
	perCold := coldPerQuery
	if r.scale.tiny {
		perCold = 8
	}
	var mix *fleetMix
	{
		ds, err := gen()
		if err != nil {
			return err
		}
		f, err := buildFleet(r, ds, filepath.Join(r.scratch, "validate"))
		if err != nil {
			return err
		}
		mix, err = buildMix(mixSeed, hotPerQuery, perCold, f.validate)
		if err == nil {
			err = checkGoldens(r, f)
		}
		closeMembers(f.members)
		if err != nil {
			return err
		}
	}

	ctx := context.Background()
	rng := datagen.NewRNG(r.seed)
	warmup := warmupRequests
	if r.scale.tiny {
		warmup = 100
	}
	// setUp builds fleet i and grounds its router: load, probe, and a
	// discarded sequential warm-up (the router's cost model learns only
	// from uncontended requests).
	setUp := func(i int) (*fleet, error) {
		ds, err := gen()
		if err != nil {
			return nil, err
		}
		f, err := buildFleet(r, ds, filepath.Join(r.scratch, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, err
		}
		if err := f.warm(mix, i, warmup); err != nil {
			closeMembers(f.members)
			return nil, err
		}
		return f, nil
	}

	refSeconds := r.seconds
	if r.trace {
		refSeconds = r.seconds / 2
	}
	perEpisode := max(int(fleetRefRate*refSeconds.Seconds())/fleetEpisodes, int(10/(1-fleetTail)))
	if r.scale.tiny {
		perEpisode = 100
	}
	var setups, cpu []float64
	var lat []samples
	var outs []outcome
	var delta routerDelta
	var f *fleet
	defer func() {
		if f != nil {
			closeMembers(f.members)
		}
	}()
	var served time.Duration
	steal := measureSteal(r)
	for i := 0; i < fleetEpisodes; i++ {
		if f != nil {
			closeMembers(f.members)
			f = nil
		}
		r.tr.pause(true)
		runtime.GC()
		c0 := cpuNow()
		var err error
		if f, err = setUp(i); err != nil {
			return err
		}
		setups = append(setups, (cpuNow() - c0).Seconds())
		if i == 0 {
			r.setE2E("heap_mb", liveHeapMB(), "MB")
		}
		r.tr.pause(false)

		do := func(ctx context.Context, id uint64, req request) (*engine.Result, error) {
			ctx, end := r.tr.begin(withRequest(ctx, id), spanRequest, "")
			res, _, err := f.router.Run(ctx, req.q, req.p)
			end(nil)
			return res, err
		}
		base := f.router.RouterStats()
		erng := rng.DeriveStream(uint64(i))
		start := time.Now()
		l := openLoop(ctx, erng.DeriveStream(1), fleetRefRate, perEpisode, uint64(1+len(outs)), mix.stream(erng), do)
		served += time.Since(start)
		delta.add(base, f.router.RouterStats())
		cpu = append(cpu, medianFloat(l.cpuPerRequest()))
		lat = append(lat, latencies(l.outs))
		checkServedSample(r, f, l.outs)
		outs = append(outs, l.outs...)
	}
	steal()
	r.setE2E("setup_s", medianFloat(setups), "s")

	failures := map[string]int64{}
	for i := range outs {
		r.attempted++
		if err := outs[i].err; err != nil {
			r.failed++
			failures[failureKind(err)]++
			fmt.Fprintf(os.Stderr, "genbench: %s: %v\n", outs[i].req.q, err)
		}
	}
	fmt.Printf("genbench: fleet-mixed served %d requests at %d/s offered in %d episodes of %.2fs in all\n",
		len(outs), fleetRefRate, fleetEpisodes, served.Seconds())
	r.setE2E("cpu_ms", meanFloat(cpu), "ms")
	reportLatency(r, lat, fleetTail)
	r.setE2E("ok_frac", float64(r.attempted-r.failed)/float64(r.attempted), "ratio")

	if r.trace {
		fleetLayers(r, outs, delta, failures)
		ladder(r, f, rng, mix, r.seconds-refSeconds)
	}
	return nil
}

// routerDelta sums a router's counters over measured windows.
type routerDelta struct {
	hits, misses, rerouted, engineFailures int64
	keys                                   []string
	served, failed                         []int64 // per backend, in registration order
}

// add adds the counters' growth from base to after.
func (d *routerDelta) add(base, after serve.RouterStats) {
	d.hits += after.CacheHits - base.CacheHits
	d.misses += after.CacheMisses - base.CacheMisses
	d.rerouted += after.Rerouted - base.Rerouted
	d.engineFailures += after.EngineFailures - base.EngineFailures
	if d.keys == nil {
		for _, s := range after.Shares {
			d.keys = append(d.keys, s.Key)
		}
		d.served = make([]int64, len(after.Shares))
		d.failed = make([]int64, len(after.Shares))
	}
	for i, s := range after.Shares {
		d.served[i] += s.Served - base.Shares[i].Served
		d.failed[i] += s.Failed - base.Shares[i].Failed
	}
}

// checkServedSample re-runs every sampleEvery-th served request directly on
// the class representatives; the served answer must equal one of them bit
// for bit.
func checkServedSample(r *runCtx, f *fleet, outs []outcome) {
	ctx := context.Background()
	for i := 0; i < len(outs); i += sampleEvery {
		o := &outs[i]
		if o.err != nil {
			continue
		}
		got, err := answerHash(o.res.Answer)
		if err != nil {
			r.mismatch("served %s: %v", o.req.q, err)
			continue
		}
		matched := false
		for _, class := range []string{core.ClassDense, core.ClassDist, core.ClassMR} {
			eng := f.member(classRep[class])
			if !eng.Supports(o.req.q) {
				continue
			}
			res, err := eng.Run(ctx, o.req.q, o.req.p)
			if err != nil {
				continue
			}
			if h, _ := answerHash(res.Answer); h == got {
				matched = true
				break
			}
		}
		if !matched {
			r.mismatch("served %s %+v answer %.12s matches no direct run on the fleet", o.req.q, o.req.p, got)
		}
	}
}

// fleetLayers derives the serving-layer metrics of the traced windows.
func fleetLayers(r *runCtx, outs []outcome, d routerDelta, failures map[string]int64) {
	r.setLayer("serve.cache_hits", float64(d.hits), "count")
	r.setLayer("serve.cache_misses", float64(d.misses), "count")
	if d.hits+d.misses > 0 {
		r.setLayer("serve.cache_hit_ratio", float64(d.hits)/float64(d.hits+d.misses), "ratio")
	}
	var execs int64
	for i := range d.keys {
		execs += d.served[i] + d.failed[i]
	}
	for i, key := range d.keys {
		if execs > 0 {
			r.setLayer("route.share."+metricKey(key), float64(d.served[i])/float64(execs), "ratio")
		}
	}
	r.setLayer("serve.exec_per_request", float64(execs)/float64(len(outs)), "ratio")
	r.setLayer("route.rerouted", float64(d.rerouted), "count")
	r.setLayer("serve.shed", float64(failures["shed"]), "count")
	r.setLayer("serve.deadlined", float64(failures["deadlined"]), "count")
	r.setLayer("serve.engine_failures", float64(d.engineFailures), "count")
	r.setLayer("serve.untyped_errors", float64(failures["untyped"]), "count")

	var late samples
	for i := range outs {
		late = append(late, outs[i].late)
	}
	r.setLayer("gen.late_p99_ms", ms(late.quantile(0.99)), "ms")

	spans := r.tr.snapshot()
	engineLayers(r, outs, spans)
	kernelLayers(r, spans)
}

// ladder climbs fleetLadder within budget and reports the highest rate whose
// p99 meets fleetLimit without a growing backlog (the last request drains
// within the limit of its scheduled time).
func ladder(r *runCtx, f *fleet, rng *datagen.RNG, mix *fleetMix, budget time.Duration) {
	ctx := context.Background()
	deadline := time.Now().Add(budget)
	best := 0.0
	for i, rate := range fleetLadder {
		n := max(ladderMin, int(rate))
		if r.scale.tiny {
			n = 50
		}
		if i > 0 && time.Now().Add(time.Duration(float64(n)/rate*float64(time.Second))).After(deadline) {
			break
		}
		l := openLoop(ctx, rng.DeriveStream(uint64(200+i)), rate, n, 0,
			mix.stream(rng),
			func(ctx context.Context, _ uint64, req request) (*engine.Result, error) {
				res, _, err := f.router.Run(ctx, req.q, req.p)
				return res, err
			})
		lat := latencies(l.outs)
		ok := len(lat) == len(l.outs)
		drain := l.lastDone.Sub(l.outs[len(l.outs)-1].due)
		p99 := lat.quantile(0.99)
		fmt.Printf("genbench: ladder %.0f/s: p99 %.2fms, drain %.2fms\n", rate, ms(p99), ms(drain))
		if !ok || p99 > fleetLimit || drain > fleetLimit {
			break
		}
		best = rate
	}
	r.setLayer("serve.slo_qps", best, "1/s")
}

// engineLayers derives engine time and queueing wait of the executed
// requests from the engine spans: the wait runs from the scheduled send to
// the request's first engine span.
func engineLayers(r *runCtx, outs []outcome, spans []span) {
	firstEngine := map[uint64]*span{}
	var engineTimes samples
	for i := range spans {
		s := &spans[i]
		if s.Name != spanEngine || s.Req == 0 {
			continue
		}
		engineTimes = append(engineTimes, s.dur())
		if prev, ok := firstEngine[s.Req]; !ok || s.Start < prev.Start {
			firstEngine[s.Req] = s
		}
	}
	var waits samples
	for i := range outs {
		if s, ok := firstEngine[outs[i].id]; ok {
			waits = append(waits, time.Duration(s.Start)-outs[i].due.Sub(r.tr.t0))
		}
	}
	r.setLayer("serve.engine_p50_ms", ms(engineTimes.quantile(0.5)), "ms")
	r.setLayer("serve.engine_p99_ms", ms(engineTimes.quantile(0.99)), "ms")
	r.setLayer("serve.wait_p50_ms", ms(waits.quantile(0.5)), "ms")
	r.setLayer("serve.wait_p99_ms", ms(waits.quantile(0.99)), "ms")
}
