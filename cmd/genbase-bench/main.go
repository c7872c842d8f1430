// Command genbase-bench regenerates the paper's evaluation: every panel of
// Figures 1–5 and Table 1, printed as aligned text tables ("INF" marks runs
// that exceeded the cutoff or an engine's memory budget, the paper's
// horizontal lines; "-" marks queries a configuration cannot run).
//
// Usage:
//
//	genbase-bench -figure 1             # single-node overall times
//	genbase-bench -figure 3 -timeout 1m # multi-node sweep
//	genbase-bench -all                  # everything (used for EXPERIMENTS.md)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/genbase/genbase/internal/core"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/parallel"
)

func main() {
	figure := flag.Int("figure", 0, "regenerate one figure (1-5)")
	table := flag.Int("table", 0, "regenerate one table (1)")
	all := flag.Bool("all", false, "regenerate every figure and table")
	scale := flag.Float64("scale", 1.0, "dataset dimension multiplier")
	seed := flag.Uint64("seed", 1, "generator seed")
	timeout := flag.Duration("timeout", core.DefaultTimeout, "per-query cutoff (the paper's 2 hours, scaled)")
	sizes := flag.String("sizes", "small,medium,large", "comma-separated dataset presets")
	reps := flag.Int("reps", 3, "repetitions per query (minimum kept)")
	extension := flag.String("extension", "", "extension experiment: weak|bigcluster|approxsvd (paper future work)")
	workers := flag.Int("workers", 0, "analytics worker count for every engine (0 = GENBASE_PARALLEL or NumCPU)")
	parallelSweep := flag.String("parallel-sweep", "", "comma-separated worker counts: time the hot kernels at each and report single-core vs multicore speedups (e.g. 1,2,4,8)")
	clients := flag.String("clients", "", "serve mode: comma-separated client counts (e.g. 1,2,4) driving concurrent queries through internal/serve; reports QPS and p50/p99 per engine")
	duration := flag.Duration("duration", 1500*time.Millisecond, "serve mode: measurement window per (system, clients) run")
	rate := flag.Float64("rate", 200, "serve mode: open-loop offered load in arrivals/sec (Poisson inter-arrival gaps from a seeded generator; arrivals finding the bounded queue full are dropped and counted)")
	serveSystems := flag.String("serve-systems", "", "serve mode: comma-separated system names (default: every single-node configuration, or every multi-node one when -nodes has a value > 1)")
	serveNodes := flag.String("nodes", "", "serve mode: comma-separated node counts (e.g. 1,2,4); counts > 1 serve the virtual-cluster variants — answers are identical at any node count (DESIGN.md §13)")
	serveCache := flag.Bool("serve-cache", false, "serve mode: enable the shared result cache (repeated queries answered without re-execution)")
	serveSize := flag.String("serve-size", "small", "serve mode: dataset preset")
	serveOut := flag.String("serve-out", "", "serve mode: write the results JSON (the BENCH_serve.json baseline) to this file")
	faultSpec := flag.String("faults", "", "serve mode with -nodes: deterministic fault plan injected into every query, e.g. \"crash:1@3,flaky:0@2,slow:2x8\" (see internal/faults)")
	replication := flag.Int("replication", 1, "serve mode with -nodes: shard replication factor (2 survives any single-node crash with bit-identical answers)")
	faultDrill := flag.Bool("fault-drill", false, "run the fault-drill sweep: node-kill, straggler, and flaky schedules at 4 and 8 nodes with replication 2, reporting QPS/p99 and recovery makespans")
	ingestRate := flag.Float64("ingest-rate", 0, "serve mode: append rows/sec into a WAL store beside the serve window; each -checkpoint-every rows fold into a new snapshot epoch that is swapped into the server (queries in flight stay pinned to their admission epoch)")
	checkpointEvery := flag.Int("checkpoint-every", 16, "serve mode with -ingest-rate: rows per checkpoint (each checkpoint advances the served epoch)")
	crashDrill := flag.Bool("crash-drill", false, "run the WAL crash-recovery drill: truncate a checkpointed WAL at every record boundary plus a byte stride through the torn tail, verify recovery converges to identical segment digests and snapshot hashes, and serve recovered snapshots at -nodes checking bit-identical answers")
	faultsOut := flag.String("faults-out", "", "fault-drill mode: write the results JSON (the BENCH_faults.json baseline) to this file")
	scanBench := flag.Bool("scan-bench", false, "run the scan-throughput microbench: selective predicates on encoded pages vs decode-then-filter, rows/sec and bytes/sec per encoding")
	scanOut := flag.String("scan-out", "", "scan-bench mode: write the results JSON (the BENCH_scan.json baseline) to this file")
	explain := flag.Bool("explain", false, "print the compiled plan of every scenario per engine (operator → physical impl → phase tag → estimated cost) and exit")
	route := flag.String("route", "", "serve mode: comma-separated routing policies benchmarked over the full fleet on the mixed Q1-Q6 workload, e.g. \"cost,static:colstore-udf\" (cost = per-request cheapest-configuration routing; static:<config> = pin every request to one configuration)")
	routeNodes := flag.Int("route-nodes", 2, "serve mode with -route: virtual-cluster node count for the fleet's multi-node configurations")
	fitCost := flag.Bool("fit-cost", false, "refit the cost-model coefficients from the committed bench baselines and exit (deterministic; CI diffs the output against internal/cost/coeffs.json)")
	fitPipeline := flag.String("fit-pipeline", "BENCH_pipeline.json", "fit-cost mode: pipeline baseline path")
	fitKernels := flag.String("fit-kernels", "BENCH_kernels.json", "fit-cost mode: kernels baseline path")
	fitServe := flag.String("fit-serve", "BENCH_serve.json", "fit-cost mode: serve baseline path")
	fitOut := flag.String("fit-out", "internal/cost/coeffs.json", "fit-cost mode: output coefficient file")
	quiet := flag.Bool("quiet", false, "suppress progress lines")
	flag.Parse()

	if *fitCost {
		err := runFitCost(fitConfig{
			pipelinePath: *fitPipeline,
			kernelsPath:  *fitKernels,
			servePath:    *fitServe,
			outPath:      *fitOut,
			quiet:        *quiet,
		})
		if err != nil {
			fatal(err)
		}
		return
	}

	if *explain {
		if err := runExplain(); err != nil {
			fatal(err)
		}
		return
	}

	if *workers > 0 {
		parallel.SetDefault(*workers)
		core.SetWorkers(*workers)
	}

	if !*all && *figure == 0 && *table == 0 && *extension == "" && *parallelSweep == "" && *clients == "" && *route == "" && !*faultDrill && !*scanBench && !*crashDrill {
		flag.Usage()
		os.Exit(2)
	}

	// -route alone is a serve-mode run at the default client count.
	if *route != "" && *clients == "" {
		*clients = "4"
	}

	if *scanBench {
		fmt.Fprintln(os.Stderr, "running scan-throughput microbench...")
		if err := runScanBench(scanConfig{seed: *seed, outPath: *scanOut, quiet: *quiet}); err != nil {
			fatal(err)
		}
	}

	if *crashDrill {
		nodes := 4
		if *serveNodes != "" {
			counts, err := parseCounts("-nodes", *serveNodes)
			if err != nil {
				fatal(err)
			}
			nodes = counts[0]
		}
		fmt.Fprintln(os.Stderr, "running WAL crash-recovery drill...")
		err := runCrashDrill(context.Background(), crashDrillConfig{
			size:  datagen.Size(strings.TrimSpace(*serveSize)),
			scale: *scale,
			seed:  *seed,
			nodes: nodes,
			quiet: *quiet,
		})
		if err != nil {
			fatal(err)
		}
	}

	if *faultDrill {
		fmt.Fprintln(os.Stderr, "running fault-drill sweep...")
		err := runFaultDrill(context.Background(), drillConfig{
			duration: *duration,
			rate:     *rate,
			size:     datagen.Size(strings.TrimSpace(*serveSize)),
			scale:    *scale,
			seed:     *seed,
			outPath:  *faultsOut,
			quiet:    *quiet,
		})
		if err != nil {
			fatal(err)
		}
	}

	if *clients != "" {
		counts, err := parseCounts("-clients", *clients)
		if err != nil {
			fatal(err)
		}
		sc := serveConfig{
			clientCounts: counts,
			duration:     *duration,
			rate:         *rate,
			cache:        *serveCache,
			size:         datagen.Size(strings.TrimSpace(*serveSize)),
			scale:        *scale,
			seed:         *seed,
			outPath:      *serveOut,
			quiet:        *quiet,
			faults:       strings.TrimSpace(*faultSpec),
			replication:  *replication,
			route:        strings.TrimSpace(*route),
			routeNodes:   *routeNodes,
			reps:         *reps,
			ingestRate:   *ingestRate,
			ckptEvery:    *checkpointEvery,
		}
		if *serveSystems != "" {
			for _, s := range strings.Split(*serveSystems, ",") {
				sc.systems = append(sc.systems, strings.TrimSpace(s))
			}
		}
		if *serveNodes != "" {
			nodes, err := parseCounts("-nodes", *serveNodes)
			if err != nil {
				fatal(err)
			}
			sc.nodes = nodes
		}
		fmt.Fprintln(os.Stderr, "running serve-mode throughput sweep...")
		if err := runServe(context.Background(), sc); err != nil {
			fatal(err)
		}
	}

	var sz []datagen.Size
	for _, s := range strings.Split(*sizes, ",") {
		sz = append(sz, datagen.Size(strings.TrimSpace(s)))
	}
	suite := &core.Suite{Sizes: sz, Scale: *scale, Seed: *seed, Timeout: *timeout, Repetitions: *reps}
	if !*quiet {
		suite.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  ▸ "+format+"\n", args...)
		}
	}
	ctx := context.Background()
	start := time.Now()

	want := func(f int) bool { return *all || *figure == f }

	var singleOuts []core.Outcome
	if want(1) || want(2) {
		fmt.Fprintln(os.Stderr, "running single-node sweep (figures 1-2)...")
		var err error
		singleOuts, err = suite.RunSingleNode(ctx)
		if err != nil {
			fatal(err)
		}
	}
	if want(1) {
		tables, err := suite.Figure1(singleOuts)
		if err != nil {
			fatal(err)
		}
		printTables(tables)
	}
	if want(2) {
		tables, err := suite.Figure2(singleOuts)
		if err != nil {
			fatal(err)
		}
		printTables(tables)
	}

	var multiOuts []core.Outcome
	if want(3) || want(4) {
		fmt.Fprintln(os.Stderr, "running multi-node sweep (figures 3-4)...")
		var err error
		multiOuts, err = suite.RunMultiNode(ctx)
		if err != nil {
			fatal(err)
		}
	}
	if want(3) {
		printTables(suite.Figure3(multiOuts))
	}
	if want(4) {
		printTables(suite.Figure4(multiOuts))
	}

	if want(5) {
		fmt.Fprintln(os.Stderr, "running coprocessor sweep (figure 5)...")
		outs, err := suite.RunPhi(ctx)
		if err != nil {
			fatal(err)
		}
		tables, err := suite.Figure5(outs)
		if err != nil {
			fatal(err)
		}
		printTables(tables)
	}
	if *all || *table == 1 {
		fmt.Fprintln(os.Stderr, "running multi-node coprocessor sweep (table 1)...")
		outs, err := suite.RunPhiMultiNode(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Println(suite.Table1(outs).Render())
	}
	if *parallelSweep != "" {
		var counts []int
		for _, f := range strings.Split(*parallelSweep, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v < 1 {
				fatal(fmt.Errorf("bad -parallel-sweep worker count %q", f))
			}
			counts = append(counts, v)
		}
		fmt.Fprintln(os.Stderr, "running parallel kernel sweep...")
		tables, err := suite.RunParallelSweep(ctx, counts)
		if err != nil {
			fatal(err)
		}
		printTables(tables)
	}

	switch *extension {
	case "":
	case "weak":
		fmt.Fprintln(os.Stderr, "running weak-scaling extension (paper §5.2)...")
		tables, err := suite.RunWeakScaling(ctx, nil)
		if err != nil {
			fatal(err)
		}
		printTables(tables)
	case "bigcluster":
		fmt.Fprintln(os.Stderr, "running 48-node strong-scaling extension (paper §4.4)...")
		tables, err := suite.RunLargeCluster(ctx, nil)
		if err != nil {
			fatal(err)
		}
		printTables(tables)
	case "approxsvd":
		fmt.Fprintln(os.Stderr, "running approximate-SVD extension (paper §6.3)...")
		tbl, agreement, err := suite.RunApproxSVD(ctx, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println(tbl.Render())
		fmt.Print("worst relative singular-value error vs exact:")
		for _, a := range agreement {
			fmt.Printf(" %.2g", a)
		}
		fmt.Println()
	default:
		fatal(fmt.Errorf("unknown extension %q", *extension))
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Second))
}

func printTables(tables []*core.Table) {
	for _, t := range tables {
		fmt.Println(t.Render())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "genbase-bench:", err)
	os.Exit(1)
}
