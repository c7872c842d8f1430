// Command genbench is the repository's benchmark: one command that runs a
// named workload against the GenBase reproduction through its public API
// (core, plan, engine, serve, wal), checks every answer, and prints its
// metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set declared in
// BENCHMARK.json; with -trace 1 the same workload runs with benchmark-side
// spans around each layer's public calls and the metrics are the per-layer
// set. Run it from the repository root through genbench/run.sh, which builds
// this module first:
//
//	bash genbench/run.sh --workload paper-medium --seed 1 --seconds 20 --trace 0
//	bash genbench/run.sh --selftest
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/genbase/genbase/internal/linalg"
)

// outDir holds everything a run leaves behind (scratch engines, WAL
// directories, span files, result files), relative to the repository root
// the benchmark runs from.
const outDir = ".bench_build/genbench"

// workloads maps each workload name to the function that runs it: the
// workloads BENCHMARK.json declares.
var workloads = map[string]func(*runCtx) error{
	"paper-medium": runPaperMedium,
	"fleet-mixed":  runFleetMixed,
	"ingest-serve": runIngestServe,
}

var workloadOrder = []string{"paper-medium", "fleet-mixed", "ingest-serve"}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// scale shrinks every workload for the self-test: 1 is the benchmark.
type scale struct {
	tiny bool
}

// runCtx is one workload run: its inputs, its clocks, and what it reports.
type runCtx struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	scale    scale
	scratch  string // per-run scratch directory under outDir

	tr *tracer // nil unless trace

	attempted, failed int64
	mismatches        []string

	e2e   map[string]metric
	layer map[string]metric
}

func (r *runCtx) mismatch(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.mismatches) < 20 {
		fmt.Fprintln(os.Stderr, "genbench: MISMATCH:", msg)
	}
	r.mismatches = append(r.mismatches, msg)
}

func (r *runCtx) setE2E(name string, v float64, unit string) { r.e2e[name] = metric{v, unit} }
func (r *runCtx) setLayer(name string, v float64, unit string) {
	r.layer[name] = metric{v, unit}
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: paper-medium, fleet-mixed or ingest-serve")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs with benchmark-side spans and reports the per-layer metrics")
	selftest := flag.Bool("selftest", false, "run every workload at a tiny scale and check the emitted metric names")
	flag.Parse()

	if *selftest {
		if err := runSelfTest(); err != nil {
			fmt.Fprintln(os.Stderr, "genbench: self-test failed:", err)
			return 1
		}
		fmt.Println("genbench: self-test passed")
		return 0
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "genbench: unknown workload %q (want one of %v)\n", *workload, workloadOrder)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "genbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	res, err := runWorkload(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, scale{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "genbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "genbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload end to end and assembles its result line.
// An error means the run could not produce a result at all (a set-up
// failure); answer and durability mismatches produce a result with correct
// false.
func runWorkload(name string, seed uint64, seconds time.Duration, trace bool, sc scale) (*result, error) {
	if err := checkRepoRoot(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	r := &runCtx{
		workload: name, seed: seed, seconds: seconds, trace: trace, scale: sc, scratch: scratch,
		e2e: map[string]metric{}, layer: map[string]metric{},
	}
	if trace {
		r.tr = newTracer()
	}
	prov := provenance(name, seed, trace)
	fmt.Printf("genbench provenance %s\n", mustJSON(prov))
	if err := workloads[name](r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	res := &result{
		Correct:   len(r.mismatches) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s: no operation attempted", name)
	}
	resultsDir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return nil, err
	}
	if trace {
		measureHostCeilings(r)
		addTraceOverhead(r, resultsDir)
		declared, err := declaredUnits("per_layer")
		if err != nil {
			return nil, err
		}
		res.Metrics = fillDeclared(r.layer, declared)
		if err := r.tr.write(filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", name, seed)), prov, res.Metrics); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = r.e2e
		// The traced run of the same workload reads this file back to report
		// tracing overhead.
		if err := os.WriteFile(filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d.json", name, seed)), mustJSON(r.e2e), 0o644); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkRepoRoot fails fast when the benchmark is not run from a repository
// checkout (the golden answers and BENCHMARK.json live at its root).
func checkRepoRoot() error {
	for _, f := range []string{benchmarkFile, goldenPath} {
		if _, err := os.Stat(f); err != nil {
			return fmt.Errorf("run from the repository root: %w", err)
		}
	}
	return nil
}

// fillDeclared completes got over the declared per-layer names: a layer the
// workload does not exercise reports 0.
func fillDeclared(got map[string]metric, declared map[string]string) map[string]metric {
	for name, unit := range declared {
		if _, ok := got[name]; !ok {
			got[name] = metric{0, unit}
		}
	}
	return got
}

// provenanceInfo is printed with every run and written into the span file.
type provenanceInfo struct {
	Workload    string `json:"workload"`
	Seed        uint64 `json:"seed"`
	Trace       bool   `json:"trace"`
	Commit      string `json:"commit"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	KernelTiles string `json:"kernel_tiles"`
	Preset      string `json:"preset"`
}

func provenance(workload string, seed uint64, trace bool) provenanceInfo {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return provenanceInfo{
		Workload:    workload,
		Seed:        seed,
		Trace:       trace,
		Commit:      commit,
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		KernelTiles: linalg.KernelTileInfo(),
		Preset:      presetOf[workload],
	}
}

// presetOf records each workload's dataset preset and dimensions.
var presetOf = map[string]string{
	"paper-medium": "medium 1000 patients x 750 genes x 200 GO terms",
	"fleet-mixed":  "small 250 patients x 250 genes x 100 GO terms",
	"ingest-serve": "small 250 patients x 250 genes x 100 GO terms (base)",
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
