package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// BENCHMARK.json at the repository root is the only declaration of the
// workloads and metrics; the benchmark reads it back at run time.
//
// End-to-end metrics. Every workload reports every one of them over its own
// operations: paper-medium's are the 69 (configuration, scenario) queries of
// a pass, fleet-mixed's the routed requests at the reference rate,
// ingest-serve's the reads plus the appends beside them.
//
//   - setup_s: generate, load and warm up, in process CPU seconds (median of
//     the workload's set-ups).
//   - heap_mb: live heap after set-up and a forced collection.
//   - ok_frac: operations that succeeded over operations attempted (dropped,
//     shed, deadlined and errored ones fail).
//   - cpu_ms: process CPU time per operation. On paper-medium it is the
//     geometric mean over pairs of each pair's median, so a gain in any
//     engine shows although the MapReduce pairs take most of a pass; on
//     fleet-mixed it is the mean over its episodes of each episode's median
//     CPU slice, and on ingest-serve the median over its cycles.
//
// Times are CPU time, not wall time, because on a shared virtual machine the
// wall clock also counts the time the hypervisor gives other tenants. On
// the 2-vCPU host this benchmark was built on, steal ran from 0% to 14% of
// CPU time between runs minutes apart; over five runs of a workload the
// interquartile range of its wall-clock latency figures reached 74% of the
// median on fleet-mixed and 46% on ingest-serve, where CPU time per
// operation spread by 7-11%. Wall-clock latencies are reported per layer
// (lat.*) beside the steal measured in the same window. CPU time is not
// immune to a busy host either, since neighbours on shared cores and caches
// make the same work take more of it: over ten runs spanning 16 minutes on
// that host, CPU per operation of all three workloads rose together by up
// to a third as the host got busier.
//
// Per-layer metrics, and the end-to-end metric each should move (<config>
// is a configuration key with '@' mapped to '-', as metricKey does). A
// metric of a layer a workload does not exercise reads 0 on it. Span time
// sums (scan, pivot, kernel, glue, plan, phase, cluster) add up every query
// the run made, repeats included.
//
//	host.fma_gflops, host.memcpy_gbps   none: in-run ceilings kernel rates are read against
//	host.steal_pct                      none: hypervisor steal in the window; lat.* move with it
//	lat.p50_ms, lat.tail_ms             user-visible latency from the scheduled send: tail is p99
//	                                    on fleet-mixed and ingest-serve, p85 of 69 on paper-medium
//	lat.mean_ms, lat.geomean_ms         user-visible mean latency; lat.geomean_ms is the
//	                                    paper-medium suite geomean
//	trace.overhead.<e2e metric>         none: traced over untraced minus 1, same workload and seed
//	scan.ms.<config>, pivot.ms.<config> cpu_ms and lat.geomean_ms on paper-medium; none on ingest-serve
//	kernel.<kernel>_ms                  cpu_ms on paper-medium; cpu_ms and lat.tail_ms on
//	                                    fleet-mixed, through cache misses
//	kernel.covariance_gflops            cpu_ms on paper-medium; read against host.fma_gflops
//	glue.transfer_ms                    cpu_ms on paper-medium, only through the -r configurations
//	plan.self_ms                        cpu_ms and lat.p50_ms on fleet-mixed; invisible on paper-medium
//	phase.{dm,analytics,transfer}_ms.<config>
//	                                    cpu_ms and lat.geomean_ms on paper-medium (the paper's
//	                                    Figure 2/4 split; virtual for clusters)
//	cluster.wall_ms                     cpu_ms on paper-medium (host cost of the virtual clusters)
//	cluster.virtual_ms                  none: simulated makespan, the paper's multi-node figures
//	serve.cache_hit_ratio, _hits, _misses
//	                                    cpu_ms and lat.p50_ms on fleet-mixed and ingest-serve
//	serve.engine_p50_ms, serve.wait_p50_ms  lat.p50_ms on fleet-mixed
//	serve.engine_p99_ms, serve.wait_p99_ms  lat.tail_ms on fleet-mixed
//	serve.exec_per_request              cpu_ms on fleet-mixed
//	route.share.<config>                cpu_ms and serve.slo_qps on fleet-mixed
//	route.rerouted                      lat.tail_ms on fleet-mixed
//	serve.{shed,deadlined,engine_failures,untyped_errors}  ok_frac on fleet-mixed
//	gen.late_p99_ms                     none: load-generator lateness; a large value voids lat.*
//	serve.slo_qps                       fleet-mixed capacity: highest ladder rate whose p99 meets
//	                                    the limit without a growing backlog
//	wal.checkpoint_ms, wal.snapshot_ms, engine.load_ms, serve.swap_ms
//	                                    wal.visible_ms and cpu_ms on ingest-serve
//	wal.replay_ms, wal.replay_records   wal.recovery_s on ingest-serve
//	wal.bytes_per_row                   wal.append_p50_ms, wal.recovery_s and cpu_ms on ingest-serve
//	wal.segment_pool_hit_ratio          wal.snapshot_ms on ingest-serve
//	wal.append_p50_ms, wal.append_p99_ms  cpu_ms on ingest-serve: durable ack from the scheduled time
//	wal.visible_ms                      freshness on ingest-serve: checkpoint start until served
//	wal.recovery_s                      recovery on ingest-serve: wal.Open on the final log

// benchmarkFile is the declaration, relative to the repository root.
const benchmarkFile = "BENCHMARK.json"

// declaredUnits returns the name-to-unit map of one metric section of
// BENCHMARK.json: "end_to_end" or "per_layer".
func declaredUnits(section string) (map[string]string, error) {
	raw, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return nil, err
	}
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(raw, &sections); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	var sec []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	if err := json.Unmarshal(sections[section], &sec); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", benchmarkFile, section, err)
	}
	out := make(map[string]string, len(sec))
	for _, d := range sec {
		out[d.Name] = d.Unit
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s declares no %s metrics", benchmarkFile, section)
	}
	return out, nil
}
