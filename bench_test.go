// Benchmarks regenerating the paper's evaluation, one per figure panel
// family and table, plus the ablation benches called out in DESIGN.md §8.
//
//	go test -bench=. -benchmem
//
// Figure benches run the small preset so the full suite stays fast; the
// genbase-bench command runs the full small/medium/large sweep. Multi-node
// benches report the virtual-cluster makespan as the custom metric
// "virtual-sec/op" (see DESIGN.md §3.3); wall-clock ns/op for those is the
// serial execution cost of the simulation itself.
package genbase

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"

	"github.com/genbase/genbase/internal/analytics"
	"github.com/genbase/genbase/internal/arraydb"
	"github.com/genbase/genbase/internal/bicluster"
	"github.com/genbase/genbase/internal/cluster"
	"github.com/genbase/genbase/internal/colstore"
	"github.com/genbase/genbase/internal/core"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/distlinalg"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/linalg"
	"github.com/genbase/genbase/internal/multinode"
	"github.com/genbase/genbase/internal/xeonphi"
)

var benchDataset = sync0nceDataset()

func sync0nceDataset() func(b *testing.B) *datagen.Dataset {
	var ds *datagen.Dataset
	return func(b *testing.B) *datagen.Dataset {
		if ds == nil {
			var err error
			ds, err = datagen.Generate(datagen.Config{Size: datagen.Small, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
		}
		return ds
	}
}

// loadedEngine builds and loads a single-node engine for a configuration.
func loadedEngine(b *testing.B, name string) engine.Engine {
	b.Helper()
	cfg, err := core.ConfigByName(name)
	if err != nil {
		b.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "genbase-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	eng := cfg.New(1, dir)
	b.Cleanup(func() { eng.Close() })
	if err := eng.Load(benchDataset(b)); err != nil {
		b.Fatal(err)
	}
	return eng
}

// benchQuery runs one query per iteration on every single-node system that
// supports it — the engine behind one Figure 1 panel.
func benchQuery(b *testing.B, q engine.QueryID) {
	p := engine.DefaultParams()
	for _, cfg := range core.SingleNodeConfigs() {
		cfg := cfg
		b.Run(cfg.Name, func(b *testing.B) {
			b.ReportAllocs()
			eng := loadedEngine(b, cfg.Name)
			if !eng.Supports(q) {
				b.Skip("query unsupported by this configuration")
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(ctx, q, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFigure1Regression(b *testing.B)   { benchQuery(b, engine.Q1Regression) }
func BenchmarkFigure1Biclustering(b *testing.B) { benchQuery(b, engine.Q3Biclustering) }
func BenchmarkFigure1SVD(b *testing.B)          { benchQuery(b, engine.Q4SVD) }
func BenchmarkFigure1Covariance(b *testing.B)   { benchQuery(b, engine.Q2Covariance) }
func BenchmarkFigure1Statistics(b *testing.B)   { benchQuery(b, engine.Q5Statistics) }

// BenchmarkFigure2RegressionBreakdown reports the DM and analytics phases of
// the regression query as custom metrics per system (Figure 2a–b).
func BenchmarkFigure2RegressionBreakdown(b *testing.B) {
	p := engine.DefaultParams()
	for _, cfg := range core.SingleNodeConfigs() {
		cfg := cfg
		b.Run(cfg.Name, func(b *testing.B) {
			b.ReportAllocs()
			eng := loadedEngine(b, cfg.Name)
			ctx := context.Background()
			var dm, an float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.Run(ctx, engine.Q1Regression, p)
				if err != nil {
					b.Fatal(err)
				}
				dm += res.Timing.DataManagement.Seconds() + res.Timing.Transfer.Seconds()
				an += res.Timing.Analytics.Seconds()
			}
			b.ReportMetric(dm/float64(b.N), "dm-sec/op")
			b.ReportMetric(an/float64(b.N), "analytics-sec/op")
		})
	}
}

// benchMultiNode runs one query on the virtual cluster across node counts,
// reporting the simulated makespan (Figures 3–4).
func benchMultiNode(b *testing.B, q engine.QueryID) {
	p := engine.DefaultParams()
	for _, cfg := range core.MultiNodeConfigs() {
		for _, nodes := range []int{1, 2, 4} {
			cfg, nodes := cfg, nodes
			b.Run(fmt.Sprintf("%s/nodes=%d", cfg.Name, nodes), func(b *testing.B) {
				b.ReportAllocs()
				eng := cfg.NewCluster(nodes)
				defer eng.Close()
				if !eng.Supports(q) {
					b.Skip("query unsupported by this configuration")
				}
				if err := eng.Load(benchDataset(b)); err != nil {
					b.Fatal(err)
				}
				ctx := context.Background()
				var virtual float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := eng.Run(ctx, q, p)
					if err != nil {
						b.Fatal(err)
					}
					virtual += res.Timing.Total().Seconds()
				}
				b.ReportMetric(virtual/float64(b.N), "virtual-sec/op")
			})
		}
	}
}

func BenchmarkFigure3Regression(b *testing.B) { benchMultiNode(b, engine.Q1Regression) }
func BenchmarkFigure3Covariance(b *testing.B) { benchMultiNode(b, engine.Q2Covariance) }
func BenchmarkFigure3SVD(b *testing.B)        { benchMultiNode(b, engine.Q4SVD) }
func BenchmarkFigure3Statistics(b *testing.B) { benchMultiNode(b, engine.Q5Statistics) }

// Figure 3b (biclustering) is separate: it is the slowest panel, so it runs
// at 1 and 4 nodes only.
func BenchmarkFigure3Biclustering(b *testing.B) {
	p := engine.DefaultParams()
	for _, nodes := range []int{1, 4} {
		nodes := nodes
		b.Run(fmt.Sprintf("pbdr/nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			eng := multinode.New(multinode.PBDR, nodes)
			if err := eng.Load(benchDataset(b)); err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(ctx, engine.Q3Biclustering, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure4RegressionBreakdown reports the multi-node DM/analytics
// split (Figure 4a–b) as virtual-time metrics.
func BenchmarkFigure4RegressionBreakdown(b *testing.B) {
	p := engine.DefaultParams()
	for _, cfg := range core.MultiNodeConfigs() {
		for _, nodes := range []int{1, 4} {
			cfg, nodes := cfg, nodes
			b.Run(fmt.Sprintf("%s/nodes=%d", cfg.Name, nodes), func(b *testing.B) {
				b.ReportAllocs()
				eng := cfg.NewCluster(nodes)
				defer eng.Close()
				if err := eng.Load(benchDataset(b)); err != nil {
					b.Fatal(err)
				}
				ctx := context.Background()
				var dm, an float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := eng.Run(ctx, engine.Q1Regression, p)
					if err != nil {
						b.Fatal(err)
					}
					dm += res.Timing.DataManagement.Seconds()
					an += res.Timing.Analytics.Seconds()
				}
				b.ReportMetric(dm/float64(b.N), "virtual-dm-sec/op")
				b.ReportMetric(an/float64(b.N), "virtual-analytics-sec/op")
			})
		}
	}
}

// BenchmarkFigure5XeonPhi compares host SciDB against the coprocessor model
// per query (Figure 5a–d), reporting the modeled total as the metric.
func BenchmarkFigure5XeonPhi(b *testing.B) {
	p := engine.DefaultParams()
	queries := map[string]engine.QueryID{
		"biclustering": engine.Q3Biclustering,
		"svd":          engine.Q4SVD,
		"covariance":   engine.Q2Covariance,
		"statistics":   engine.Q5Statistics,
	}
	for _, system := range []string{"scidb", "scidb-phi"} {
		for name, q := range queries {
			system, name, q := system, name, q
			b.Run(system+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				eng := loadedEngine(b, system)
				ctx := context.Background()
				var total float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := eng.Run(ctx, q, p)
					if err != nil {
						b.Fatal(err)
					}
					total += res.Timing.Total().Seconds()
				}
				b.ReportMetric(total/float64(b.N), "modeled-sec/op")
			})
		}
	}
}

// BenchmarkTable1PhiSpeedup reports the analytics-phase speedup of the Phi
// configuration per query and node count (Table 1) as the metric "speedup".
// Note: like all benches in this file it runs the small preset, where
// per-iteration PCIe latency dominates tiny kernels and speedups can drop
// below 1 (the paper's own small-dataset observation). The paper's actual
// Table 1 uses the large dataset — regenerate it with
// `genbase-bench -table 1`.
func BenchmarkTable1PhiSpeedup(b *testing.B) {
	p := engine.DefaultParams()
	queries := map[string]engine.QueryID{
		"covariance":   engine.Q2Covariance,
		"svd":          engine.Q4SVD,
		"statistics":   engine.Q5Statistics,
		"biclustering": engine.Q3Biclustering,
	}
	for name, q := range queries {
		for _, nodes := range []int{1, 2} {
			name, q, nodes := name, q, nodes
			b.Run(fmt.Sprintf("%s/nodes=%d", name, nodes), func(b *testing.B) {
				b.ReportAllocs()
				host := multinode.New(multinode.SciDB, nodes)
				phi := multinode.New(multinode.SciDBPhi, nodes)
				if err := host.Load(benchDataset(b)); err != nil {
					b.Fatal(err)
				}
				if err := phi.Load(benchDataset(b)); err != nil {
					b.Fatal(err)
				}
				ctx := context.Background()
				var ratio float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					hres, err := host.Run(ctx, q, p)
					if err != nil {
						b.Fatal(err)
					}
					pres, err := phi.Run(ctx, q, p)
					if err != nil {
						b.Fatal(err)
					}
					h := hres.Timing.Analytics.Seconds()
					d := pres.Timing.Analytics.Seconds() + pres.Timing.Transfer.Seconds()
					if d > 0 {
						ratio += h / d
					}
				}
				b.ReportMetric(ratio/float64(b.N), "speedup")
			})
		}
	}
}

// --- parallel kernel benches (DESIGN.md §9) ---
//
// These compare the serial path (one worker) against the multicore path on
// the Large preset's hot shapes, and the naive oracle against both. They are
// -cpu aware: `go test -bench Kernel -cpu 1,2,4,8` reruns each with
// GOMAXPROCS set accordingly, and the parallel variants size their worker
// pool from GOMAXPROCS — so one sweep yields the single-core vs multicore
// speedup curve. BENCH_kernels.json records a baseline.

// kernelBenchDims is the Large preset's expression-matrix shape (patients ×
// genes at the repo's 1/20 scale).
const (
	kernelRows = 2000
	kernelCols = 1500
)

func BenchmarkKernelGEMM(b *testing.B) {
	a := randomMatrix(kernelRows, kernelCols, 21)
	w := randomMatrix(kernelCols, 256, 22)
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linalg.MulNaive(a, w)
		}
	})
	b.Run("packed-serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linalg.MulP(a, w, 1)
		}
	})
	b.Run("packed-parallel", func(b *testing.B) {
		b.ReportAllocs()
		workers := runtime.GOMAXPROCS(0)
		for i := 0; i < b.N; i++ {
			linalg.MulP(a, w, workers)
		}
	})
}

// BenchmarkKernelGEMM512 is the perf-floor shape (DESIGN.md §17): packed
// serial GEMM vs the naive oracle at 512³, the pair the CI kernel floor
// (TestKernelPerfFloor512) asserts on.
func BenchmarkKernelGEMM512(b *testing.B) {
	a := randomMatrix(512, 512, 26)
	w := randomMatrix(512, 512, 27)
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linalg.MulNaive(a, w)
		}
	})
	b.Run("packed-serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linalg.MulP(a, w, 1)
		}
	})
}

func BenchmarkKernelGram(b *testing.B) {
	a := randomMatrix(kernelRows, kernelCols/2, 23)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linalg.MulATAP(a, 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		workers := runtime.GOMAXPROCS(0)
		for i := 0; i < b.N; i++ {
			linalg.MulATAP(a, workers)
		}
	})
}

func BenchmarkKernelCovariance(b *testing.B) {
	a := randomMatrix(kernelRows, kernelCols/2, 24)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linalg.CovarianceP(a, 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		workers := runtime.GOMAXPROCS(0)
		for i := 0; i < b.N; i++ {
			linalg.CovarianceP(a, workers)
		}
	})
}

func BenchmarkKernelSVD(b *testing.B) {
	a := randomMatrix(kernelRows, 400, 25)
	for _, serial := range []bool{true, false} {
		name, workers := "parallel", runtime.GOMAXPROCS(0)
		if serial {
			name, workers = "serial", 1
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := linalg.TopKSVD(a, 10, linalg.LanczosOptions{Reorthogonalize: true, Seed: 1, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- shared analytics kernels at the medium preset (DESIGN.md §19) ---
//
// The query kernels every configuration shares past its data-management
// half, at the medium preset's shapes (1000 patients × 750 genes × 200 GO
// terms): Q1's QR least-squares design (1000 × 190), Q2's top-|cov|
// threshold over 750 genes, Q5's per-term rank-sum over 750 gene means, and
// Q3's Cheng–Church search on a 200 × 750 matrix with a planted block.

func BenchmarkKernelQR(b *testing.B) {
	a := randomMatrix(1000, 190, 31)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := linalg.NewQR(a)
		if err != nil {
			b.Fatal(err)
		}
		f.Release()
	}
}

type benchGeneMeta struct{}

func (benchGeneMeta) FunctionOf(g int) int64 { return int64(g % 7) }

func BenchmarkKernelSummarizeCovariance(b *testing.B) {
	cov := linalg.CovarianceP(randomMatrix(1000, 750, 32), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.SummarizeCovariance(cov, 0.01, benchGeneMeta{}, 1000)
	}
}

func BenchmarkKernelEnrichment(b *testing.B) {
	const genes, terms = 750, 200
	rng := datagen.NewRNG(33)
	means := make([]float64, genes)
	for i := range means {
		means[i] = rng.NormFloat64()
	}
	members := make([][]int32, terms)
	for t := range members {
		for g := 0; g < genes; g++ {
			if rng.Intn(20) == 0 {
				members[t] = append(members[t], int32(g))
			}
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.EnrichmentTest(ctx, means, members, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelBicluster(b *testing.B) {
	m := randomMatrix(200, 750, 34)
	rng := datagen.NewRNG(35)
	rowEff, colEff := make([]float64, 200), make([]float64, 750)
	for i := range rowEff {
		rowEff[i] = rng.Float64()
	}
	for j := range colEff {
		colEff[j] = rng.Float64()
	}
	for i := 20; i < 80; i++ {
		for j := 100; j < 400; j++ {
			m.Set(i, j, 2+rowEff[i]+colEff[j])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bicluster.Run(m, bicluster.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches (DESIGN.md §8) ---

func randomMatrix(r, c int, seed uint64) *linalg.Matrix {
	rng := datagen.NewRNG(seed)
	m := linalg.NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

// BenchmarkAblationMatmulBlocking: cache-blocked vs naive GEMM. The naive
// loop uses the cache-friendly ikj order, so blocking only pays once the
// working set exceeds L2 — the sweep shows where the crossover falls.
func BenchmarkAblationMatmulBlocking(b *testing.B) {
	for _, n := range []int{128, 256, 768} {
		a := randomMatrix(n, n, 1)
		c := randomMatrix(n, n, 2)
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				linalg.MulNaive(a, c)
			}
		})
		b.Run(fmt.Sprintf("blocked/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				linalg.Mul(a, c)
			}
		})
	}
}

// BenchmarkAblationLanczosReorth: full reorthogonalization vs none.
func BenchmarkAblationLanczosReorth(b *testing.B) {
	a := randomMatrix(400, 150, 3)
	for _, reorth := range []bool{true, false} {
		reorth := reorth
		name := "reorthogonalized"
		if !reorth {
			name = "plain"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := linalg.TopKSVD(a, 10, linalg.LanczosOptions{Reorthogonalize: reorth, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationColumnCompression: predicate scans on RLE vs raw layout.
func BenchmarkAblationColumnCompression(b *testing.B) {
	n := 1 << 20
	sorted := make([]int64, n)
	for i := range sorted {
		sorted[i] = int64(i / 4096) // long runs → RLE
	}
	random := make([]int64, n)
	rng := datagen.NewRNG(9)
	for i := range random {
		random[i] = int64(rng.Uint64() % 1_000_003)
	}
	rle := colstore.BuildIntColumn(sorted)
	raw := colstore.BuildIntColumn(random)
	pred := func(v int64) bool { return v%5 == 0 }
	b.Run("rle", func(b *testing.B) {
		b.ReportAllocs()
		var sel []int32
		for i := 0; i < b.N; i++ {
			sel = rle.Select(pred, sel[:0])
		}
	})
	b.Run("raw", func(b *testing.B) {
		b.ReportAllocs()
		var sel []int32
		for i := 0; i < b.N; i++ {
			sel = raw.Select(pred, sel[:0])
		}
	})
}

// BenchmarkAblationExportFormat: text COPY vs binary UDF hand-off for the
// same matrix (the "+ R" glue cost).
func BenchmarkAblationExportFormat(b *testing.B) {
	m := randomMatrix(250, 250, 5)
	ctx := context.Background()
	b.Run("text-copy", func(b *testing.B) {
		b.ReportAllocs()
		g := analytics.TextGlue{}
		for i := 0; i < b.N; i++ {
			if _, err := g.TransferMatrix(ctx, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("udf-binary", func(b *testing.B) {
		b.ReportAllocs()
		g := analytics.BinaryGlue{}
		for i := 0; i < b.N; i++ {
			if _, err := g.TransferMatrix(ctx, m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationChunkSize: SciDB covariance kernel across chunk sizes.
func BenchmarkAblationChunkSize(b *testing.B) {
	m := randomMatrix(500, 400, 7)
	for _, chunk := range []int{32, 128, 256, 512} {
		chunk := chunk
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			b.ReportAllocs()
			a := arraydb.FromMatrix(m, chunk, chunk)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Covariance()
			}
		})
	}
}

// BenchmarkAblationNetworkBandwidth: virtual makespan of a distributed Gram
// as the interconnect degrades — where does adding nodes stop helping?
func BenchmarkAblationNetworkBandwidth(b *testing.B) {
	m := randomMatrix(1000, 200, 8)
	for _, mbps := range []float64{12.5e6, 125e6, 1.25e9} {
		for _, nodes := range []int{1, 4} {
			mbps, nodes := mbps, nodes
			b.Run(fmt.Sprintf("bw=%.0fMBps/nodes=%d", mbps/1e6, nodes), func(b *testing.B) {
				b.ReportAllocs()
				cfg := cluster.DefaultConfig(nodes)
				cfg.BandwidthBytesPerSec = mbps
				var virtual float64
				for i := 0; i < b.N; i++ {
					c := cluster.New(cfg)
					d := distlinalg.Distribute(c, m)
					c.Reset()
					if _, err := d.Gram(); err != nil {
						b.Fatal(err)
					}
					virtual += c.MakespanSeconds()
				}
				b.ReportMetric(virtual/float64(b.N), "virtual-sec/op")
			})
		}
	}
}

// BenchmarkXeonPhiOffload: the device model's per-kernel rates.
func BenchmarkXeonPhiOffload(b *testing.B) {
	dev := xeonphi.NewDevice5110P()
	m := randomMatrix(300, 300, 9)
	a := arraydb.FromMatrix(m, 128, 128)
	ctx := context.Background()
	for _, kind := range []string{xeonphi.KindGEMM, xeonphi.KindBicluster} {
		kind := kind
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			var modeled float64
			for i := 0; i < b.N; i++ {
				compute, transfer, err := dev.Offload(ctx, kind, 720000, 720000, func() error {
					a.Covariance()
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				modeled += compute + transfer
			}
			b.ReportMetric(modeled/float64(b.N), "modeled-sec/op")
		})
	}
}

// --- zero-copy pipeline benches (DESIGN.md §10) ---
//
// End-to-end storage→kernel pipelines, warm. Allocation counts are the
// headline metric: the zero-copy path pivots through views and pooled
// scratch, so a warm query loop should allocate almost nothing on the
// data-management side. BENCH_pipeline.json records a baseline; the
// sub-benchmark keeps its historical /zerocopy name, which the ledger and
// the cost-model fit key on.
func benchPipelineQuery(b *testing.B, system string, q engine.QueryID) {
	b.Run("zerocopy", func(b *testing.B) {
		b.ReportAllocs()
		eng := loadedEngine(b, system)
		if !eng.Supports(q) {
			b.Skip("query unsupported by this configuration")
		}
		ctx := context.Background()
		p := engine.DefaultParams()
		// Warm the buffer pools and the scratch arena.
		if _, err := eng.Run(ctx, q, p); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(ctx, q, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkPipelineColstoreCovariance(b *testing.B) {
	benchPipelineQuery(b, "colstore-udf", engine.Q2Covariance)
}

func BenchmarkPipelineColstoreRegression(b *testing.B) {
	benchPipelineQuery(b, "colstore-udf", engine.Q1Regression)
}

func BenchmarkPipelineRowstoreCovariance(b *testing.B) {
	benchPipelineQuery(b, "postgres-madlib", engine.Q2Covariance)
}

func BenchmarkPipelineArrayDBCovariance(b *testing.B) {
	benchPipelineQuery(b, "scidb", engine.Q2Covariance)
}
