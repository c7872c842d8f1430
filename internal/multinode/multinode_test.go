package multinode

import (
	"context"
	"math"
	"runtime"
	"testing"

	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/rengine"
)

func testDataset() *datagen.Dataset {
	return datagen.MustGenerate(datagen.Config{Size: datagen.Small, Scale: 0.3, Seed: 7})
}

func referenceAnswers(t *testing.T) map[engine.QueryID]*engine.Result {
	t.Helper()
	r := rengine.New()
	if err := r.Load(testDataset()); err != nil {
		t.Fatal(err)
	}
	p := engine.DefaultParams()
	p.SVDK = 5
	out := map[engine.QueryID]*engine.Result{}
	for _, q := range engine.AllQueries() {
		res, err := r.Run(context.Background(), q, p)
		if err != nil {
			t.Fatalf("reference %v: %v", q, err)
		}
		out[q] = res
	}
	return out
}

func TestAllKindsMatchReference(t *testing.T) {
	refs := referenceAnswers(t)
	p := engine.DefaultParams()
	p.SVDK = 5
	ctx := context.Background()
	for _, kind := range []Kind{PBDR, ColstorePBDR, ColstoreUDF, SciDB, SciDBPhi} {
		for _, nodes := range []int{1, 2, 4} {
			e := New(kind, nodes)
			if err := e.Load(testDataset()); err != nil {
				t.Fatalf("%v/%d load: %v", kind, nodes, err)
			}
			for _, q := range engine.AllQueries() {
				got, err := e.Run(ctx, q, p)
				if err != nil {
					t.Fatalf("%v/%d %v: %v", kind, nodes, q, err)
				}
				assertAnswersClose(t, kind.String(), nodes, q, got.Answer, refs[q].Answer)
				if got.Timing.Total() <= 0 {
					t.Fatalf("%v/%d %v: no virtual time recorded", kind, nodes, q)
				}
			}
		}
	}
}

func assertAnswersClose(t *testing.T, name string, nodes int, q engine.QueryID, got, want any) {
	t.Helper()
	switch q {
	case engine.Q1Regression:
		g, w := got.(*engine.RegressionAnswer), want.(*engine.RegressionAnswer)
		if len(g.SelectedGenes) != len(w.SelectedGenes) {
			t.Fatalf("%s/%d %v: gene count", name, nodes, q)
		}
		if math.Abs(g.RSquared-w.RSquared) > 1e-6 {
			t.Fatalf("%s/%d %v: R² %v vs %v", name, nodes, q, g.RSquared, w.RSquared)
		}
	case engine.Q2Covariance:
		g, w := got.(*engine.CovarianceAnswer), want.(*engine.CovarianceAnswer)
		if math.Abs(float64(g.NumPairs-w.NumPairs)) > 2 {
			t.Fatalf("%s/%d %v: pairs %d vs %d", name, nodes, q, g.NumPairs, w.NumPairs)
		}
		if math.Abs(g.AbsCovSum-w.AbsCovSum) > 1e-6*(1+w.AbsCovSum) {
			t.Fatalf("%s/%d %v: covsum", name, nodes, q)
		}
	case engine.Q3Biclustering:
		g, w := got.(*engine.BiclusterAnswer), want.(*engine.BiclusterAnswer)
		if len(g.Blocks) != len(w.Blocks) {
			t.Fatalf("%s/%d %v: blocks %d vs %d", name, nodes, q, len(g.Blocks), len(w.Blocks))
		}
		for b := range w.Blocks {
			if len(g.Blocks[b].PatientIDs) != len(w.Blocks[b].PatientIDs) {
				t.Fatalf("%s/%d %v: block %d", name, nodes, q, b)
			}
		}
	case engine.Q4SVD:
		g, w := got.(*engine.SVDAnswer), want.(*engine.SVDAnswer)
		for i := range w.SingularValues {
			if math.Abs(g.SingularValues[i]-w.SingularValues[i]) > 1e-6*(1+w.SingularValues[0]) {
				t.Fatalf("%s/%d %v: σ[%d]", name, nodes, q, i)
			}
		}
	case engine.Q5Statistics:
		g, w := got.(*engine.StatsAnswer), want.(*engine.StatsAnswer)
		for i := range w.Terms {
			if math.Abs(g.Terms[i].Z-w.Terms[i].Z) > 1e-6 {
				t.Fatalf("%s/%d %v: term %d", name, nodes, q, i)
			}
		}
	}
}

func TestHadoopMultiNodeMatchesReference(t *testing.T) {
	refs := referenceAnswers(t)
	p := engine.DefaultParams()
	p.SVDK = 5
	ctx := context.Background()
	for _, nodes := range []int{1, 2, 4} {
		h := NewHadoop(nodes)
		if err := h.Load(testDataset()); err != nil {
			t.Fatal(err)
		}
		if h.Supports(engine.Q3Biclustering) {
			t.Fatal("multi-node Hadoop must not support biclustering")
		}
		for _, q := range []engine.QueryID{engine.Q1Regression, engine.Q2Covariance, engine.Q4SVD, engine.Q5Statistics} {
			got, err := h.Run(ctx, q, p)
			if err != nil {
				t.Fatalf("hadoop/%d %v: %v", nodes, q, err)
			}
			switch q {
			case engine.Q1Regression:
				g := got.Answer.(*engine.RegressionAnswer)
				w := refs[q].Answer.(*engine.RegressionAnswer)
				if math.Abs(g.RSquared-w.RSquared) > 1e-6 {
					t.Fatalf("hadoop/%d R² %v vs %v", nodes, g.RSquared, w.RSquared)
				}
			case engine.Q4SVD:
				g := got.Answer.(*engine.SVDAnswer)
				w := refs[q].Answer.(*engine.SVDAnswer)
				if math.Abs(g.SingularValues[0]-w.SingularValues[0]) > 1e-6*(1+w.SingularValues[0]) {
					t.Fatalf("hadoop/%d σ[0]", nodes)
				}
			}
			if got.Timing.Total() <= 0 {
				t.Fatalf("hadoop/%d %v: no virtual time", nodes, q)
			}
		}
	}
}

// Scaling shape (Figure 3a): distributed analytics shrink the virtual
// makespan as nodes grow for the compute-heavy regression, which touches
// every patient row (Q2's disease filter keeps too few rows at test scale
// for compute to dominate communication — itself a faithful miniature of the
// paper's "scalability of all systems is less than ideal").
func TestPBDRRegressionScales(t *testing.T) {
	ds := datagen.MustGenerate(datagen.Config{Size: datagen.Medium, Seed: 9}) // 1000×750
	p := engine.DefaultParams()
	engines := map[int]*Engine{}
	for _, nodes := range []int{1, 4} {
		e := New(PBDR, nodes)
		if err := e.Load(ds); err != nil {
			t.Fatal(err)
		}
		engines[nodes] = e
	}
	// Node closures are timed by wall clock, so host load (other test
	// binaries) inflates them. Min of three runs per node count,
	// interleaved across counts; GOMAXPROCS 1 runs the closures serially
	// (cluster.RunNodes' small-host policy), so a run's own nodes never
	// time-share a core with each other.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	times := map[int]float64{1: math.Inf(1), 4: math.Inf(1)}
	for rep := 0; rep < 3; rep++ {
		for _, nodes := range []int{1, 4} {
			runtime.GC()
			res, err := engines[nodes].Run(context.Background(), engine.Q1Regression, p)
			if err != nil {
				t.Fatal(err)
			}
			times[nodes] = math.Min(times[nodes], res.Timing.Total().Seconds())
		}
	}
	if times[4] >= times[1] {
		t.Fatalf("no speedup 1→4 nodes: %v", times)
	}
}

// The UDF configuration gathers to the coordinator, so its analytics phase
// must not speed up with more nodes (Figure 4b's flat colstore+UDFs curve).
func TestColstoreUDFAnalyticsDoNotScale(t *testing.T) {
	ds := datagen.MustGenerate(datagen.Config{Size: datagen.Medium, Scale: 0.3, Seed: 9})
	p := engine.DefaultParams()
	engines := map[int]*Engine{}
	for _, nodes := range []int{1, 4} {
		e := New(ColstoreUDF, nodes)
		if err := e.Load(ds); err != nil {
			t.Fatal(err)
		}
		engines[nodes] = e
	}
	// Min of three interleaved, serialized runs per node count, as in
	// TestPBDRRegressionScales.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	analytics := map[int]float64{1: math.Inf(1), 4: math.Inf(1)}
	for rep := 0; rep < 3; rep++ {
		for _, nodes := range []int{1, 4} {
			runtime.GC()
			res, err := engines[nodes].Run(context.Background(), engine.Q2Covariance, p)
			if err != nil {
				t.Fatal(err)
			}
			analytics[nodes] = math.Min(analytics[nodes], res.Timing.Analytics.Seconds())
		}
	}
	a1, a4 := analytics[1], analytics[4]
	// Gathering adds communication, so 4-node analytics should be no faster
	// than ~80% of single node (in practice it is slower).
	if a4 < a1*0.8 {
		t.Fatalf("UDF analytics unexpectedly scaled: 1 node %v, 4 nodes %v", a1, a4)
	}
}

// SciDB + Phi must beat plain SciDB on analytics for the GEMM-heavy query
// (Table 1's covariance row).
func TestPhiAcceleratesCovariance(t *testing.T) {
	ds := datagen.MustGenerate(datagen.Config{Size: datagen.Medium, Seed: 9}) // 1000×750
	p := engine.DefaultParams()
	// Min of three runs per configuration: wall-clock measurement on a
	// shared single-core box is noisy, and min is the standard robust
	// estimator for benchmark comparisons.
	run := func(kind Kind) float64 {
		e := New(kind, 1)
		if err := e.Load(ds); err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		for i := 0; i < 3; i++ {
			res, err := e.Run(context.Background(), engine.Q2Covariance, p)
			if err != nil {
				t.Fatal(err)
			}
			if s := res.Timing.Analytics.Seconds(); s < best {
				best = s
			}
		}
		return best
	}
	host := run(SciDB)
	phi := run(SciDBPhi)
	speedup := host / phi
	if speedup < 1.2 || speedup > 4 {
		t.Fatalf("covariance analytics speedup %v outside the paper's band", speedup)
	}
}

func TestRunBeforeLoad(t *testing.T) {
	e := New(PBDR, 2)
	if _, err := e.Run(context.Background(), engine.Q1Regression, engine.DefaultParams()); err == nil {
		t.Fatal("expected error before load")
	}
}

// Multi-node Hadoop must attribute virtual time to both phases: Hive jobs
// (data management) and Mahout jobs (analytics) — the split Figure 4 plots.
func TestHadoopPhaseAttribution(t *testing.T) {
	h := NewHadoop(2)
	if err := h.Load(testDataset()); err != nil {
		t.Fatal(err)
	}
	res, err := h.Run(context.Background(), engine.Q1Regression, engine.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.DataManagement <= 0 {
		t.Fatal("no Hive (DM) time attributed")
	}
	if res.Timing.Analytics <= 0 {
		t.Fatal("no Mahout (analytics) time attributed")
	}
}

// The SciDB redistribution cost must vanish at one node and appear at two —
// the mechanism behind the paper's 1→2-node regression.
func TestSciDBRedistributionCharged(t *testing.T) {
	ds := testDataset()
	oneNode := New(SciDB, 1)
	twoNode := New(SciDB, 2)
	if err := oneNode.Load(ds); err != nil {
		t.Fatal(err)
	}
	if err := twoNode.Load(ds); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := oneNode.Run(ctx, engine.Q2Covariance, engine.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if oneNode.Cluster().BytesSent != 0 {
		t.Fatal("single node must not use the network")
	}
	if _, err := twoNode.Run(ctx, engine.Q2Covariance, engine.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if twoNode.Cluster().BytesSent == 0 {
		t.Fatal("two nodes must pay redistribution traffic")
	}
}
