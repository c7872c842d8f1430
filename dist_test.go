package genbase

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/genbase/genbase/internal/core"
	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
	"github.com/genbase/genbase/internal/multinode"
)

// TestDistAnswersInvariantToNodeCount is the distributed determinism
// contract (the node-count analog of the PR 1 worker-count tests): for every
// virtual-cluster configuration and every scenario, the answer at 1, 2, 3
// and 8 nodes is bitwise identical. The mechanism is the fixed numeric shard
// partition (distlinalg.DefaultNumericShards): reductions combine per-shard
// partials in shard order, so node count moves shards between virtual clocks
// but cannot reorder a single floating-point operation.
func TestDistAnswersInvariantToNodeCount(t *testing.T) {
	if testing.Short() {
		t.Skip("node-count sweep is not short")
	}
	ds, err := datagen.Generate(datagen.Config{Size: datagen.Small, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := engine.DefaultParams()
	ctx := context.Background()
	for _, kind := range multinode.AllKinds() {
		ref := make(map[engine.QueryID]string)
		for _, nodes := range []int{1, 2, 3, 8} {
			eng := multinode.New(kind, nodes)
			if err := eng.Load(ds); err != nil {
				t.Fatalf("%s/%d load: %v", kind, nodes, err)
			}
			for _, q := range engine.AllScenarios() {
				res, err := eng.Run(ctx, q, p)
				if err != nil {
					t.Fatalf("%s/%d %s: %v", kind, nodes, q, err)
				}
				h := goldenAnswerHash(t, res.Answer)
				if nodes == 1 {
					ref[q] = h
					continue
				}
				if h != ref[q] {
					t.Errorf("%s %s: answer at %d nodes diverges bitwise from 1 node", kind, q, nodes)
				}
			}
		}
	}
}

// TestDistSupportsAgreesWithRun asserts the derived Supports answer against
// ground truth for every (configuration, query) pair, single-node and
// multi-node alike: Supports(q) must hold exactly when Run neither returns
// engine.ErrUnsupported nor lacks the physical operators to execute — the
// agreement the old hardcoded multinode switch maintained by hand.
func TestDistSupportsAgreesWithRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full config×query sweep is not short")
	}
	ds, err := datagen.Generate(datagen.Config{Size: datagen.Small, Scale: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p := engine.DefaultParams()
	p.SVDK = 5
	ctx := context.Background()

	var engines []engine.Engine
	for _, cfg := range core.SingleNodeConfigs() {
		engines = append(engines, cfg.New(1, t.TempDir()))
	}
	for _, cfg := range core.MultiNodeConfigs() {
		engines = append(engines, cfg.NewCluster(2))
	}
	for _, eng := range engines {
		defer eng.Close()
		if err := eng.Load(ds); err != nil {
			t.Fatalf("%s load: %v", eng.Name(), err)
		}
		// One probe query id past the registered scenarios: Supports must
		// deny it and Run must agree.
		queries := append(engine.AllScenarios(), engine.QueryID(99))
		for _, q := range queries {
			_, err := eng.Run(ctx, q, p)
			ranOK := !errors.Is(err, engine.ErrUnsupported)
			if err != nil && ranOK {
				t.Fatalf("%s %s: unexpected failure %v", eng.Name(), q, err)
			}
			if got := eng.Supports(q); got != ranOK {
				t.Errorf("%s %s: Supports=%v but Run unsupported=%v", eng.Name(), q, got, !ranOK)
			}
		}
	}
}

// TestDistCohortRegressionOnAllClusterConfigs is the tentpole's payoff
// check: the planner-only Q6 scenario — for which package multinode contains
// zero query code — runs on all five virtual-cluster configurations, and the
// cluster answers agree with each other (the distributed normal equations
// and the gathered QR solve differ only in rounding).
func TestDistCohortRegressionOnAllClusterConfigs(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{Size: datagen.Small, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := engine.DefaultParams()
	ctx := context.Background()
	var ref *engine.RegressionAnswer
	for _, kind := range multinode.AllKinds() {
		eng := multinode.New(kind, 4)
		if !eng.Supports(engine.Q6CohortRegression) {
			t.Fatalf("%s does not support the cohort scenario", kind)
		}
		if err := eng.Load(ds); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(ctx, engine.Q6CohortRegression, p)
		if err != nil {
			t.Fatalf("%s cohort regression: %v", kind, err)
		}
		ans := res.Answer.(*engine.RegressionAnswer)
		if ref == nil {
			ref = ans
			if ref.NumPatients < 2 || len(ref.SelectedGenes) == 0 {
				t.Fatalf("degenerate cohort: %d patients, %d genes", ref.NumPatients, len(ref.SelectedGenes))
			}
			continue
		}
		if ans.NumPatients != ref.NumPatients || len(ans.SelectedGenes) != len(ref.SelectedGenes) {
			t.Fatalf("%s: cohort shape diverges", kind)
		}
		for i, c := range ans.Coefficients {
			want := ref.Coefficients[i]
			if d := math.Abs(c - want); d > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("%s: coefficient %d = %g, want %g", kind, i, c, want)
			}
		}
	}
}
