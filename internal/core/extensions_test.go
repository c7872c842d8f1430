package core

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/genbase/genbase/internal/datagen"
)

func extSuite() *Suite {
	return &Suite{Scale: 0.06, Seed: 7, Timeout: 30 * time.Second} // tiny dims
}

func TestWeakScalingTables(t *testing.T) {
	s := extSuite()
	tables, err := s.RunWeakScaling(context.Background(), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("expected 2 tables, got %d", len(tables))
	}
	for _, tbl := range tables {
		for _, sys := range WeakScalingSystems() {
			for _, col := range tbl.ColLabels {
				c := tbl.Get(sys, col)
				if c.Missing || c.Infinite {
					t.Fatalf("%s: %s/%s missing", tbl.Title, sys, col)
				}
				if c.Seconds <= 0 {
					t.Fatalf("%s: %s/%s has no time", tbl.Title, sys, col)
				}
			}
		}
	}
}

func TestLargeClusterTables(t *testing.T) {
	s := extSuite()
	// Node closures are timed by wall clock, so host load (other test
	// binaries) inflates them. Min of three sweeps per cell: each sweep
	// visits every node count, so the reps interleave across counts.
	// GOMAXPROCS 1 runs the closures serially (cluster.RunNodes'
	// small-host policy), so a run's own nodes never time-share a core.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	best := map[string]float64{}
	for rep := 0; rep < 3; rep++ {
		tables, err := s.RunLargeCluster(context.Background(), []int{1, 8, 48})
		if err != nil {
			t.Fatal(err)
		}
		reg := tables[0]
		for _, sys := range WeakScalingSystems() {
			for _, col := range reg.ColLabels {
				c := reg.Get(sys, col)
				if c.Missing {
					t.Fatalf("%s/%s missing", sys, col)
				}
				if v, ok := best[sys+"/"+col]; !ok || c.Seconds < v {
					best[sys+"/"+col] = c.Seconds
				}
			}
		}
	}
	// §6.1's prediction: at 48 nodes on a small fixed dataset, communication
	// dominates — 48 nodes must NOT be dramatically faster than 8.
	for _, sys := range WeakScalingSystems() {
		t8 := best[sys+"/8 node(s)"]
		t48 := best[sys+"/48 node(s)"]
		if t48 < t8/6 {
			t.Fatalf("%s: 48-node speedup vs 8 nodes is implausibly ideal (%v vs %v)", sys, t8, t48)
		}
	}
}

func TestApproxSVDExtension(t *testing.T) {
	s := extSuite()
	tbl, agreement, err := s.RunApproxSVD(context.Background(), []datagen.Size{datagen.Small, datagen.Medium})
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range tbl.ColLabels {
		exact := tbl.Get("lanczos-exact", col)
		approx := tbl.Get("randomized-approx", col)
		if exact.Missing || approx.Missing {
			t.Fatalf("missing cells in %s", col)
		}
	}
	for _, a := range agreement {
		if math.IsNaN(a) {
			t.Fatal("agreement not computed")
		}
		if a > 0.05 {
			t.Fatalf("approximate SVD disagrees by %v", a)
		}
	}
}
