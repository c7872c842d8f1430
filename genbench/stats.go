package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"time"
)

// samples is a set of exact latencies (no histogram buckets, so quantiles
// are not quantized).
type samples []time.Duration

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the p-quantile by linear interpolation between order
// statistics (the same rule as Python's statistics.quantiles with the
// "inclusive" method). It sorts s in place.
func (s samples) quantile(p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[hi]-s[lo]))
}

func (s samples) mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}

// geomean is the geometric mean in milliseconds; zero durations are
// clamped to a nanosecond so one cache hit cannot zero the product.
func (s samples) geomeanMs() float64 {
	if len(s) == 0 {
		return 0
	}
	var logSum float64
	for _, d := range s {
		logSum += math.Log(ms(max(d, time.Nanosecond)))
	}
	return math.Exp(logSum / float64(len(s)))
}

// medianFloat returns the median of xs (sorting a copy).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := slices.Clone(xs)
	slices.Sort(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// meanFloat returns the arithmetic mean of xs.
func meanFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// reportLatency records the workload's wall-clock request latencies as
// per-layer metrics and prints them: median, the workload's declared tail
// percentile (the highest with at least ten samples beyond it at the
// workload's sample count), mean and geometric mean, each the median over
// sets (fleet-mixed's episodes, ingest-serve's cycles, paper-medium's one
// pass).
func reportLatency(r *runCtx, sets []samples, wantTail float64) {
	var p50, tail, mean, geo []float64
	for _, s := range sets {
		if float64(len(s))*(1-wantTail) < 10 {
			// Only the self-test's tiny runs get here; the workloads size
			// their windows so the declared tail is resolved.
			fmt.Fprintf(os.Stderr, "genbench: %s: %d samples leave fewer than 10 beyond p%g\n", r.workload, len(s), wantTail*100)
		}
		p50 = append(p50, ms(s.quantile(0.5)))
		tail = append(tail, ms(s.quantile(wantTail)))
		mean = append(mean, ms(s.mean()))
		geo = append(geo, s.geomeanMs())
	}
	r.setLayer("lat.p50_ms", medianFloat(p50), "ms")
	r.setLayer("lat.tail_ms", medianFloat(tail), "ms")
	r.setLayer("lat.mean_ms", medianFloat(mean), "ms")
	r.setLayer("lat.geomean_ms", medianFloat(geo), "ms")
	fmt.Printf("genbench: %s latency p50 %.4fms p%g %.4fms mean %.4fms geomean %.4fms\n", r.workload,
		medianFloat(p50), wantTail*100, medianFloat(tail), medianFloat(mean), medianFloat(geo))
}

// measureSteal returns a function that reports the share of host CPU time
// the hypervisor stole since measureSteal was called.
func measureSteal(r *runCtx) func() {
	s0, t0 := stealTicks()
	return func() {
		s1, t1 := stealTicks()
		pct := 100 * float64(s1-s0) / float64(max(t1-t0, 1))
		r.setLayer("host.steal_pct", pct, "%")
		fmt.Printf("genbench: host steal %.1f%% of CPU time during the measured window\n", pct)
	}
}
