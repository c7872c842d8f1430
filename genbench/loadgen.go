package main

import (
	"context"
	"errors"
	"math"
	"time"

	"github.com/genbase/genbase/internal/datagen"
	"github.com/genbase/genbase/internal/engine"
)

// request is one query the load generator sends.
type request struct {
	q engine.QueryID
	p engine.Params
}

// outcome is one request as the load generator observed it. Latency runs
// from the scheduled send time, so a stall is charged to every request it
// delays; late is how far the pacing sleep overshot the scheduled time
// (zero for a request that waited behind an earlier one).
type outcome struct {
	req  request
	id   uint64
	due  time.Time
	lat  time.Duration
	late time.Duration
	res  *engine.Result
	err  error
}

// cpuSlices is how many consecutive, equal-count slices an open-loop
// window's CPU time is read over. CPU per request is a median over slices,
// so a slow stretch of a few seconds lands in a few of them and leaves the
// figure alone.
const cpuSlices = 8

// loop is one finished open-loop window.
type loop struct {
	outs []outcome
	// cpu holds the process CPU time when the first request of each CPU
	// slice was sent, and after the last request completed.
	cpu      []time.Duration
	lastDone time.Time
}

// openLoop sends n requests with Poisson arrivals at rate per second to
// one server that runs them in arrival order: the calling goroutine sleeps
// until a request is due and runs it with do, and a request that falls due
// while an earlier one still runs waits for it, as in a FIFO queue. The
// arrival schedule and the request sequence come from rng and next before
// the first send. Latency runs from the scheduled time, so queueing counts;
// late is only how far the pacing sleep overshot. One goroutine both paces
// and serves, so between requests the process has nothing to hand over
// from thread to thread: with a pacing goroutine feeding a worker over a
// channel, CPU spent outside the requests themselves was about as large
// as the requests' own, and it varied with the host. It returns the
// outcomes in send order.
func openLoop(ctx context.Context, rng *datagen.RNG, rate float64, n int, firstID uint64,
	next func() request, do func(ctx context.Context, id uint64, req request) (*engine.Result, error)) *loop {
	outs := make([]outcome, n)
	gaps := make([]time.Duration, n)
	for i := range outs {
		outs[i].req = next()
		outs[i].id = firstID + uint64(i)
		// Exponential inter-arrival gaps; 1-U keeps the log argument in (0,1].
		gaps[i] = time.Duration(-math.Log(1-rng.Float64()) / rate * float64(time.Second))
	}
	var cpu []time.Duration
	due := time.Now()
	for i := range outs {
		due = due.Add(gaps[i])
		for len(cpu) < cpuSlices && len(cpu)*n/cpuSlices == i {
			cpu = append(cpu, cpuNow())
		}
		o := &outs[i]
		o.due = due
		if time.Now().Before(due) {
			sleepUntil(due)
			o.late = max(time.Since(due), 0)
		}
		o.res, o.err = do(ctx, o.id, o.req)
		o.lat = time.Since(due)
	}
	cpu = append(cpu, cpuNow())
	return &loop{outs: outs, cpu: cpu, lastDone: time.Now()}
}

// cpuPerRequest returns the process CPU per request of each CPU slice, in
// milliseconds.
func (l *loop) cpuPerRequest() []float64 {
	n := len(l.outs)
	out := make([]float64, cpuSlices)
	for j := range out {
		out[j] = ms(l.cpu[j+1]-l.cpu[j]) / float64((j+1)*n/cpuSlices-j*n/cpuSlices)
	}
	return out
}

// latencies returns the latencies of the successful requests in outs.
func latencies(outs []outcome) samples {
	var s samples
	for i := range outs {
		if outs[i].err == nil {
			s = append(s, outs[i].lat)
		}
	}
	return s
}

// failureKind classifies a failed request: the typed engine errors by name,
// anything else as untyped.
func failureKind(err error) string {
	for _, k := range []struct {
		err  error
		name string
	}{
		{engine.ErrOverload, "shed"},
		{engine.ErrDeadlineExceeded, "deadlined"},
		{engine.ErrBadParams, "bad_params"},
		{engine.ErrUnsupported, "unsupported"},
		{engine.ErrOutOfMemory, "out_of_memory"},
		{engine.ErrNodeFailed, "node_failed"},
		{engine.ErrTransient, "transient"},
		{engine.ErrReplicasExhausted, "replicas_exhausted"},
	} {
		if errors.Is(err, k.err) {
			return k.name
		}
	}
	return "untyped"
}
