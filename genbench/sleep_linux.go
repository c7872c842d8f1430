package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. The runtime's timers wake up to a millisecond
// late on Linux, which would dominate sub-millisecond request latencies
// timed from their scheduled send, so the load generator sleeps in
// nanosleep(2) on its own thread instead.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err == nil {
			return
		}
	}
}
