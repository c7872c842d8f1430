package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuNow returns the process's CPU time so far (user + system, every
// thread). On a shared virtual machine the hypervisor's steal time is not
// in it, so CPU time measures the program's own work where wall time also
// measures the neighbours'.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks reads the host-wide steal and total ticks from /proc/stat
// (zeros where it is unavailable).
func stealTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
