package main

import (
	"math"
	"os"
	"runtime/debug"
	"sort"
	"syscall"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending slice: the smallest value with at least q of the samples at
// or below it. Exact samples, not a histogram: the gated medians must
// not inherit a bucket's rounding.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// snap is the driver's view at one window edge.
type snap struct {
	wallNs  int64
	cpuNs   int64
	commits int64
}

// windowRates turns consecutive edge snapshots into one commits/s and
// one CPU-µs-per-commit figure per window. Windows without commits are
// skipped: a rate of zero is a stall the failed count reports, not a
// sample.
func windowRates(snaps []snap) (perSec, cpuUs []float64) {
	for i := 1; i < len(snaps); i++ {
		a, b := snaps[i-1], snaps[i]
		n := b.commits - a.commits
		if n <= 0 || b.wallNs <= a.wallNs {
			continue
		}
		perSec = append(perSec, float64(n)/(float64(b.wallNs-a.wallNs)/1e9))
		cpuUs = append(cpuUs, float64(b.cpuNs-a.cpuNs)/1e3/float64(n))
	}
	return perSec, cpuUs
}

// cpuNs returns the process's user+system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// maxRSSMB returns the process's high-water resident set in MB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// RSS high-water mark, so that each workload of a multi-workload
// invocation reports its own peak rather than its predecessors'. Where
// /proc/self/clear_refs is not writable the mark keeps rising; a
// single-workload invocation — the driver's form — is exact regardless.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
