package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/quantile"
)

// minBeyondTail is how many samples must lie beyond the reported tail
// percentile for it to mean anything.
const minBeyondTail = 10

// tailLadder lists the percentiles a tail may be reported at, highest first.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 85, 80, 75, 70, 60, 50}

// tailPercentile returns the highest percentile on tailLadder whose
// nearest-rank sample, among n samples, has at least minBeyondTail samples
// beyond it, or 0 when n is too small for any of them. Workloads fix their
// tail percentile with it from the sample count their run length gives.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyondRank(n, p) >= minBeyondTail {
			return p
		}
	}
	return 0
}

// beyondRank counts the samples strictly beyond the nearest-rank p-th
// percentile of n samples.
func beyondRank(n int, p float64) int {
	if n <= 0 {
		return 0
	}
	return n - 1 - quantile.Rank(n, p)
}

// latencies is a sample of per-op durations.
type latencies []time.Duration

func (l latencies) sorted() []time.Duration {
	s := append([]time.Duration(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// ms returns the nearest-rank p-th percentile in milliseconds.
func (l latencies) ms(p float64) float64 {
	return float64(quantile.SortedDuration(l.sorted(), p)) / float64(time.Millisecond)
}

// median returns the median of xs (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// procSample is a snapshot of process-wide counters: CPU time from
// getrusage and allocation/GC figures from runtime/metrics.
type procSample struct {
	cpu        time.Duration
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var procMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := procSample{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	ms := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s.allocBytes = ms[0].Value.Uint64()
	s.gcCPU = ms[1].Value.Float64()
	s.totalCPU = ms[2].Value.Float64()
	return s
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}
