package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// percentile returns the ceil-rank p-quantile of sorted samples: the
// smallest sample with at least p of the samples at or below it. ok is
// false when fewer than ten samples lie beyond the returned rank — the
// guide's rule for the highest percentile a sample count supports (p99
// needs ~1,100 samples; the frozen seq counts all exceed that).
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= 10
}

// sortedCopy returns vals sorted ascending.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// summary is a slice metric: the median over slices with the spread and
// sample count alongside.
type summary struct {
	Median, Min, Max float64
	N                int
}

func summarize(vals []float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	s := sortedCopy(vals)
	m, _ := percentile(s, 0.5)
	return summary{Median: m, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// median is the p50 without the tail rule (a median always has support).
func median(vals []float64) float64 { return summarize(vals).Median }

// cpuMicros is the process's user+system CPU time so far.
func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// mallocs is the cumulative heap-object allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeapMiB is HeapAlloc right after a forced collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// procStat is one reading of /proc/stat's aggregate cpu line.
type procStat struct{ steal, total float64 }

// readProcStat returns zeros where /proc/stat is unreadable (non-Linux);
// stealFrac then reports 0.
func readProcStat() procStat {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return procStat{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return procStat{}
	}
	var ps procStat
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return procStat{}
		}
		if i < 8 { // user..steal; guest time is already inside user
			ps.total += v
		}
		if i == 7 {
			ps.steal = v
		}
	}
	return ps
}

// stealFrac is the share of all CPU time the hypervisor withheld between
// two readings.
func stealFrac(a, b procStat) float64 {
	if d := b.total - a.total; d > 0 {
		return (b.steal - a.steal) / d
	}
	return 0
}
