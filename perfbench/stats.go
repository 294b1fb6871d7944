package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sortedMs returns the durations in milliseconds, ascending.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// median returns the median of xs (the mean of the middle pair for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailCap is the highest percentile op_tail_ms reads. Beyond it a run of
// a few thousand ops would read a point that one slow second of a shared
// box decides.
const tailCap = 90

// tail returns the latency at the highest percentile, up to tailCap, with
// at least ten samples beyond it, with that percentile and the count
// beyond. In runs of 100 ops or more that is the tailCap-th percentile
// (nearest rank); in shorter runs it is the eleventh-largest sample, at
// percentile 100·(n−10)/n, which moves smoothly with the op count. Runs
// of fewer than 21 ops have no such percentile at or above the median;
// they report the median and say so through the returned percentile.
func tail(sorted []float64) (value, pct float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, 0
	}
	if n < 21 {
		return median(sorted), 50, n / 2
	}
	if n < 100 {
		return sorted[n-11], 100 * float64(n-10) / float64(n), 10
	}
	k := (n*tailCap + 99) / 100 // nearest rank: the ceil(n·p/100)-th sample
	return sorted[k-1], tailCap, n - k
}

// peakRSSMB reads the process's peak resident set (VmHWM) in megabytes
// (10^6 bytes); 0 where /proc is unavailable.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0
		}
		return kb * 1024 / 1e6
	}
	return 0
}

// memDelta is the allocation and GC activity between two MemStats reads.
type memDelta struct {
	allocBytes, mallocs, gcs uint64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func deltaOf(before, after runtime.MemStats) memDelta {
	return memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		gcs:        uint64(after.NumGC - before.NumGC),
	}
}
