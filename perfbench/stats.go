package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is sorted in place. 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	if frac == 0 {
		return xs[lo]
	}
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqm returns the interquartile mean: the mean of the middle half of the
// samples (xs is sorted in place). Unlike the median it does not jump
// between the modes of a multi-modal distribution (steps with and without
// a rebuild, steps of a reuse cycle) when their shares shift.
func iqm(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	return mean(xs[n/4 : n-n/4])
}

// tail returns the highest percentile with at least ten samples beyond it,
// and its value. The percentile comes from a nominal sample count the
// workload fixes, so runs whose counts differ slightly report the same
// percentile; when fewer samples were measured it steps down to keep ten
// beyond it.
func tail(xs []float64, nominal int) (pct, value float64) {
	n := len(xs)
	if nominal < n {
		n = nominal
	}
	q := 0.5
	if n > 20 {
		q = 1 - 10/float64(n)
	}
	return 100 * q, quantile(xs, q)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mean returns the arithmetic mean (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sumOf(xs) / float64(len(xs))
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// liveRSSMB returns freed heap to the OS and reads the resident set size
// (VmRSS) in MB: the memory the live engine holds.
func liveRSSMB() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
