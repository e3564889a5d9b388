package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's high-water resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(string(f[0]), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS restarts the kernel's high-water mark at the current
// resident set, so that each round reads its own peak. Where the kernel
// refuses, VmHWM simply keeps rising and later rounds repeat the first
// rounds' peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// samples are raw batch round-trip times in nanoseconds, in the order
// they were taken.
type samples []int64

func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// quantile is the exact q-quantile of sorted samples (nearest rank).
func (s samples) quantile(q float64) int64 {
	if len(s) == 0 {
		return 0
	}
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func (s samples) max() int64 {
	var m int64
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

// quantileOf is the exact q-quantile over every caller's samples.
func quantileOf(parts []samples, q float64) int64 {
	var all samples
	for _, p := range parts {
		all = append(all, p...)
	}
	return all.sorted().quantile(q)
}

func maxOf(parts []samples) int64 {
	var m int64
	for _, p := range parts {
		m = max(m, p.max())
	}
	return m
}

func count(parts []samples) int {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return n
}

// median of a small float slice.
func median(v []float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// quartiles returns Q1, Q2, Q3 as Python's statistics.quantiles(v, n=4)
// (the default "exclusive" method) computes them.
func quartiles(v []float64) (q1, q2, q3 float64) {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return c[j-1] + d*(c[j]-c[j-1])
	}
	return at(1), at(2), at(3)
}
