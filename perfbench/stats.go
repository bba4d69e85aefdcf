package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile;
// with fewer, the percentile is one or two lucky samples, not a tail.
const minTail = 10

// median returns the middle of the samples (the mean of the middle two for
// an even count) and 0 for none.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := sortedCopy(samples)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the q-quantile (0 < q < 1) of the samples by the
// nearest-rank rule, and an error unless at least minTail samples lie
// beyond it.
func tail(samples []float64, q float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", 100*q, n, beyond, minTail)
	}
	return sortedCopy(samples)[rank-1], nil
}

// sumOfMedians adds up the median of each part's samples: the cost of one
// visit to every part, with each part's disturbed visits left out.
func sumOfMedians(parts [][]float64) float64 {
	t := 0.0
	for _, samples := range parts {
		t += median(samples)
	}
	return t
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// ratio is a share reported together with its numerator and base, so a
// zero base reads as "nothing happened" rather than as a perfect score.
type ratio struct {
	num, base float64
}

// value is num/base, or 0 when the base is 0.
func (r ratio) value() float64 {
	if r.base == 0 {
		return 0
	}
	return r.num / r.base
}

func (r ratio) String() string {
	return fmt.Sprintf("%g/%g", r.num, r.base)
}

// interval is a span of time in nanoseconds since the run's epoch.
type interval struct {
	start, end int64
}

// selfTime is the part of span not covered by any of its children; children
// may overlap each other and stick out of the span.
func selfTime(span interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, span.start)
		c.end = min(c.end, span.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := int64(0)
	cur := interval{start: math.MinInt64, end: math.MinInt64}
	for _, c := range cs {
		if c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		cur.end = max(cur.end, c.end)
	}
	if cur.end > cur.start {
		covered += cur.end - cur.start
	}
	return span.end - span.start - covered
}

// rateWindows splits a pass into windows of at least span busy time and
// keeps each window's rate: a second disturbed by another process moves one
// window, not the median of them.
type rateWindows struct {
	span      time.Duration
	n         int
	busy      time.Duration
	rates     []float64
	totalN    int
	totalBusy time.Duration
}

// add counts n units of work done in d.
func (w *rateWindows) add(n int, d time.Duration) {
	w.n += n
	w.busy += d
	w.totalN += n
	w.totalBusy += d
	if w.busy >= w.span {
		w.rates = append(w.rates, float64(w.n)/w.busy.Seconds())
		w.n, w.busy = 0, 0
	}
}

// rate is the median window rate, or the overall rate before the first
// window is full.
func (w *rateWindows) rate() float64 {
	if len(w.rates) == 0 {
		return ratio{float64(w.totalN), w.totalBusy.Seconds()}.value()
	}
	return median(w.rates)
}

// durMS is d in milliseconds.
func durMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
