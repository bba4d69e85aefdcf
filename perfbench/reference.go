package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// refNominal is the reference kernel's CPU time on the host the timing
// metrics are scaled to, about what it takes on a 2-vCPU KVM guest.
const refNominal = 2500 * time.Microsecond

// refEvery is the least wall time between two runs of the reference
// kernel in a serve workload, so that its runs spread over the whole
// measured pass.
const refEvery = 100 * time.Millisecond

// refWindow is how many of the latest kernel runs set the scale.
const refWindow = 5

// hostSpeed times the reference kernel through a run and scales the CPU
// times measured between its runs. A CPU time multiplied by factor is the
// time it would have taken on a host where the kernel takes refNominal: a
// slower or busier host slows the kernel and the simulator alike, and the
// factor takes that out. It follows the median of the latest refWindow
// kernel runs, so it follows the host through a run while one disturbed
// kernel run moves it little.
type hostSpeed struct {
	ms     []float64
	last   time.Time
	factor float64 // 0 until the kernel first runs: scale then leaves times as they are
}

// tick runs the reference kernel unless it ran less than refEvery ago.
// Callers tick between the parts they time.
func (h *hostSpeed) tick() {
	if time.Since(h.last) >= refEvery {
		h.sample()
	}
}

// sample runs the reference kernel and records its CPU time.
func (h *hostSpeed) sample() {
	// An untimed search first brings the kernel's data into the cache,
	// whatever the simulator did before, so the timed ones measure the
	// core and not what the last slot evicted.
	refSink += refSearch(0)
	c0 := processCPU()
	refSink += refKernel()
	h.record(durMS(processCPU() - c0))
}

// record adds one kernel run's CPU time in milliseconds.
func (h *hostSpeed) record(ms float64) {
	h.ms = append(h.ms, ms)
	h.last = time.Now()
	h.factor = durMS(refNominal) / median(h.ms[max(0, len(h.ms)-refWindow):])
}

// scale returns d multiplied by the current factor.
func (h *hostSpeed) scale(d time.Duration) time.Duration {
	if h.factor == 0 {
		return d
	}
	return time.Duration(float64(d) * h.factor)
}

func (h *hostSpeed) String() string {
	return fmt.Sprintf("reference kernel: median %.4f ms over %d runs, %.4f–%.4f ms; nominal %v",
		median(h.ms), len(h.ms), slices.Min(h.ms), slices.Max(h.ms), refNominal)
}

// refSink keeps the kernel's checksum live.
var refSink float64

// refGraph is a fixed random graph the reference kernel searches: 400
// nodes, each with 6 weighted out-edges, the same in every run.
var refGraph = func() [][]refEdge {
	rng := rand.New(rand.NewSource(1))
	g := make([][]refEdge, 400)
	for u := range g {
		for i := 0; i < 6; i++ {
			g[u] = append(g[u], refEdge{to: rng.Intn(len(g)), w: 1 + rng.Float64()})
		}
	}
	return g
}()

type refEdge struct {
	to int
	w  float64
}

type refItem struct {
	node int
	dist float64
}

// refQueue is a binary min-heap on dist. It is written out rather than
// built on container/heap, whose interface values would allocate.
type refQueue []refItem

func (q *refQueue) push(it refItem) {
	h := append(*q, it)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if h[up].dist <= h[i].dist {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
	*q = h
}

func (q *refQueue) pop() refItem {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		small, l, r := i, 2*i+1, 2*i+2
		if l < n && h[l].dist < h[small].dist {
			small = l
		}
		if r < n && h[r].dist < h[small].dist {
			small = r
		}
		if small == i {
			break
		}
		h[small], h[i] = h[i], h[small]
		i = small
	}
	*q = h
	return top
}

// The reference kernel's scratch, allocated once: the kernel allocates
// nothing, so it neither starts nor assists a garbage collection, and the
// median of its runs ignores the few a collection already running slows.
var (
	refDist = make(map[int]float64, len(refGraph))
	refPQ   = make(refQueue, 0, 8*len(refGraph))
)

// refKernel is a fixed piece of work of the kind the simulator does —
// shortest paths over a heap, map updates — that belongs to the
// benchmark, so no change to the simulator changes it: eight searches on
// refGraph. It returns a checksum so the work cannot be optimised away.
func refKernel() float64 {
	total := 0.0
	for src := 1; src <= 8; src++ {
		total += refSearch(src)
	}
	return total
}

// refSearch runs Dijkstra from src on refGraph and returns the sum of the
// distances it found.
func refSearch(src int) float64 {
	dist, q := refDist, &refPQ
	clear(dist)
	*q = append((*q)[:0], refItem{node: src})
	for len(*q) > 0 {
		it := q.pop()
		if _, done := dist[it.node]; done {
			continue
		}
		dist[it.node] = it.dist
		for _, e := range refGraph[it.node] {
			if _, done := dist[e.to]; !done {
				q.push(refItem{node: e.to, dist: it.dist + e.w})
			}
		}
	}
	total := 0.0
	for _, d := range dist {
		total += d
	}
	return total
}
