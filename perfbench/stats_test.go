package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending, so tail must sort
	}
	return s
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	// p99 of 1000 samples is the 990th smallest, with 10 beyond it.
	got, err := tail(seq(1000), 0.99)
	if err != nil || got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, nil", got, err)
	}
	// 999 samples leave 9 beyond the 990th smallest.
	if _, err := tail(seq(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted with 9 samples beyond it")
	}
	if _, err := tail(nil, 0.99); err == nil {
		t.Fatal("p99 of no samples accepted")
	}
	// p90 of 100 samples has exactly 10 beyond it.
	if got, err := tail(seq(100), 0.9); err != nil || got != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, nil", got, err)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSumOfMediansIgnoresDisturbedVisits(t *testing.T) {
	// Part one's third visit was slowed fivefold; its median is still 10.
	parts := [][]float64{{10, 11, 50, 9, 10}, {2, 2, 3}, nil}
	if got := sumOfMedians(parts); got != 12 {
		t.Errorf("sumOfMedians(%v) = %v, want 12", parts, got)
	}
}

func TestRatioZeroBase(t *testing.T) {
	if v := (ratio{0, 0}).value(); v != 0 {
		t.Errorf("0/0 = %v, want 0", v)
	}
	if v := (ratio{5, 0}).value(); v != 0 {
		t.Errorf("5/0 = %v, want 0", v)
	}
	if v := (ratio{3, 4}).value(); v != 0.75 {
		t.Errorf("3/4 = %v, want 0.75", v)
	}
	if s := (ratio{3, 0}).String(); s != "3/0" {
		t.Errorf("ratio prints %q, want the numerator and the zero base", s)
	}
}

func TestSelfTime(t *testing.T) {
	span := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{110, 150}}, 60},
		{"disjoint children", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping children count once", []interval{{110, 150}, {140, 160}}, 50},
		{"nested child", []interval{{110, 190}, {120, 130}}, 20},
		{"child sticking out is clipped", []interval{{50, 120}, {180, 250}}, 60},
		{"child outside the span", []interval{{0, 50}}, 100},
		{"children cover everything", []interval{{100, 200}}, 0},
	} {
		if got := selfTime(span, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRecorderSelfTimes(t *testing.T) {
	r := newRecorder()
	at := func(ns int64) time.Time { return r.epoch.Add(time.Duration(ns)) }
	parent := r.add("serve.RunSlot", -1, 1, at(0), at(1000))
	r.add("sched.slot", parent, 1, at(100), at(700))
	r.add("other", -1, 1, at(0), at(500)) // not a child: ignored
	got := r.selfTimes("serve.RunSlot", time.Nanosecond)
	if len(got) != 1 || got[0] != 400 {
		t.Fatalf("self times %v, want [400]", got)
	}
	var nilRec *recorder
	if i := nilRec.add("x", -1, 0, at(0), at(1)); i != -1 {
		t.Fatalf("nil recorder returned span %d", i)
	}
}

func TestRateWindows(t *testing.T) {
	w := rateWindows{span: time.Second}
	w.add(100, 500*time.Millisecond)
	if got := w.rate(); got != 200 {
		t.Fatalf("rate before a full window = %v, want the overall 200", got)
	}
	w.add(100, 500*time.Millisecond) // closes window 1: 200/s
	w.add(50, time.Second)           // window 2: 50/s, a disturbed second
	w.add(200, time.Second)          // window 3: 200/s
	w.add(10, 100*time.Millisecond)  // partial window, not counted
	if got := w.rate(); got != 200 {
		t.Fatalf("median window rate = %v, want 200", got)
	}
	if w.totalN != 460 {
		t.Fatalf("total %d slots, want 460", w.totalN)
	}
}

func TestHostScaleFollowsLatestRuns(t *testing.T) {
	var h hostSpeed
	if got := h.scale(time.Second); got != time.Second {
		t.Errorf("scale before the kernel ran = %v, want the time unchanged", got)
	}
	// The kernel took twice refNominal in four of the latest five runs:
	// the host ran at half speed, so CPU times are halved. The run at 10×
	// and the older runs at nominal speed do not count.
	n := durMS(refNominal)
	for _, ms := range []float64{n, n, n, 2 * n, 10 * n, 2 * n, 2 * n} {
		h.record(ms)
	}
	if got := h.scale(time.Second); got != 500*time.Millisecond {
		t.Errorf("scale(1s) = %v, want 500ms", got)
	}
}

func TestRefKernelRepeats(t *testing.T) {
	a, b := refKernel(), refKernel()
	if a <= 0 || math.Abs(a-b) > 1e-9*a {
		t.Errorf("reference kernel checksums %v and %v: want the same positive sum from its reused scratch", a, b)
	}
	if n := testing.AllocsPerRun(3, func() { refSink += refKernel() }); n != 0 {
		t.Errorf("reference kernel allocates %v times per run, want 0", n)
	}
}
