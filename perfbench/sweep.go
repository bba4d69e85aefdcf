package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"see/internal/engines"
	"see/internal/experiment"
	"see/internal/oracle"
	"see/internal/sched"
	"see/internal/topo"
	"see/internal/xrand"
)

// The sweep-cold workload is what a seesim parameter sweep does per trial:
// take the trial's topology and SD pairs, build every registered engine
// cold and run its slots. The instances are the first trials of seesim's
// default sweep (-seed 1); the benchmark seed draws the slots'
// randomness. Trial cost varies up to 2× between topologies, so drawing
// the topologies from the benchmark seed would make one seed's figures
// differ from another's by more than any change worth measuring.
//
// The measured pass visits the instances over and over, so every part of a
// trial (drawing the instance, and each engine's construction and slots)
// is timed several times; work_per_s adds up each part's median process
// CPU time. CPU time leaves out the time the host ran other tenants, and a
// part's median leaves out the visits something else disturbed.
const (
	sweepBaseSeed  = 1
	sweepInstances = 3
	// sweepMinPasses over the instances run however long that takes: each
	// part's median needs several visits.
	sweepMinPasses = 4
	// sweepSlots per engine per visit give the slot-latency percentiles
	// 9 engines × 40 slots × 3 instances = 1080 samples per pass, and SEE's
	// delivered_per_slot 120 slots; slots are about 5% of a trial.
	sweepSlots = 40
	sweepPairs = 20
	// sweepChecked instances are run again in the other tracing mode; their
	// deliveries must match the measured pass.
	sweepChecked = 2
	// sweepSetupRounds times each instance is drawn in set-up.
	sweepSetupRounds = 10
	// sweepAttributed instances get the extra segment.Build and flow.Solve
	// calls of a traced pass.
	sweepAttributed = sweepInstances
)

// trialOutput is what one engine delivered on one instance: established
// connections per slot, then per SD pair summed over the slots.
type trialOutput struct {
	perSlot []int
	perPair []int
}

// sweepPass is what one pass over trials measured.
type sweepPass struct {
	rec      *recorder
	tr       *engineTracer
	trials   int
	trialMS  []float64
	slotMS   []float64 // wall time of each slot
	slotCPU  []float64 // CPU time of each slot
	slots    int
	slotB    uint64 // bytes allocated inside RunSlot
	trialB   uint64 // bytes allocated by whole trials
	gcCycles uint32
	// partCPU[k][0] holds the process CPU time instance k took to draw,
	// partCPU[k][1+i] that engine i took to build and run its slots on
	// it, in ms, one per visit.
	partCPU [sweepInstances][][]float64
	plan    planTotals
	// attribute: time segment.Build and flow.Solve after the first
	// sweepAttributed trials
	attribute bool
}

type sweep struct {
	seed     int64
	algs     []sched.Algorithm
	cfg      engines.Config
	bounds   [][]oracle.Bound // per instance
	want     [][]trialOutput  // per instance, per engine (first visit)
	res      *result
	host     hostSpeed
	baseHeap float64
	heapMB   float64 // live heap with one trial's engines reachable, less the heap before set-up
}

func runSweep(o options) (*result, error) {
	p := experiment.DefaultParams()
	s := &sweep{
		seed:   o.seed,
		algs:   engines.List(),
		cfg:    engines.Config{KPaths: p.KPaths, MaxSegmentHops: p.MaxSegmentHops, Workers: 1},
		bounds: make([][]oracle.Bound, sweepInstances),
		want:   make([][]trialOutput, sweepInstances),
		res:    newResult(),
	}

	s.baseHeap = liveHeapMB()
	// Set-up: draw every instance a few times, untimed by the trials, to
	// time input generation on its own, and compute the oracle bounds the
	// deliveries are checked against.
	var setup []float64
	for round := 0; round < sweepSetupRounds; round++ {
		s.host.sample()
		for k := 0; k < sweepInstances; k++ {
			c0 := processCPU()
			net, pairs, _, err := s.draw(k)
			setup = append(setup, s.host.scale(processCPU()-c0).Seconds())
			if err != nil {
				return nil, err
			}
			if round == 0 {
				s.bounds[k] = oracle.ComputeBounds(net, pairs)
			}
		}
	}

	// The measured pass is traced in a --trace 1 run; the check pass runs
	// the first instances again in the other mode.
	primary, check := &sweepPass{}, &sweepPass{}
	if o.trace {
		primary.trace(true)
	} else {
		check.trace(false)
	}
	start := time.Now()
	for cycle := 0; cycle < sweepMinPasses || time.Since(start) < o.seconds; cycle++ {
		s.pass(primary, cycle*sweepInstances, sweepInstances)
	}
	s.pass(check, 0, sweepChecked)

	res := s.res
	res.note("%d trials in the measured pass, %d instances, %d engines × %d slots each: %v",
		primary.trials, sweepInstances, len(s.algs), sweepSlots, s.algs)
	res.note("fail accounting: %d engine builds and slots attempted, %d returned an error", res.attempted, res.failed)
	if o.trace {
		return res, s.layerMetrics(o, primary, check)
	}
	return res, s.endToEnd(primary, setup)
}

// draw generates instance k's topology and SD pairs as seesim's trial k
// does. The returned rng, drawn from the benchmark seed, seeds the
// engines' slots, one split per engine in registry order.
func (s *sweep) draw(k int) (*topo.Network, []topo.SDPair, *rand.Rand, error) {
	rng := xrand.ForTrial(sweepBaseSeed, k)
	net, err := topo.Generate(topo.DefaultConfig(), xrand.Split(rng))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("instance %d: %w", k, err)
	}
	return net, topo.ChooseSDPairs(net, sweepPairs, xrand.Split(rng)), xrand.ForTrial(s.seed, k), nil
}

// settle runs before each part of a trial. It collects the heap, so the
// part pays for the collections its own allocations cause and no others,
// then times the reference kernel that scales the part's CPU times.
func (s *sweep) settle() {
	runtime.GC()
	s.host.sample()
}

// trace makes the pass record spans; attribute also times segment.Build
// and flow.Solve on each instance of the pass.
func (p *sweepPass) trace(attribute bool) {
	p.rec = newRecorder()
	p.tr = newEngineTracer(p.rec)
	p.attribute = attribute
}

// pass runs the n trials numbered from first.
func (s *sweep) pass(p *sweepPass, first, n int) {
	gc0 := gcCycles()
	for t := first; t < first+n; t++ {
		s.trial(p, t)
	}
	p.gcCycles += gcCycles() - gc0
}

// trial runs one cold trial on instance t mod sweepInstances and checks its
// outputs: deliveries within the oracle's per-pair bound, and the same
// deliveries as the instance's first visit in any pass.
func (s *sweep) trial(p *sweepPass, t int) {
	k := t % sweepInstances
	id := int64(t)
	alloc0 := allocatedBytes()
	if p.partCPU[k] == nil {
		p.partCPU[k] = make([][]float64, 1+len(s.algs))
	}
	s.settle()
	cpu0 := processCPU()
	start := time.Now()
	ts := p.rec.begin("sweep.trial", -1, id)

	net, pairs, rng, err := s.draw(k)
	p.rec.add("topo.generate", ts, id, start, time.Now())
	p.partCPU[k][0] = append(p.partCPU[k][0], durMS(s.host.scale(processCPU()-cpu0)))
	if err != nil {
		s.res.attempted++
		s.res.failed++
		s.res.check(false, "trial %d: %v", t, err)
		return
	}
	cfg := s.cfg
	if p.tr != nil {
		p.tr.parent, p.tr.id = ts, id
		cfg.Tracer = p.tr
	}
	out := make([]trialOutput, len(s.algs))
	built := make([]sched.Engine, len(s.algs))
	for i, alg := range s.algs {
		s.settle()
		cpu0 := processCPU()
		slotRng := xrand.Split(rng)
		s.res.attempted++
		b0 := time.Now()
		eng, err := engines.New(alg, net, pairs, cfg)
		i0 := p.rec.add("engines.construct", ts, id, b0, time.Now())
		if i0 >= 0 {
			p.rec.spans[i0].alg = int16(alg)
		}
		if err != nil {
			s.res.failed++
			s.res.check(false, "trial %d: building %v: %v", t, alg, err)
			continue
		}
		built[i] = eng
		out[i].perPair = make([]int, len(pairs))
		for slot := 0; slot < sweepSlots; slot++ {
			s.res.attempted++
			a0 := allocatedBytes()
			c0 := processCPU()
			t0 := time.Now()
			r, err := eng.RunSlot(slotRng)
			p.slotMS = append(p.slotMS, durMS(time.Since(t0)))
			p.slotCPU = append(p.slotCPU, durMS(s.host.scale(processCPU()-c0)))
			p.slotB += allocatedBytes() - a0
			p.slots++
			if err != nil {
				s.res.failed++
				s.res.check(false, "trial %d: %v slot %d: %v", t, alg, slot, err)
				break
			}
			out[i].perSlot = append(out[i].perSlot, r.Established)
			for j, c := range r.PerPair {
				out[i].perPair[j] += c
				if c > s.bounds[k][j].Hard {
					s.res.check(false, "instance %d: %v delivered %d to pair %d, above the oracle's hard bound %d",
						k, alg, c, j, s.bounds[k][j].Hard)
				}
			}
		}
		p.partCPU[k][1+i] = append(p.partCPU[k][1+i], durMS(s.host.scale(processCPU()-cpu0)))
	}
	elapsed := time.Since(start)
	p.rec.end(ts)
	p.trialB += allocatedBytes() - alloc0
	p.trialMS = append(p.trialMS, float64(elapsed)/float64(time.Millisecond))
	p.trials++

	if t == sweepInstances-1 && s.heapMB == 0 {
		// The last instance of the first pass is visited on every host:
		// what one trial's engines keep reachable.
		s.heapMB = liveHeapMB() - s.baseHeap
	}
	runtime.KeepAlive(built)
	if p.attribute && t < sweepAttributed {
		if err := planLayers(p.rec, id, net, pairs, &p.plan); err != nil {
			s.res.check(false, "trial %d: %v", t, err)
		}
	}

	if s.want[k] == nil {
		s.want[k] = out
		return
	}
	for i, alg := range s.algs {
		s.res.check(slices.Equal(out[i].perSlot, s.want[k][i].perSlot) && slices.Equal(out[i].perPair, s.want[k][i].perPair),
			"instance %d: %v delivered %v (per pair %v) on one visit and %v (%v) on another",
			k, alg, s.want[k][i].perSlot, s.want[k][i].perPair, out[i].perSlot, out[i].perPair)
	}
}

// seeQBPS is SEE's mean established connections per slot over the
// instances, from their first visits: the paper's headline number.
func (s *sweep) seeQBPS() float64 {
	i := slices.Index(s.algs, sched.SEE)
	total, slots := 0, 0
	for _, outs := range s.want {
		for _, e := range outs[i].perSlot {
			total += e
		}
		slots += len(outs[i].perSlot)
	}
	return ratio{float64(total), float64(slots)}.value()
}

func (s *sweep) endToEnd(p *sweepPass, setup []float64) error {
	res := s.res
	m := res.metrics
	res.note("%v", &s.host)
	m["setup_s"] = median(setup)
	res.note("setup_s: median scaled CPU time of %d instance draws (topology + SD pairs)", len(setup))
	typical := 0.0
	for _, parts := range p.partCPU {
		typical += sumOfMedians(parts)
	}
	m["work_per_s"] = sweepInstances / (typical / 1000)
	res.note("work_per_s: %d instances in %.3f scaled CPU s, the sum of each part's median over %d visits; the %d trials took %.3f s of wall time, the slowest %.3f s",
		sweepInstances, typical/1000, p.trials/sweepInstances, p.trials, sum(p.trialMS)/1000, slices.Max(p.trialMS)/1000)
	if err := setSlotLatency(res, p.slotMS, p.slotCPU); err != nil {
		return err
	}
	res.note("slot_cpu_ms_*: every engine's slots")
	m["delivered_per_slot"] = s.seeQBPS()
	res.note("delivered_per_slot: SEE established per slot over %d instances × %d slots", sweepInstances, sweepSlots)
	res.setRatio("ok_ratio", ratio{float64(res.attempted - res.failed), float64(res.attempted)})
	m["live_heap_mb"] = s.heapMB
	res.note("live_heap_mb: after a forced GC with one trial's %d engines reachable", len(s.algs))
	return nil
}

func (s *sweep) layerMetrics(o options, traced, untraced *sweepPass) error {
	res := s.res
	m := res.metrics
	rec := traced.rec
	m["topo.generate_ms"] = median(rec.durations("topo.generate", -1, time.Millisecond))
	setPlanMetrics(res, rec, traced.plan)
	setConstructMetrics(res, rec)
	setSlotMetrics(res, rec, sched.SEE, traced.tr.of(sched.SEE))
	for _, name := range []string{"warm.rebuild_ms", "warm.hit_ratio", "serve.self_us", "serve.backlog_max",
		"ckpt.write_ms", "ckpt.bytes", "ckpt.resume_ms"} {
		m[name] = 0
	}
	res.note("warm, serve and ckpt are not exercised by a cold sweep (reported as 0)")
	res.setRatio("go.alloc_kb_per_slot", ratio{float64(untraced.slotB) / 1024, float64(untraced.slots)})
	res.setRatio("go.alloc_mb_per_trial", ratio{float64(untraced.trialB) / (1 << 20), float64(untraced.trials)})
	m["go.gc_cycles"] = float64(untraced.gcCycles)
	res.note("go.* from the untraced pass over %d trials", untraced.trials)
	res.setRatio("trace.overhead_ratio", ratio{sum(untraced.trialMS[:sweepChecked]), sum(traced.trialMS[:sweepChecked])})
	return rec.write(fmt.Sprintf("%s/spans-sweep-cold.jsonl", o.out))
}
