package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"see/internal/chaos"
	"see/internal/engines"
	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/serve"
	"see/internal/state"
	"see/internal/topo"
	"see/internal/warm"
	"see/internal/xrand"
)

// serveWorkload configures one long-lived service-mode workload: a traffic
// server per instance, driven as seesim -serve drives it, with a
// checkpoint written every ckptEvery slots.
type serveWorkload struct {
	name      string
	alg       sched.Algorithm
	arrivals  string
	faults    string  // chaos spec; its seed is replaced per instance
	floor     float64 // fidelity floor for every pair, 0 for none
	carry     int     // carry-over window in slots, 0 for none
	restart   int     // restart the server every this many slots, 0 for never
	ckptEvery int
}

const serveArrivals = "poisson;rate=3;users=200;mix=0.2/0.3/0.5;deadline=4/8/16;max-active=64"

var (
	serveSEE = serveWorkload{name: "serve-see", alg: sched.SEE, arrivals: serveArrivals, ckptEvery: 25}

	serveREPSRestart = serveWorkload{
		name:      "serve-reps-restart",
		alg:       sched.REPS,
		arrivals:  serveArrivals,
		faults:    "cut:100,200,50@20-60;brown:4,0.5@10-;flap:2,4,0.5@0-400;loss=0.05;decohere=0.1",
		floor:     0.6,
		carry:     2,
		restart:   100,
		ckptEvery: 25,
	}
)

const (
	// serveInstanceSeed draws the served topology and SD pairs as seesim
	// -serve does by default (-seed 1); the benchmark seed drives the
	// arrivals, the slots' randomness and the fault plan. Slot cost varies
	// by tens of percent between topologies, more than any change worth
	// measuring, so the network stays the same from seed to seed.
	serveInstanceSeed = 1
	servePairs        = 20
	// serveSetups is how many times set-up runs; setup_s is their median.
	serveSetups = 5
	// serveHorizon slots are the deterministic part of a run: the report
	// at this slot is compared across passes and gives delivered_per_slot
	// and ok_ratio.
	serveHorizon = 2000
	// serveHeapSlot is the slot after which the server's live heap is
	// measured: late enough that state growing with every slot shows, and
	// the same in every run, so the figure does not follow host speed.
	serveHeapSlot = 5000
)

// serveInstance is the served network with its server.
type serveInstance struct {
	seed  int64
	net   *topo.Network
	pairs []topo.SDPair
	warm  *warm.Cache
	ckpt  string

	srv      *serve.Server
	eng      *checkedEngine
	counting *sched.CountingTracer

	// At serveHorizon: the report and the program's own tracer counts.
	report *serve.Report
	counts sched.TracerCounts
	heapMB float64 // live heap at serveHeapSlot
}

// checkedEngine wraps the served engine to check every delivered
// connection against the fidelity floor. It forwards checkpointing, so
// the server snapshots and restores the wrapped engine.
type checkedEngine struct {
	sched.Engine
	floors    *qnet.FloorSpec
	delivered int
	below     int
}

func (c *checkedEngine) RunSlot(rng *rand.Rand) (*sched.SlotResult, error) {
	res, err := c.Engine.RunSlot(rng)
	if err != nil || c.floors == nil {
		return res, err
	}
	for _, conn := range res.Connections {
		c.delivered++
		if conn.Fidelity < c.floors.Floor(conn.Pair) {
			c.below++
		}
	}
	return res, nil
}

func (c *checkedEngine) EngineState() (*sched.EngineState, error) {
	ck, ok := c.Engine.(sched.Checkpointable)
	if !ok {
		return nil, fmt.Errorf("%v is not checkpointable", c.Algorithm())
	}
	return ck.EngineState()
}

func (c *checkedEngine) RestoreEngineState(st *sched.EngineState) error {
	ck, ok := c.Engine.(sched.Checkpointable)
	if !ok {
		return fmt.Errorf("%v is not checkpointable", c.Algorithm())
	}
	return ck.RestoreEngineState(st)
}

// servePass is what one pass over the slots measured.
type servePass struct {
	rec        *recorder
	tr         *engineTracer
	slots      int
	slotMS     []float64   // RunSlot wall times
	slotCPU    []float64   // RunSlot process CPU times, scaled by host
	horizonMS  []float64   // RunSlot times of the first serveHorizon slots
	work       rateWindows // slots over RunSlot, checkpoint and restart time
	slotB      uint64
	gcCycles   uint32 // during the check pass
	ckptBytes  []float64
	backlogMax int
	restarts   int
	warmHits   uint64
	warmLooks  uint64
	host       hostSpeed
}

func runServe(w serveWorkload, o options) (*result, error) {
	res := newResult()
	dir := filepath.Join(o.out, "ckpt-"+w.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	// The measured pass is traced in a --trace 1 run; the check pass runs
	// the same slots in the other mode, uninterrupted and without
	// checkpoints, and must end in the same state.
	baseHeap := liveHeapMB()
	primary := &servePass{work: rateWindows{span: time.Second}} // of scaled CPU time
	if o.trace {
		primary.rec = newRecorder()
		primary.tr = newEngineTracer(primary.rec)
	}

	// Set-up: topology, cold construction and server, several times; the
	// last server is the one measured.
	var in *serveInstance
	var setup []float64
	for i := 0; i < serveSetups; i++ {
		primary.host.sample()
		c0 := processCPU()
		start := time.Now()
		rng := xrand.New(serveInstanceSeed)
		net, err := topo.Generate(topo.DefaultConfig(), xrand.Split(rng))
		primary.rec.add("topo.generate", -1, int64(i), start, time.Now())
		if err != nil {
			return nil, err
		}
		in = &serveInstance{seed: o.seed, net: net, pairs: topo.ChooseSDPairs(net, servePairs, xrand.Split(rng)),
			warm: warm.New(), ckpt: filepath.Join(dir, "server.ckpt")}
		if err := w.start(in, primary, i); err != nil {
			return nil, err
		}
		setup = append(setup, primary.host.scale(processCPU()-c0).Seconds())
	}

	measured := time.Now()
	if err := w.measure(in, primary, o.seconds, res); err != nil {
		return nil, err
	}
	measureWall := time.Since(measured)

	check := &servePass{}
	if !o.trace {
		check.rec = newRecorder()
		check.tr = newEngineTracer(check.rec)
	}
	gc0 := gcCycles()
	if err := w.verify(in, check, res); err != nil {
		return nil, err
	}
	check.gcCycles = gcCycles() - gc0

	r := in.report
	if w.floor > 0 {
		res.check(in.eng.below == 0, "%d of %d delivered connections below the fidelity floor %g", in.eng.below, in.eng.delivered, w.floor)
		res.note("fidelity: %d delivered connections checked against the floor %g, %d below", in.eng.delivered, w.floor, in.eng.below)
	}
	res.note("%d checked slots; the measured pass ran %d slots with %d restarts", serveHorizon, primary.slots, primary.restarts)
	res.note("fail accounting: %d operations (slots, checkpoint writes, restarts) attempted, %d returned an error",
		res.attempted, res.failed)

	if o.trace {
		return res, w.layerMetrics(o, res, in, primary, check)
	}
	m := res.metrics
	res.note("%v", &primary.host)
	m["setup_s"] = median(setup)
	res.note("setup_s: median scaled CPU time of %d set-ups (topology, cold %v construction, server)", len(setup), w.alg)
	m["work_per_s"] = primary.work.rate()
	res.note("work_per_s: median of %d windows of one CPU second; %d slots in %.3f CPU s (%.3f s of wall time), checkpoint writes and restarts included",
		len(primary.work.rates), primary.work.totalN, primary.work.totalBusy.Seconds(), measureWall.Seconds())
	if err := setSlotLatency(res, primary.slotMS, primary.slotCPU); err != nil {
		return nil, err
	}
	res.note("slot_cpu_ms_*: Server.RunSlot alone")
	m["delivered_per_slot"] = r.Throughput
	res.note("delivered_per_slot: %d requests served in %d slots", r.Served, r.Slots)
	res.setRatio("ok_ratio", ratio{float64(r.Arrived - r.Rejected - r.Expired), float64(r.Arrived)})
	res.note("ok_ratio: of %d arrived requests %d were rejected and %d expired", r.Arrived, r.Rejected, r.Expired)
	m["live_heap_mb"] = in.heapMB - baseHeap
	res.note("live_heap_mb: heap after a forced GC at slot %d, less the heap before set-up", serveHeapSlot)
	return res, nil
}

// build constructs the instance's engine and server from scratch, through
// the instance's warm cache. et, when non-nil, observes the engine next to
// the server's own CountingTracer.
func (w serveWorkload) build(in *serveInstance, et *engineTracer) (*serve.Server, *checkedEngine, *sched.CountingTracer, error) {
	counting := sched.NewCountingTracer()
	var tr sched.Tracer = counting
	if et != nil {
		tr = sched.Multi(counting, et)
	}
	cfg := engines.Config{Workers: 1, Tracer: tr, Warm: in.warm}
	if w.floor > 0 {
		cfg.FidelityFloors = &qnet.FloorSpec{Default: w.floor}
	}
	var plan *chaos.FaultPlan
	if w.faults != "" {
		var err error
		if plan, err = chaos.ParseSpec(w.faults); err != nil {
			return nil, nil, nil, err
		}
		plan.Seed = in.seed
		if cfg.Chaos, err = chaos.NewInjector(plan, in.net); err != nil {
			return nil, nil, nil, err
		}
	}
	eng, err := engines.New(w.alg, in.net, in.pairs, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	if w.carry > 0 {
		pol := state.Policy{CarrySlots: w.carry}
		if plan != nil {
			pol.Decoherence, pol.Seed = plan.Decoherence, plan.Seed
		}
		st, ok := eng.(sched.Stateful)
		if !ok {
			return nil, nil, nil, fmt.Errorf("%v does not carry state across slots", w.alg)
		}
		st.AttachBank(state.NewBank(in.net, pol))
	}
	ce := &checkedEngine{Engine: eng, floors: cfg.FidelityFloors}
	scfg, err := serve.ParseSpec(w.arrivals)
	if err != nil {
		return nil, nil, nil, err
	}
	scfg.Seed, scfg.Tracer, scfg.Warm = in.seed, counting, in.warm
	srv, err := serve.New(ce, len(in.pairs), scfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return srv, ce, counting, nil
}

// start builds the instance's first server cold.
func (w serveWorkload) start(in *serveInstance, p *servePass, id int) error {
	start := time.Now()
	srv, eng, counting, err := w.build(in, p.tr)
	if i := p.rec.add("engines.construct", -1, int64(id), start, time.Now()); i >= 0 {
		p.rec.spans[i].alg = int16(w.alg)
	}
	in.srv, in.eng, in.counting = srv, eng, counting
	return err
}

// measure runs the server for at least serveHorizon slots and d of wall
// time, writing checkpoints and restarting as the workload says.
func (w serveWorkload) measure(in *serveInstance, p *servePass, d time.Duration, res *result) error {
	begin := time.Now()
	for slot := in.srv.Slot(); slot < max(serveHorizon, serveHeapSlot) || time.Since(begin) < d; slot++ {
		p.host.tick()
		if w.restart > 0 && slot > 0 && slot%w.restart == 0 {
			res.attempted++
			c0 := processCPU()
			if err := w.restartServer(in, p, slot); err != nil {
				res.failed++
				return fmt.Errorf("restart at slot %d: %w", slot, err)
			}
			p.work.add(0, p.host.scale(processCPU()-c0))
		}
		id := int64(slot)
		rs := p.rec.begin("serve.RunSlot", -1, id)
		if p.tr != nil {
			p.tr.parent, p.tr.id = rs, id
		}
		res.attempted++
		a0 := allocatedBytes()
		c0 := processCPU()
		t0 := time.Now()
		st, err := in.srv.RunSlot()
		t1 := time.Now()
		c1 := processCPU()
		p.slotCPU = append(p.slotCPU, durMS(p.host.scale(c1-c0)))
		p.slotB += allocatedBytes() - a0
		p.rec.end(rs)
		if err != nil {
			res.failed++
			return err
		}
		ms := durMS(t1.Sub(t0))
		p.slotMS = append(p.slotMS, ms)
		if slot < serveHorizon {
			p.horizonMS = append(p.horizonMS, ms)
		}
		if (slot+1)%w.ckptEvery == 0 {
			res.attempted++
			if err := in.srv.WriteCheckpoint(in.ckpt); err != nil {
				res.failed++
				return fmt.Errorf("checkpoint after slot %d: %w", slot, err)
			}
			c1 = processCPU()
			p.rec.add("ckpt.write", -1, id, t1, time.Now())
			if p.rec != nil {
				if fi, err := os.Stat(in.ckpt); err == nil {
					p.ckptBytes = append(p.ckptBytes, float64(fi.Size()))
				}
			}
		}
		p.work.add(1, p.host.scale(c1-c0))
		p.backlogMax = max(p.backlogMax, st.Backlog)
		p.slots++
		if slot+1 == serveHorizon {
			in.report, in.counts = in.srv.Report(), in.counting.Counts()
		}
		if slot+1 == serveHeapSlot {
			in.heapMB = liveHeapMB()
		}
	}
	return nil
}

// restartServer replaces the instance's server, as a restarted process
// would: rebuild the scheduler through the warm cache and resume from the
// latest checkpoint, which must hold the current slot.
func (w serveWorkload) restartServer(in *serveInstance, p *servePass, slot int) error {
	before := in.warm.Stats()
	t0 := time.Now()
	srv, eng, counting, err := w.build(in, p.tr)
	t1 := time.Now()
	if err != nil {
		return err
	}
	after := in.warm.Stats() // resuming overwrites the counters
	p.warmHits += after.SetHits + after.SolveHits - before.SetHits - before.SolveHits
	p.warmLooks += after.SetHits + after.SolveHits + after.SetMisses + after.SolveMisses -
		before.SetHits - before.SolveHits - before.SetMisses - before.SolveMisses
	p.rec.add("warm.rebuild", -1, int64(slot), t0, t1)
	if err := srv.ResumeFrom(in.ckpt); err != nil {
		return err
	}
	p.rec.add("ckpt.resume", -1, int64(slot), t1, time.Now())
	if srv.Slot() != slot {
		return fmt.Errorf("latest checkpoint holds slot %d", srv.Slot())
	}
	// Connections the old engine already checked stay counted.
	eng.delivered, eng.below = in.eng.delivered, in.eng.below
	in.srv, in.eng, in.counting = srv, eng, counting
	p.restarts++
	return nil
}

// verify runs the instance's first serveHorizon slots again in the check
// pass's tracing mode, uninterrupted and without checkpoints, and requires
// the report and the program's tracer counts of the measured pass.
func (w serveWorkload) verify(in *serveInstance, p *servePass, res *result) error {
	srv, eng, counting, err := w.build(in, p.tr)
	if err != nil {
		return fmt.Errorf("check build: %w", err)
	}
	for slot := 0; slot < serveHorizon; slot++ {
		id := int64(slot)
		rs := p.rec.begin("serve.RunSlot", -1, id)
		if p.tr != nil {
			p.tr.parent, p.tr.id = rs, id
		}
		res.attempted++
		a0 := allocatedBytes()
		t0 := time.Now()
		_, err := srv.RunSlot()
		p.horizonMS = append(p.horizonMS, float64(time.Since(t0))/float64(time.Millisecond))
		p.slotB += allocatedBytes() - a0
		p.rec.end(rs)
		if err != nil {
			res.failed++
			return fmt.Errorf("check slot %d: %w", slot, err)
		}
		p.slots++
	}
	got := srv.Report()
	res.check(reflect.DeepEqual(got, in.report),
		"report after %d slots differs between passes (restarts or tracing changed the outcome):\n  measured %+v\n  check    %+v",
		serveHorizon, *in.report, *got)
	res.check(counting.Counts() == in.counts, "tracer counts after %d slots differ between passes", serveHorizon)
	res.check(eng.below == 0, "check pass delivered %d connections below the fidelity floor", eng.below)
	return nil
}

func (w serveWorkload) layerMetrics(o options, res *result, in *serveInstance, traced, untraced *servePass) error {
	m := res.metrics
	rec := traced.rec
	m["topo.generate_ms"] = median(rec.durations("topo.generate", -1, time.Millisecond))
	var plan planTotals
	for i := 0; i < serveSetups; i++ {
		if err := planLayers(rec, int64(i), in.net, in.pairs, &plan); err != nil {
			return err
		}
	}
	setPlanMetrics(res, rec, plan)
	setConstructMetrics(res, rec)
	setSlotMetrics(res, rec, w.alg, traced.tr.of(w.alg))
	m["warm.rebuild_ms"] = median(rec.durations("warm.rebuild", -1, time.Millisecond))
	res.setRatio("warm.hit_ratio", ratio{float64(traced.warmHits), float64(traced.warmLooks)})
	m["serve.self_us"] = median(rec.selfTimes("serve.RunSlot", time.Microsecond))
	m["serve.backlog_max"] = float64(traced.backlogMax)
	m["ckpt.write_ms"] = median(rec.durations("ckpt.write", -1, time.Millisecond))
	m["ckpt.bytes"] = median(traced.ckptBytes)
	m["ckpt.resume_ms"] = median(rec.durations("ckpt.resume", -1, time.Millisecond))
	res.note("%d restarts, %d checkpoint writes", traced.restarts, len(traced.ckptBytes))
	res.setRatio("go.alloc_kb_per_slot", ratio{float64(untraced.slotB) / 1024, float64(untraced.slots)})
	m["go.alloc_mb_per_trial"] = 0
	m["go.gc_cycles"] = float64(untraced.gcCycles)
	res.note("go.* from the untraced check pass over %d slots; a server has no trials (go.alloc_mb_per_trial = 0)", untraced.slots)
	// Median RunSlot times of the same slots, untraced over traced: the
	// traced pass's throughput as a share of the untraced one's.
	res.setRatio("trace.overhead_ratio", ratio{median(untraced.horizonMS), median(traced.horizonMS)})
	return rec.write(filepath.Join(o.out, "spans-"+w.name+".jsonl"))
}
