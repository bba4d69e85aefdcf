package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"see/internal/core"
	"see/internal/engines"
	"see/internal/flow"
	"see/internal/lp"
	"see/internal/sched"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// allocatedBytes is the heap allocated since the process started. It reads
// runtime/metrics, which does not stop the world, so untraced passes can
// call it around every slot.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeapMB forces a collection and returns the heap still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// processCPU is the CPU time the process has used. The guest kernel leaves
// time the hypervisor gave the vCPU to another tenant (steal time) out of
// it, as it does time other processes ran, so on a shared host it follows
// the program where wall time follows the neighbours.
func processCPU() time.Duration { return cpuClock(2) } // CLOCK_PROCESS_CPUTIME_ID

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, errno))
	}
	return time.Duration(ts.Nano())
}

func gcCycles() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}

// lpReferenceSolves is how many times the fixed reference LP is solved.
const lpReferenceSolves = 200

// lpReference times lp.DenseProblem.Solve on one fixed 60-variable,
// 40-row packing LP, the same for every seed and workload, and returns the
// median in microseconds: a host-speed reference for the other layers.
// It runs before the workload, on a freshly collected heap, so the
// workload's heap does not change what it measures.
func lpReference() (float64, error) {
	runtime.GC()
	var us []float64
	for i := 0; i < lpReferenceSolves; i++ {
		rng := xrand.New(5)
		const n, m = 60, 40
		p := lp.NewDense(n)
		for j := 0; j < n; j++ {
			if err := p.SetObjective(j, rng.Float64()); err != nil {
				return 0, err
			}
		}
		for r := 0; r < m; r++ {
			es := make([]lp.Entry, 0, n/2)
			for j := r % 2; j < n; j += 2 {
				es = append(es, lp.Entry{Index: j, Value: 0.1 + rng.Float64()})
			}
			if err := p.AddConstraint(es, lp.LE, 5+rng.Float64()*5); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		sol, err := p.Solve()
		end := time.Now()
		us = append(us, float64(end.Sub(start))/float64(time.Microsecond))
		if err != nil {
			return 0, err
		}
		if sol.Status != lp.StatusOptimal {
			return 0, fmt.Errorf("reference LP: status %v", sol.Status)
		}
	}
	return median(us), nil
}

// planTotals accumulates the sizes segment.Build and flow.Solve report.
type planTotals struct {
	calls, candidates, rounds, columns int
}

// planLayers calls segment.Build and flow.Solve with SEE's default options
// (those of every workload) on one instance, as spans of their own: they
// attribute SEE's construction time without being part of any timed trial
// or slot.
func planLayers(rec *recorder, id int64, net *topo.Network, pairs []topo.SDPair, t *planTotals) error {
	opts := core.DefaultOptions()
	opts.Flow.Workers = 1
	start := time.Now()
	set, err := segment.Build(net, pairs, opts.Segment)
	built := time.Now()
	rec.add("segment.build", -1, id, start, built)
	if err != nil {
		return fmt.Errorf("segment.Build: %w", err)
	}
	sol, err := flow.Solve(set, opts.Flow)
	rec.add("flow.solve", -1, id, built, time.Now())
	if err != nil {
		return fmt.Errorf("flow.Solve: %w", err)
	}
	t.calls++
	t.candidates += set.NumCandidates()
	t.rounds += sol.Rounds
	t.columns += sol.Columns
	return nil
}

// setPlanMetrics stores the segment and flow layer metrics.
func setPlanMetrics(res *result, rec *recorder, t planTotals) {
	res.metrics["segment.build_ms"] = median(rec.durations("segment.build", -1, time.Millisecond))
	solves := rec.durations("flow.solve", -1, time.Millisecond)
	res.metrics["flow.solve_ms"] = median(solves)
	res.metrics["flow.solve_ms_max"] = slices.Max(solves)
	res.setRatio("segment.candidates", ratio{float64(t.candidates), float64(t.calls)})
	res.setRatio("flow.rounds", ratio{float64(t.rounds), float64(t.calls)})
	res.setRatio("flow.columns", ratio{float64(t.columns), float64(t.calls)})
}

// setConstructMetrics stores engines.construct_ms.<alg> for every
// registered engine: the median of its engines.construct spans, 0 for an
// engine the workload does not build.
func setConstructMetrics(res *result, rec *recorder) {
	for _, alg := range engines.List() {
		res.metrics["engines.construct_ms."+algName(alg)] = median(rec.durations("engines.construct", alg, time.Millisecond))
	}
}

// algName is the metric-name form of an algorithm ("see", "contend-aware").
func algName(alg sched.Algorithm) string { return strings.ToLower(alg.String()) }

// setSlotMetrics stores the sched phase medians of one engine's slots and
// the outcome ratios of its pipeline funnel, each with its base.
func setSlotMetrics(res *result, rec *recorder, alg sched.Algorithm, o outcomes) {
	for _, ph := range []struct{ metric, span string }{
		{"sched.plan_us", "sched.plan"},
		{"sched.reserve_us", "sched.reserve"},
		{"sched.physical_us", "sched.physical"},
		{"sched.stitch_us", "sched.stitch"},
		{"sched.slot_us", "sched.slot"},
	} {
		res.metrics[ph.metric] = median(rec.durations(ph.span, alg, time.Microsecond))
	}
	res.note("sched.* are medians over %d %v slots; funnel %v", o.slots, alg, o)
	res.setRatio("qnet.created_per_attempt", ratio{float64(o.created), float64(o.attempts)})
	res.setRatio("sched.provisioned_per_planned", ratio{float64(o.provisioned), float64(o.planned)})
	res.setRatio("qnet.established_per_assembled", ratio{float64(o.established), float64(o.assembled)})
	res.setRatio("qnet.floor_reject_per_assembled", ratio{float64(o.floor), float64(o.assembled)})
	in := o.incidents
	slots := float64(o.slots)
	res.setRatio("state.withdrawn_per_slot", ratio{float64(in[sched.IncidentBankWithdraw]), slots})
	res.setRatio("state.deposited_per_slot", ratio{float64(in[sched.IncidentBankDeposit]), slots})
	res.setRatio("state.lost_ratio", ratio{float64(in[sched.IncidentBankDecohered]), float64(in[sched.IncidentBankDeposit])})
	chaosEvents := in[sched.IncidentFault] + in[sched.IncidentBrownout] + in[sched.IncidentFlap] + in[sched.IncidentMessageDrop]
	res.setRatio("chaos.incidents_per_slot", ratio{float64(chaosEvents), slots})
}
