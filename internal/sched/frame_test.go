package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"see/internal/chaos"
	"see/internal/graph"
	"see/internal/qnet"
	"see/internal/segment"
	"see/internal/state"
	"see/internal/topo"
	"see/internal/xrand"
)

// logTracer records every tracer call, durations excluded, plus the marks
// the fake engine's steps leave, so tests can check the frame's order.
type logTracer struct{ events []string }

func (t *logTracer) add(format string, args ...any) {
	t.events = append(t.events, fmt.Sprintf(format, args...))
}

func (t *logTracer) SlotStart(alg Algorithm)             { t.add("slot_start %v", alg) }
func (t *logTracer) PathPlanned(c, segs int)             { t.add("planned %d %d", c, segs) }
func (t *logTracer) PathProvisioned(c int)               { t.add("provisioned %d", c) }
func (t *logTracer) AttemptReserved(u, v, n int)         { t.add("reserved %d %d %d", u, v, n) }
func (t *logTracer) AttemptResolved(u, v int, ok bool)   { t.add("resolved %d %d %v", u, v, ok) }
func (t *logTracer) SwapResolved(j int, ok bool)         { t.add("swap %d %v", j, ok) }
func (t *logTracer) ConnectionAssembled(c int, ok bool)  { t.add("assembled %d %v", c, ok) }
func (t *logTracer) PhaseDone(ph Phase, _ time.Duration) { t.add("phase_done %v", ph) }
func (t *logTracer) Incident(k Incident, n int)          { t.add("incident %v %d", k, n) }
func (t *logTracer) SlotEnd(*SlotResult)                 { t.add("slot_end") }
func (t *logTracer) incidents(k Incident) (total, events int) {
	prefix := fmt.Sprintf("incident %v ", k)
	for _, e := range t.events {
		if n, ok := strings.CutPrefix(e, prefix); ok {
			var v int
			fmt.Sscan(n, &v)
			total += v
			events++
		}
	}
	return total, events
}

// frameNet is the motivation topology with room to spare: 4 channels per
// link and 10 memory units per node, so neither the brownout fixture nor
// the bank is starved by accident.
func frameNet() *topo.Network {
	net, _ := topo.Motivation()
	n := *net
	n.Channels = slices.Repeat([]int{4}, net.NumLinks())
	n.Memory = slices.Repeat([]int{10}, net.NumNodes())
	return &n
}

// linkCandidates returns one single-link candidate per physical link, in
// link-ID order.
func linkCandidates(net *topo.Network, prob float64) []*segment.Candidate {
	out := make([]*segment.Candidate, net.NumLinks())
	for u := 0; u < net.NumNodes(); u++ {
		for _, e := range net.G.Neighbors(u) {
			if u < e.To {
				out[e.ID] = &segment.Candidate{Path: graph.Path{u, e.To}, EdgeIDs: []int{e.ID}, Prob: prob}
			}
		}
	}
	return out
}

// fakeEngine is the smallest engine the frame can run: a fixed attempt
// plan and a stitch step the test supplies.
type fakeEngine struct {
	Frame
	cands  []*segment.Candidate
	plan   qnet.AttemptPlan
	tr     *logTracer
	stitch func(s *Slot, pool *qnet.Pool) []*qnet.Connection
	// withdrawn records len(Slot.Withdrawn) as the plan step saw it.
	withdrawn []int
}

func (e *fakeEngine) UpperBound() float64 { return 1.5 }

// resolve re-links a restored banked segment to the fake's candidates.
func (e *fakeEngine) resolve(a, b int, path []int) *segment.Candidate {
	for _, c := range e.cands {
		if slices.Equal(c.Path, path) {
			return c
		}
	}
	return nil
}

func newFake(net *topo.Network, opts EngineOptions, attempts int) *fakeEngine {
	tr := &logTracer{}
	if opts.Tracer == nil {
		opts.Tracer = tr
	}
	e := &fakeEngine{cands: linkCandidates(net, 0.9), plan: qnet.AttemptPlan{}, tr: tr}
	for _, c := range e.cands {
		e.plan[c] = attempts
	}
	e.Init(net, 2, opts, e.resolve, Steps{
		Bound: e.UpperBound,
		Plan: func(s *Slot) {
			e.tr.add("step plan")
			e.withdrawn = append(e.withdrawn, len(s.Withdrawn))
		},
		Reserve: func(*Slot) (qnet.AttemptPlan, qnet.AttemptPlan, error) {
			e.tr.add("step reserve")
			return e.plan, nil, nil
		},
		Stitch: func(s *Slot, pool *qnet.Pool) []*qnet.Connection {
			e.tr.add("step stitch")
			if e.stitch != nil {
				return e.stitch(s, pool)
			}
			return nil
		},
	})
	return e
}

func runSlots(t *testing.T, e Engine, rng *rand.Rand, slots int) []*SlotResult {
	t.Helper()
	var out []*SlotResult
	for s := 0; s < slots; s++ {
		res, err := e.RunSlot(rng)
		if err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
		out = append(out, res)
	}
	return out
}

// TestFrameAttributesFaultKinds pins the incident split: flap downs and
// brownout denials get their own kinds, and IncidentFault carries exactly
// the remaining physical-phase damage (blocked routes, decohered
// segments), never the outages BeginSlot counts.
func TestFrameAttributesFaultKinds(t *testing.T) {
	net := frameNet()
	// Node 0 is down throughout (blocks link 0's attempts), link 3 keeps
	// one of its 4 channels (two of its three attempts denied per slot),
	// and link 4 flaps down every other slot.
	plan, err := chaos.ParseSpec("seed=3;node=0@0-;brown:3,0.25@0-;flap:4,2,0.5@0-;decohere=0.2")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := chaos.NewInjector(plan, net)
	if err != nil {
		t.Fatal(err)
	}
	e := newFake(net, EngineOptions{Algorithm: Greedy, Chaos: inj}, 3)
	runSlots(t, e, xrand.New(1), 4)

	c := inj.Counts()
	fault, _ := e.tr.incidents(IncidentFault)
	flap, _ := e.tr.incidents(IncidentFlap)
	brown, _ := e.tr.incidents(IncidentBrownout)
	if want := c.PathsBlocked + c.RoutesBlocked + c.SegmentsDecohered; fault != want || want == 0 {
		t.Errorf("fault incidents %d, want %d (blocked + decohered, nonzero)", fault, want)
	}
	if flap != c.FlapSlotsDown || flap == 0 {
		t.Errorf("flap incidents %d, want %d (nonzero)", flap, c.FlapSlotsDown)
	}
	if brown != c.BrownoutAttemptsLost || brown == 0 {
		t.Errorf("brownout incidents %d, want %d (nonzero)", brown, c.BrownoutAttemptsLost)
	}
	if c.NodeSlotsDown == 0 {
		t.Error("fixture never took node 0 down")
	}
}

// TestFrameInertChaosReportsNothing: a zero-plan injector behaves like no
// injector — no fault incidents and the same slots.
func TestFrameInertChaosReportsNothing(t *testing.T) {
	net := frameNet()
	inj, err := chaos.NewInjector(&chaos.FaultPlan{}, net)
	if err != nil {
		t.Fatal(err)
	}
	with := newFake(net, EngineOptions{Chaos: inj}, 2)
	bare := newFake(net, EngineOptions{}, 2)
	a := runSlots(t, with, xrand.New(4), 3)
	b := runSlots(t, bare, xrand.New(4), 3)
	for i := range a {
		if a[i].SegmentsCreated != b[i].SegmentsCreated || a[i].Attempts != b[i].Attempts {
			t.Fatalf("slot %d: inert chaos changed the slot: %+v vs %+v", i, *a[i], *b[i])
		}
	}
	if !slices.Equal(with.tr.events, bare.tr.events) {
		t.Error("inert chaos changed the event stream")
	}
}

// TestFrameForecastAvoidEverySlot: a positive ForecastAvoided is reported
// once per slot, right after SlotStart; zero reports nothing.
func TestFrameForecastAvoidEverySlot(t *testing.T) {
	net := frameNet()
	e := newFake(net, EngineOptions{ForecastAvoided: 3}, 1)
	runSlots(t, e, xrand.New(2), 4)
	if total, events := e.tr.incidents(IncidentForecastAvoid); total != 12 || events != 4 {
		t.Errorf("forecast_avoid: %d over %d events, want 12 over 4", total, events)
	}
	if e.tr.events[1] != "incident forecast_avoid 3" {
		t.Errorf("second event %q, want the forecast incident", e.tr.events[1])
	}
	quiet := newFake(net, EngineOptions{}, 1)
	runSlots(t, quiet, xrand.New(2), 2)
	if _, events := quiet.tr.incidents(IncidentForecastAvoid); events != 0 {
		t.Errorf("forecast_avoid fired %d times with nothing avoided", events)
	}
}

// TestFrameNilBankUntouched: without a bank the frame withdraws nothing,
// deposits nothing, passes the engine's plan through untrimmed, and
// snapshots and restores a nil bank.
func TestFrameNilBankUntouched(t *testing.T) {
	net := frameNet()
	e := newFake(net, EngineOptions{Algorithm: Contend}, 2)
	res := runSlots(t, e, xrand.New(3), 3)
	if e.Bank() != nil {
		t.Fatal("Bank() non-nil without AttachBank")
	}
	for _, k := range []Incident{IncidentBankDecohered, IncidentBankWithdraw, IncidentBankDeposit} {
		if _, n := e.tr.incidents(k); n != 0 {
			t.Errorf("%v fired %d times without a bank", k, n)
		}
	}
	for i, n := range e.withdrawn {
		if n != 0 {
			t.Errorf("slot %d: plan step saw %d withdrawn segments", i, n)
		}
	}
	for i, r := range res {
		if r.Attempts != e.plan.TotalAttempts() {
			t.Errorf("slot %d: Attempts %d, want the untrimmed %d", i, r.Attempts, e.plan.TotalAttempts())
		}
	}
	st, err := e.EngineState()
	if err != nil {
		t.Fatal(err)
	}
	if st.Bank != nil || st.Chaos != nil || st.Algorithm != Contend {
		t.Errorf("EngineState = %+v, want Contend with nil bank and chaos", st)
	}
	if err := e.RestoreEngineState(st); err != nil {
		t.Fatal(err)
	}
}

// TestFrameDepositsAfterStitch: the bank receives exactly what the stitch
// step left in the pool, after the step ran and before the stitch phase
// closes; the next slot's plan step sees the survivors withdrawn.
func TestFrameDepositsAfterStitch(t *testing.T) {
	net := frameNet()
	e := newFake(net, EngineOptions{}, 2)
	bank := state.NewBank(net, state.Policy{CarrySlots: 2})
	e.AttachBank(bank)
	var left []int
	e.stitch = func(s *Slot, pool *qnet.Pool) []*qnet.Connection {
		// Consume one segment, then count what stays for the bank.
		for _, pk := range pool.Pairs() {
			if pool.Take(pk) != nil {
				break
			}
		}
		left = append(left, len(pool.Unconsumed()))
		return nil
	}
	runSlots(t, e, xrand.New(5), 1)
	st := bank.Stats()
	if st.Deposited+st.Rejected != left[0] || st.Deposited == 0 {
		t.Fatalf("bank took %d (+%d rejected), stitch left %d", st.Deposited, st.Rejected, left[0])
	}
	tail := e.tr.events[len(e.tr.events)-4:]
	want := []string{"step stitch", fmt.Sprintf("incident bank_deposit %d", st.Deposited), "phase_done stitch", "slot_end"}
	if !slices.Equal(tail, want) {
		t.Fatalf("slot ended %q, want %q", tail, want)
	}

	runSlots(t, e, xrand.New(6), 1)
	if e.withdrawn[1] != st.Deposited {
		t.Errorf("second slot's plan step saw %d withdrawn, want the %d deposited", e.withdrawn[1], st.Deposited)
	}
	if n, _ := e.tr.incidents(IncidentBankWithdraw); n != st.Deposited {
		t.Errorf("bank_withdraw reported %d, want %d", n, st.Deposited)
	}
}

// TestFrameAccountsConnections: valid connections land in the result's
// counters in order; an invalid one fails the slot before SlotEnd.
func TestFrameAccountsConnections(t *testing.T) {
	net := frameNet()
	e := newFake(net, EngineOptions{}, 3)
	e.stitch = func(s *Slot, pool *qnet.Pool) []*qnet.Connection {
		var out []*qnet.Connection
		for i, pk := range pool.Pairs() {
			if seg := pool.Take(pk); seg != nil {
				out = append(out, &qnet.Connection{Pair: i % 2, Nodes: graph.Path{pk.U, pk.V}, Segments: []*qnet.Segment{seg}})
			}
		}
		s.Result.Assembled = len(out)
		return out
	}
	res := runSlots(t, e, xrand.New(7), 1)[0]
	if res.Established == 0 || res.Established != len(res.Connections) ||
		res.PerPair[0]+res.PerPair[1] != res.Established || res.LPObjective != 1.5 {
		t.Fatalf("bad accounting: %+v", *res)
	}

	e.stitch = func(*Slot, *qnet.Pool) []*qnet.Connection {
		return []*qnet.Connection{{Pair: 0, Nodes: graph.Path{0, 2}}}
	}
	e.tr.events = nil
	if _, err := e.RunSlot(xrand.New(8)); err == nil || !strings.Contains(err.Error(), "invalid connection") {
		t.Fatalf("invalid connection: err = %v", err)
	}
	if slices.Contains(e.tr.events, "slot_end") {
		t.Error("a failed slot still reported SlotEnd")
	}
}

// TestFrameBareRunSkipsTracerWork: under a no-op tracer the frame installs
// no attempt observer and the slot is identical to a traced one.
func TestFrameBareRunSkipsTracerWork(t *testing.T) {
	net := frameNet()
	bare := newFake(net, EngineOptions{Tracer: NopTracer{}}, 2)
	var sawObserver bool
	bare.stitch = func(s *Slot, _ *qnet.Pool) []*qnet.Connection {
		sawObserver = s.Observe != nil || s.Traced
		return nil
	}
	traced := newFake(net, EngineOptions{}, 2)
	a := runSlots(t, bare, xrand.New(9), 2)
	b := runSlots(t, traced, xrand.New(9), 2)
	if sawObserver {
		t.Error("bare run installed tracer callbacks")
	}
	for i := range a {
		if a[i].SegmentsCreated != b[i].SegmentsCreated {
			t.Errorf("slot %d: bare %d created, traced %d", i, a[i].SegmentsCreated, b[i].SegmentsCreated)
		}
	}
	if n := strings.Count(strings.Join(traced.tr.events, "\n"), "phase_done"); n != 8 {
		t.Errorf("traced run reported %d phases over 2 slots, want 8", n)
	}
}

// TestFrameCheckpointRoundTrip: chaos phase and bank contents survive a
// snapshot into a fresh engine, and a snapshot from another scheme is
// refused.
func TestFrameCheckpointRoundTrip(t *testing.T) {
	net := frameNet()
	plan, err := chaos.ParseSpec("seed=5;flap:4,2,0.5@0-;decohere=0.1")
	if err != nil {
		t.Fatal(err)
	}
	build := func() *fakeEngine {
		inj, err := chaos.NewInjector(plan, net)
		if err != nil {
			t.Fatal(err)
		}
		e := newFake(net, EngineOptions{Algorithm: REPS, Chaos: inj}, 2)
		e.AttachBank(state.NewBank(net, state.Policy{CarrySlots: 2, Seed: 5}))
		return e
	}
	ref := build()
	runSlots(t, ref, xrand.New(11), 2)
	st, err := ref.EngineState()
	if err != nil {
		t.Fatal(err)
	}
	if st.Chaos == nil || st.Bank == nil || len(st.Bank.Entries) == 0 {
		t.Fatalf("snapshot misses state: %+v", st)
	}
	want := runSlots(t, ref, xrand.New(12), 2)

	resumed := build()
	if err := resumed.RestoreEngineState(st); err != nil {
		t.Fatal(err)
	}
	got := runSlots(t, resumed, xrand.New(12), 2)
	for i := range want {
		if got[i].SegmentsCreated != want[i].SegmentsCreated || got[i].Attempts != want[i].Attempts {
			t.Errorf("resumed slot %d diverged: %+v vs %+v", i, *got[i], *want[i])
		}
	}

	other := newFake(net, EngineOptions{Algorithm: SEE}, 1)
	if err := other.RestoreEngineState(st); err == nil {
		t.Error("SEE frame accepted REPS state")
	}
	if err := build().RestoreEngineState(&EngineState{Algorithm: REPS, Bank: &state.BankState{
		Entries: []state.BankedSegment{{A: 0, B: 1, Path: []int{0, 1}}},
	}}); err == nil {
		t.Error("restore accepted a banked segment with no matching candidate")
	}
}

// TestStitchFixed drives the fixed-path steps: plan and reserve report the
// paths, the stitch assembles up to each pair's cap and retries on spare
// segments, and a floor no composition can meet kills the path after one
// rejection.
func TestStitchFixed(t *testing.T) {
	net := frameNet()
	cands := linkCandidates(net, 1)
	c := cands[0] // node 0 — node 2
	paths := []FixedPath{{Commodity: 0, Nodes: graph.Path{c.Path[0], c.Path[1]}, Hops: []FixedHop{{Pair: segment.MakePairKey(c.U(), c.V())}}}}
	run := func(floors *qnet.FloorSpec) (*SlotResult, *logTracer) {
		tr := &logTracer{}
		var f Frame
		f.Init(net, 2, EngineOptions{Algorithm: Greedy, Tracer: tr, FidelityFloors: floors}, nil,
			FixedSteps(func() float64 { return 0.5 }, paths, qnet.AttemptPlan{c: 5}, qnet.AttemptPlan{cands[1]: 1}, []int{2, 2}))
		res, err := f.RunSlot(xrand.New(13))
		if err != nil {
			t.Fatal(err)
		}
		return res, tr
	}

	res, tr := run(nil)
	if res.PlannedPaths != 1 || res.ProvisionedPaths != 1 || res.Attempts != 6 {
		t.Errorf("planned/provisioned/attempts = %d/%d/%d, want 1/1/6", res.PlannedPaths, res.ProvisionedPaths, res.Attempts)
	}
	if res.Established != 2 || res.Assembled != 2 || res.PerPair[0] != 2 {
		t.Errorf("established %d assembled %d, want both at the cap of 2", res.Established, res.Assembled)
	}
	for _, want := range []string{"planned 0 1", "provisioned 0", fmt.Sprintf("reserved %d %d 5", c.U(), c.V()),
		fmt.Sprintf("reserved %d %d 1", cands[1].U(), cands[1].V())} {
		if !slices.Contains(tr.events, want) {
			t.Errorf("missing event %q", want)
		}
	}

	res, tr = run(&qnet.FloorSpec{Default: 0.99999})
	if res.FloorRejected != 1 || res.Assembled != 0 || res.Established != 0 {
		t.Errorf("floored: rejected %d assembled %d established %d, want 1/0/0", res.FloorRejected, res.Assembled, res.Established)
	}
	if n, events := tr.incidents(IncidentFloorReject); n != 1 || events != 1 {
		t.Errorf("floor_reject reported %d over %d events, want 1 once", n, events)
	}
}
