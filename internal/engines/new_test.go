package engines

import (
	"math"
	"reflect"
	"testing"
	"time"

	"see/internal/chaos"
	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/state"
	"see/internal/topo"
	"see/internal/xrand"
)

// TestValidateRejects covers every check of Config.Validate: each bad
// value is refused by Validate and by New before anything is built.
func TestValidateRejects(t *testing.T) {
	net, pairs := topo.Motivation()
	inj, err := chaos.NewInjector(nil, net)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"negative KPaths", Config{KPaths: -3}},
		{"negative MaxSegmentHops", Config{MaxSegmentHops: -1}},
		{"MinSegmentProb above one", Config{MinSegmentProb: 2}},
		{"NaN MinSegmentProb", Config{MinSegmentProb: math.NaN()}},
		{"negative Workers", Config{Workers: -1}},
		{"Faults and Chaos", Config{Faults: &chaos.FaultPlan{}, Chaos: inj}},
		{"negative SlotBudget", Config{SlotBudget: -time.Nanosecond}},
		{"negative CarrySlots", Config{CarrySlots: -1}},
		{"negative retention", Config{CarryWernerRetention: -0.5}},
		{"NaN retention", Config{CarryWernerRetention: math.NaN()}},
		{"NaN min scale", Config{CarryMinWernerScale: math.NaN()}},
		{"unknown swap order", Config{SwapOrder: qnet.SwapOrder(9)}},
		{"floor above one", Config{FidelityFloors: &qnet.FloorSpec{Default: 1.5}}},
		{"NaN floor", Config{FidelityFloors: &qnet.FloorSpec{Default: math.NaN()}}},
		{"negative pair floor", Config{FidelityFloors: &qnet.FloorSpec{PerPair: map[int]float64{0: -0.1}}}},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", tc.name)
		}
		if _, err := New(sched.Greedy, net, pairs, tc.cfg); err == nil {
			t.Errorf("%s: New accepted", tc.name)
		}
	}
	good := Config{
		KPaths: 2, MaxSegmentHops: 3, MinSegmentProb: 0.1, Workers: 1,
		Faults: &chaos.FaultPlan{}, SlotBudget: time.Second, CarrySlots: 2,
		CarryWernerRetention: 0.9, CarryMinWernerScale: 0.5,
		SwapOrder: qnet.SwapOrderGreedy, FidelityFloors: &qnet.FloorSpec{Default: 0.6, PerPair: map[int]float64{1: 1}},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestNewAssembly checks what New builds around the engine: the ladder
// only with a slot budget, a bank only with a carry window — its policy
// taking the window and aging knobs from the config and the hazard and
// seed from the fault plan — and the bare NewCtx engine otherwise.
func TestNewAssembly(t *testing.T) {
	net, pairs := topo.Motivation()
	plan := &chaos.FaultPlan{Seed: 41, Decoherence: 0.2}

	bare, err := New(sched.SEE, net, pairs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := NewCtx(nil, sched.SEE, net, pairs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.TypeOf(bare) != reflect.TypeOf(raw) {
		t.Errorf("bare New built %T, NewCtx %T", bare, raw)
	}
	if b := bare.(sched.Stateful).Bank(); b != nil {
		t.Error("New attached a bank without CarrySlots")
	}

	laddered, err := New(sched.SEE, net, pairs, Config{SlotBudget: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := laddered.(*Resilient); !ok {
		t.Errorf("SlotBudget built %T, want *Resilient", laddered)
	}

	banked, err := New(sched.Greedy, net, pairs, Config{
		Faults: plan, CarrySlots: 3, CarryWernerRetention: 0.9, CarryMinWernerScale: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	bank := banked.(sched.Stateful).Bank()
	if bank == nil {
		t.Fatal("CarrySlots attached no bank")
	}
	want := state.Policy{CarrySlots: 3, Decoherence: 0.2, Seed: 41, WernerRetention: 0.9, MinWernerScale: 0.4}
	if got := bank.Policy(); got != want {
		t.Errorf("bank policy %+v, want %+v", got, want)
	}

	if _, err := New(sched.SEE, net, pairs, Config{Faults: &chaos.FaultPlan{NodeOutages: []chaos.Window{{ID: 99}}}}); err == nil {
		t.Error("New accepted a fault plan naming a missing node")
	}
	if _, err := New(sched.SEE, nil, pairs, Config{}); err == nil {
		t.Error("New accepted a nil network")
	}
}

// TestNewFreshInjectorPerCall builds the same faulted config twice: each
// scheduler must get its own injector, so running one does not advance the
// other's fault stream and both replay the same slots.
func TestNewFreshInjectorPerCall(t *testing.T) {
	cfg := topo.DefaultConfig()
	cfg.Nodes = 30
	net, err := topo.Generate(cfg, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	pairs := topo.ChooseSDPairs(net, 4, xrand.New(9))
	plan, err := chaos.ParseSpec("seed=3;link=1@0-;loss=0.1;decohere=0.2")
	if err != nil {
		t.Fatal(err)
	}
	c := Config{Faults: plan, CarrySlots: 2}
	first := runSlots(t, sched.Greedy, net, pairs, c, 4)
	second := runSlots(t, sched.Greedy, net, pairs, c, 4)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("two schedulers from one fault plan diverged: they share injector state")
	}
}

// TestResilientCarriesBankAcrossResume drives a budget-starved ladder with
// a carry bank: the bank New attaches must reach the greedy fallback, and
// a checkpoint taken mid-run must restore into a freshly built scheduler
// that then replays the original's slots exactly.
func TestResilientCarriesBankAcrossResume(t *testing.T) {
	cfg := topo.DefaultConfig()
	cfg.Nodes = 30
	net, err := topo.Generate(cfg, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	pairs := topo.ChooseSDPairs(net, 4, xrand.New(9))
	c := Config{Faults: &chaos.FaultPlan{Seed: 5, Decoherence: 0.1}, SlotBudget: time.Nanosecond, CarrySlots: 2, Workers: 1}
	build := func() sched.Engine {
		eng, err := New(sched.SEE, net, pairs, c)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	run := func(eng sched.Engine, seed int64, n int) []sched.SlotResult {
		rng := xrand.New(seed)
		var out []sched.SlotResult
		for s := 0; s < n; s++ {
			res, err := eng.RunSlot(rng)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, *res)
		}
		return out
	}
	orig := build()
	run(orig, 1, 3)
	r := orig.(*Resilient)
	if degraded, _ := r.Degraded(); !degraded {
		t.Fatal("a 1ns budget did not degrade the ladder")
	}
	if st := r.Bank().Stats(); st.Deposited == 0 {
		t.Errorf("the fallback never banked a segment: %+v", st)
	}
	snap, err := r.EngineState()
	if err != nil {
		t.Fatal(err)
	}
	resumed := build().(*Resilient)
	if err := resumed.RestoreEngineState(snap); err != nil {
		t.Fatal(err)
	}
	if a, b := run(orig, 2, 3), run(resumed, 2, 3); !reflect.DeepEqual(a, b) {
		t.Fatalf("resumed ladder diverged:\n%+v\nvs\n%+v", a, b)
	}
	if a, b := r.Bank().Stats(), resumed.Bank().Stats(); a != b {
		t.Errorf("bank tallies differ after resume: %+v vs %+v", a, b)
	}
}
