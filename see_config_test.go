package see

import (
	"math"
	"reflect"
	"testing"
	"time"

	"see/internal/chaos"
	"see/internal/engines"
	"see/internal/sched"
	"see/internal/topo"
)

// rawPairs converts public SD pairs to the internal form engines.New takes.
func rawPairs(pairs []SDPair) []topo.SDPair {
	raw := make([]topo.SDPair, len(pairs))
	for i, p := range pairs {
		raw[i] = topo.SDPair{S: p.S, D: p.D}
	}
	return raw
}

// TestInvalidOptionsRejectedEverywhere feeds the same bad knob values to
// every entry point that accepts scheduler options — engines.New,
// NewScheduler and RunExperiment — and expects each to refuse them before
// any slot runs.
func TestInvalidOptionsRejectedEverywhere(t *testing.T) {
	net, pairs, err := GenerateNetwork(NetworkConfig{Nodes: 20}, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := chaos.NewInjector(&FaultPlan{Seed: 1}, net.inner)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts SchedulerOptions
	}{
		{"unknown swap order", SchedulerOptions{SwapOrder: SwapOrder(9)}},
		{"floor above one", SchedulerOptions{FidelityFloors: &FloorSpec{Default: 1.5}}},
		{"NaN floor", SchedulerOptions{FidelityFloors: &FloorSpec{Default: math.NaN()}}},
		{"negative pair floor", SchedulerOptions{FidelityFloors: &FloorSpec{PerPair: map[int]float64{1: -0.1}}}},
		{"negative KPaths", SchedulerOptions{KPaths: -3}},
		{"negative MaxSegmentHops", SchedulerOptions{MaxSegmentHops: -1}},
		{"negative Workers", SchedulerOptions{Workers: -1}},
		{"negative SlotBudget", SchedulerOptions{SlotBudget: -time.Nanosecond}},
		{"negative CarrySlots", SchedulerOptions{CarrySlots: -1}},
		{"Faults and Chaos", SchedulerOptions{Faults: &FaultPlan{Seed: 1}, Chaos: inj}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.opts.Validate(); err == nil {
				t.Error("Validate accepted")
			}
			if _, err := engines.New(SEE, net.inner, rawPairs(pairs), tc.opts); err == nil {
				t.Error("engines.New accepted")
			}
			if _, err := NewScheduler(SEE, net, pairs, &tc.opts); err == nil {
				t.Error("NewScheduler accepted")
			}
			p := ExperimentParams{Nodes: 20, SDPairs: 3, Trials: 1, Seed: 5, SchedulerOptions: tc.opts}
			if _, err := RunExperiment(p); err == nil {
				t.Error("RunExperiment accepted")
			}
		})
	}
}

// TestEntryPointsAgree builds every registered engine through
// NewScheduler and through engines.New from one config that exercises the
// whole assembly — a fault plan with decoherence, a two-slot carry bank
// with Werner aging, a fidelity floor and a slot budget — and expects the
// two schedulers to produce identical slots and identical bank tallies.
func TestEntryPointsAgree(t *testing.T) {
	net, pairs, err := GenerateNetwork(NetworkConfig{Nodes: 40}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParseFaultSpec("seed=17;link=2@1-3;loss=0.05;decohere=0.1")
	if err != nil {
		t.Fatal(err)
	}
	opts := SchedulerOptions{
		Workers:              1,
		Faults:               plan,
		SlotBudget:           time.Minute,
		CarrySlots:           2,
		CarryWernerRetention: 0.9,
		FidelityFloors:       &FloorSpec{Default: 0.6},
	}
	for _, alg := range engines.List() {
		t.Run(alg.String(), func(t *testing.T) {
			pub, err := NewScheduler(alg, net, pairs, &opts)
			if err != nil {
				t.Fatal(err)
			}
			inner, err := engines.New(alg, net.inner, rawPairs(pairs), opts)
			if err != nil {
				t.Fatal(err)
			}
			a, b := runSlots(t, pub, 23, 6), runSlots(t, inner, 23, 6)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("slot results differ:\n%+v\nvs\n%+v", a, b)
			}
			sa, sb := SchedulerCarryStats(pub), SchedulerCarryStats(inner)
			if sa != sb {
				t.Fatalf("carry stats differ: %+v vs %+v", sa, sb)
			}
			if st, ok := pub.(sched.Stateful); !ok || st.Bank() == nil {
				t.Error("CarrySlots attached no bank")
			}
		})
	}
}
