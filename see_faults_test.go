package see

import (
	"reflect"
	"testing"
	"time"

	"see/internal/xrand"
)

// TestFaultsZeroPlanIdentical checks the public determinism contract: a
// scheduler built with an explicit zero FaultPlan is byte-identical to one
// built without the fault layer, for every algorithm including Greedy.
func TestFaultsZeroPlanIdentical(t *testing.T) {
	net, pairs, err := GenerateNetwork(NetworkConfig{Nodes: 40}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range append(append([]Algorithm(nil), Algorithms...), Greedy) {
		t.Run(alg.String(), func(t *testing.T) {
			run := func(opts *SchedulerOptions) []SlotResult {
				sc, err := NewScheduler(alg, net, pairs, opts)
				if err != nil {
					t.Fatal(err)
				}
				rng := xrand.New(77)
				var out []SlotResult
				for s := 0; s < 5; s++ {
					res, err := sc.RunSlot(rng)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, *res)
				}
				return out
			}
			plain := run(nil)
			zero := run(&SchedulerOptions{Faults: &FaultPlan{}})
			if !reflect.DeepEqual(plain, zero) {
				t.Fatalf("zero fault plan changed results:\n%+v\nvs\n%+v", plain, zero)
			}
		})
	}
}

// TestSlotBudgetDegrades forces degradation through the public API: an
// impossible budget must still complete slots with attempted paths, and
// the tracer must count every degraded slot.
func TestSlotBudgetDegrades(t *testing.T) {
	net, pairs, err := GenerateNetwork(NetworkConfig{Nodes: 40}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewCountingTracer()
	sc, err := NewScheduler(SEE, net, pairs, &SchedulerOptions{
		SlotBudget: time.Nanosecond,
		Tracer:     tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(9)
	attempts := 0
	const slots = 3
	for s := 0; s < slots; s++ {
		res, err := sc.RunSlot(rng)
		if err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
		attempts += res.Attempts
	}
	if attempts == 0 {
		t.Error("degraded slots attempted no paths")
	}
	if got := tr.Counts().IncidentCount(IncidentDegraded); got != slots {
		t.Errorf("degraded incidents = %d, want %d", got, slots)
	}
}

// TestFaultSpecParsingAndValidation exercises ParseFaultSpec and the
// network-bound validation inside NewScheduler.
func TestFaultSpecParsingAndValidation(t *testing.T) {
	plan, err := ParseFaultSpec("seed=7;node=3@2-5;loss=0.05")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 7 || plan.MsgLoss != 0.05 || len(plan.NodeOutages) != 1 {
		t.Fatalf("parsed plan wrong: %+v", plan)
	}
	if _, err := ParseFaultSpec("loss=nope"); err == nil {
		t.Error("bad spec accepted")
	}
	// A plan referencing a node the network does not have must be rejected
	// at scheduler construction.
	net, pairs := MotivationNetwork()
	bad, err := ParseFaultSpec("node=999@0-")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewScheduler(SEE, net, pairs, &SchedulerOptions{Faults: bad}); err == nil {
		t.Error("out-of-range fault plan accepted")
	}
}

// TestExperimentWithFaultsDeterministic runs the experiment harness with a
// fault plan twice (different worker counts) and expects identical numbers:
// every engine gets its own injector, so concurrency cannot leak between
// fault streams.
func TestExperimentWithFaultsDeterministic(t *testing.T) {
	plan, err := ParseFaultSpec("seed=5;node=2@0-;decohere=0.1")
	if err != nil {
		t.Fatal(err)
	}
	base := ExperimentParams{Nodes: 30, SDPairs: 4, Trials: 3, Seed: 11, SchedulerOptions: SchedulerOptions{Faults: plan}}
	r1, err := RunExperiment(base)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunExperiment(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms {
		if r1[alg].MeanThroughput != r2[alg].MeanThroughput {
			t.Errorf("%v: faulty experiment not deterministic: %v vs %v",
				alg, r1[alg].MeanThroughput, r2[alg].MeanThroughput)
		}
	}
}
