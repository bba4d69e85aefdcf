package schedtest

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"see/internal/chaos"
	"see/internal/engines"
	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/state"
)

// update regenerates the event-stream files instead of comparing against
// them:
//
//	go test ./internal/sched/schedtest -run TestEventStream -update
var update = flag.Bool("update", false, "rewrite the testdata/events files with current output")

// eventFaultSpec is a correlated fault plan touching every fault kind the
// slot attributes: an announced node outage (so the aware planners report
// forecast_avoid), a disc cut, a brownout and a flapping link.
const eventFaultSpec = "seed=7;cut:5000,5000,2500@1-2;brown:1,0.5@0-;flap:2,3,0.67@0-;node=!4@3-4"

// streamTracer renders every Tracer call except phase durations as one
// line, so the whole slot pipeline's observable order is diffable text.
type streamTracer struct{ b strings.Builder }

var _ sched.Tracer = (*streamTracer)(nil)

func (t *streamTracer) line(format string, args ...any) {
	fmt.Fprintf(&t.b, format+"\n", args...)
}

func (t *streamTracer) SlotStart(alg sched.Algorithm) { t.line("slot_start %v", alg) }
func (t *streamTracer) PathPlanned(commodity, segments int) {
	t.line("planned %d %d", commodity, segments)
}
func (t *streamTracer) PathProvisioned(commodity int)             { t.line("provisioned %d", commodity) }
func (t *streamTracer) AttemptReserved(u, v, count int)           { t.line("reserved %d %d %d", u, v, count) }
func (t *streamTracer) AttemptResolved(u, v int, ok bool)         { t.line("resolved %d %d %v", u, v, ok) }
func (t *streamTracer) SwapResolved(junction int, ok bool)        { t.line("swap %d %v", junction, ok) }
func (t *streamTracer) ConnectionAssembled(c int, ok bool)        { t.line("assembled %d %v", c, ok) }
func (t *streamTracer) PhaseDone(ph sched.Phase, _ time.Duration) { t.line("phase_done %v", ph) }
func (t *streamTracer) Incident(kind sched.Incident, n int)       { t.line("incident %v %d", kind, n) }
func (t *streamTracer) SlotEnd(res *sched.SlotResult) {
	t.line("slot_end lp=%.6g planned=%d provisioned=%d attempts=%d created=%d assembled=%d established=%d floor_rejected=%d per_pair=%v",
		res.LPObjective, res.PlannedPaths, res.ProvisionedPaths, res.Attempts, res.SegmentsCreated,
		res.Assembled, res.Established, res.FloorRejected, res.PerPair)
}

// TestEventStream pins the exact tracer event stream of every registered
// engine — call kinds, arguments and phase order — on one small instance
// with correlated faults, cross-slot carry and fidelity floors live. The
// SlotResult invariants cover what a slot delivers; this covers the order
// in which the pipeline reports it, which a refactor of the slot skeleton
// must leave untouched.
func TestEventStream(t *testing.T) {
	// The instance seed is one where, between them, the engines hit every
	// incident kind the slot reports: fault, flap, brownout, recovery,
	// forecast_avoid, floor_reject and all three bank events.
	net, pairs, err := Instance(30, 5, testSeed+63)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := chaos.ParseSpec(eventFaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	forEachEngine(t, func(t *testing.T, alg sched.Algorithm) {
		inj, err := chaos.NewInjector(plan, net)
		if err != nil {
			t.Fatal(err)
		}
		tr := &streamTracer{}
		eng, err := engines.New(alg, net, pairs, engines.Config{
			Tracer:         tr,
			Chaos:          inj,
			FidelityFloors: &qnet.FloorSpec{Default: 0.6},
			Workers:        1,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.(sched.Stateful).AttachBank(state.NewBank(net, state.Policy{CarrySlots: 2, Seed: plan.Seed}))
		if _, err := Run(eng, 41, 6); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "events", strings.ToLower(alg.String())+".txt")
		got := tr.b.String()
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing event file (run with -update to create): %v", err)
		}
		if got != string(want) {
			t.Errorf("event stream drifted from %s (run with -update if intended); first difference at line %d",
				path, firstDiffLine(got, string(want)))
		}
	})
}

// firstDiffLine returns the 1-based number of the first line where a and
// b differ.
func firstDiffLine(a, b string) int {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(la), len(lb)) {
		if la[i] != lb[i] {
			return i + 1
		}
	}
	return min(len(la), len(lb)) + 1
}
