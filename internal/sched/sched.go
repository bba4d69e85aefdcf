// Package sched defines the common slot pipeline shared by every
// entanglement-establishment engine in the repository. Every scheme — the
// paper's evaluation trio (SEE, REPS, E2E) and the repo-grown baselines —
// runs the same four conceptual phases each time slot:
//
//	plan     — identify entanglement paths (EPI / LP rounding)
//	reserve  — reserve channels and memory for creation attempts (ESC /
//	           REPS provisioning)
//	physical — perform the stochastic segment-creation attempts
//	stitch   — assemble realized segments into connections and sample the
//	           quantum swaps (ECE / EPS)
//
// The package gives them one Engine interface, one canonical SlotResult,
// a Tracer hook with per-phase callbacks so callers can observe where
// throughput is lost (attempts reserved vs. segments created vs. swaps
// survived) without reaching into engine internals, and the Frame that
// runs those phases: engines embed it and supply only their own steps
// (see Steps). Engines live in internal/core (SEE, SEE-Aware, E2E),
// internal/reps, internal/greedy, internal/contend (Contend,
// Contend-Aware, QPass) and internal/oracle; the factory that builds one
// by Algorithm is internal/engines.
package sched

import (
	"fmt"
	"math/rand"
	"strings"

	"see/internal/qnet"
	"see/internal/state"
)

// Algorithm identifies an entanglement-establishment scheme.
type Algorithm int

// The schemes compared in the paper's evaluation (§IV).
const (
	// SEE integrates all-optical switching with quantum swapping (the
	// paper's contribution).
	SEE Algorithm = iota
	// REPS uses entanglement links only (Zhao & Qiao, INFOCOM 2021).
	REPS
	// E2E uses all-optical switching only: one segment per connection.
	E2E
	// Greedy is the non-LP baseline (NIST-style greedy provisioning): it
	// plans paths by repeated shortest-path on the segment graph and
	// reserves resources first-come-first-served, with no optimization.
	// It doubles as the degradation target when an LP solve blows its
	// slot budget (see internal/engines.NewResilient).
	Greedy
	// Contend is the contention-aware routing baseline in the Q-CAST
	// spirit (Shi & Qian, SIGCOMM 2020): per-pair candidate paths are
	// scored by an expected-throughput metric and selected best-first
	// with explicit contention accounting against residual channels and
	// memory, plus recovery-path fallback in the physical phase (see
	// internal/contend).
	Contend
	// QPass is the offline-routing contrast baseline in the Q-PASS spirit
	// (Shi & Qian, SIGCOMM 2020): candidate paths are fixed against the
	// fault-free topology, scored offline, and provisioned with per-hop
	// recovery attempts reserved up front; the plan never adapts to
	// residual capacities or to the fault forecast (see internal/contend's
	// offline mode).
	QPass
	// ContendAware is Contend with fault-forecast subtraction: announced
	// outages zero and announced brownouts shrink the residual channel and
	// memory capacities before candidate paths are scored (see
	// chaos.Forecast and DESIGN.md §5c).
	ContendAware
	// SEEAware is SEE with fault-forecast subtraction: forecast-dead links
	// are dropped from LP column pricing and announced capacity reductions
	// shrink the provisioning tables.
	SEEAware
	// Oracle is the capacity-bound oracle: it establishes nothing and
	// consumes no randomness, instead computing per-pair entanglement-
	// capacity upper bounds from the topology (min-cut over channel
	// capacities and expected link rates; see internal/oracle) so sweeps
	// can report every engine's throughput as a fraction of what the
	// network could theoretically deliver.
	Oracle
)

// Algorithms lists the paper's schemes in display order. Greedy and
// Contend are repo-grown baselines, selectable by name but not part of
// the paper's evaluation trio.
var Algorithms = []Algorithm{SEE, REPS, E2E}

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case SEE:
		return "SEE"
	case REPS:
		return "REPS"
	case E2E:
		return "E2E"
	case Greedy:
		return "Greedy"
	case Contend:
		return "Contend"
	case QPass:
		return "QPass"
	case ContendAware:
		return "Contend-Aware"
	case SEEAware:
		return "SEE-Aware"
	case Oracle:
		return "Oracle"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm maps a case-insensitive scheme name ("see", "reps",
// "e2e", "greedy", "contend", "qpass", "contend-aware", "see-aware",
// "oracle") to its Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(s) {
	case "see":
		return SEE, nil
	case "reps":
		return REPS, nil
	case "e2e":
		return E2E, nil
	case "greedy":
		return Greedy, nil
	case "contend":
		return Contend, nil
	case "qpass":
		return QPass, nil
	case "contend-aware":
		return ContendAware, nil
	case "see-aware":
		return SEEAware, nil
	case "oracle":
		return Oracle, nil
	default:
		return 0, fmt.Errorf("sched: unknown algorithm %q (want see, reps, e2e, greedy, contend, qpass, contend-aware, see-aware or oracle)", s)
	}
}

// FaultAware reports whether the scheme subtracts the announced fault
// forecast from its planning capacities.
func (a Algorithm) FaultAware() bool { return a == SEEAware || a == ContendAware }

// FaultAwareVariant returns the forecast-aware twin of a scheme and true,
// or the scheme unchanged and false when no aware variant is registered
// (REPS, E2E, Greedy and QPass plan fault-blind by design).
func (a Algorithm) FaultAwareVariant() (Algorithm, bool) {
	switch a {
	case SEE:
		return SEEAware, true
	case Contend:
		return ContendAware, true
	case SEEAware, ContendAware:
		return a, true
	}
	return a, false
}

// SlotResult is the canonical report of one simulated time slot, shared by
// every engine. Phases an engine does not run per slot leave their fields
// zero (REPS provisions once at construction, so it reports
// PlannedPaths = ProvisionedPaths = 0).
type SlotResult struct {
	// LPObjective is the engine's fractional planning optimum (identical
	// across slots; also exposed as Engine.UpperBound).
	LPObjective float64
	// PlannedPaths is |T|: entanglement paths identified by the plan phase.
	PlannedPaths int
	// ProvisionedPaths is |D|: paths for which the reserve phase secured
	// full resources.
	ProvisionedPaths int
	// Attempts is the total number of segment-creation attempts reserved.
	Attempts int
	// SegmentsCreated is how many attempts succeeded in the physical phase
	// (for REPS these are entanglement links, i.e. single-hop segments).
	SegmentsCreated int
	// Assembled counts connection-assembly attempts in the stitch phase
	// (each consumes one realized segment per hop; swap failures make
	// Assembled > Established).
	Assembled int
	// Established is the throughput: connections whose swaps all succeeded.
	Established int
	// FloorRejected counts candidate assemblies the stitch phase refused
	// because their predicted end-to-end fidelity missed the request's
	// floor (zero when no fidelity floors are configured).
	FloorRejected int
	// PerPair is the established count per SD pair.
	PerPair []int
	// Connections lists the established connections.
	Connections []*qnet.Connection
}

// Engine runs time slots of one entanglement-establishment scheme over a
// fixed network and demand set. All engines are deterministic functions of
// the rng state passed to RunSlot.
type Engine interface {
	// Algorithm identifies the scheme.
	Algorithm() Algorithm
	// RunSlot simulates one time slot; the rng drives all stochastic
	// outcomes, so a fixed generator state reproduces the slot.
	RunSlot(rng *rand.Rand) (*SlotResult, error)
	// UpperBound returns the engine's LP planning value. For the default
	// swap-survival-weighted objective this bounds the expected
	// single-pass throughput; retry-based establishment (backed by
	// redundant segments) can deliver somewhat more.
	UpperBound() float64
}

// Stateful is the optional cross-slot state capability (see internal/state
// and DESIGN.md §6). An engine implementing it can carry
// realized-but-unconsumed entanglement segments across slot boundaries
// through an attached state.Bank: it withdraws surviving segments before
// planning each slot (reducing that slot's reservation demand) and
// deposits the slot's surplus at the end.
//
// The capability is strictly opt-in: with no bank attached (Bank() == nil)
// a Stateful engine must be byte-identical to one without the capability,
// the same contract zero fault plans honor. Attach a bank before the first
// RunSlot and never swap it mid-run. Frame implements the interface for
// every engine that embeds it; the oracle and the resilient wrapper in
// internal/engines implement it themselves.
type Stateful interface {
	Engine
	// AttachBank installs the cross-slot segment bank (nil detaches).
	AttachBank(b *state.Bank)
	// Bank returns the attached bank, or nil when carry-over is disabled.
	Bank() *state.Bank
}
