package sched

import (
	"fmt"

	"see/internal/chaos"
	"see/internal/state"
)

// EngineState is the serializable cross-slot state of an engine: everything
// a fresh, identically configured engine needs to continue a run
// byte-identically. Engines rebuild their candidate catalogues, LP
// solutions and cached plans deterministically from configuration, so only
// the genuinely mutable pieces appear here — the chaos injector's phase,
// the segment bank's contents, and (for the resilient wrapper) the
// degradation ladder's position plus the wrapped engine's state.
//
// Fields an engine does not use stay nil, and a freshly constructed engine
// produces exactly the state a restore expects before the first slot
// (nil chaos phase, nil bank contents), so "snapshot at slot 0" and "no
// snapshot" are interchangeable.
type EngineState struct {
	// Algorithm guards against restoring into a differently configured
	// engine; Restore rejects a mismatch.
	Algorithm Algorithm `json:"algorithm"`
	// Chaos is the fault injector's phase (nil when chaos is inert).
	Chaos *chaos.InjectorState `json:"chaos,omitempty"`
	// Bank is the cross-slot segment bank (nil when carry-over is off).
	Bank *state.BankState `json:"bank,omitempty"`
	// Ladder is the resilient wrapper's degradation position (nil for bare
	// engines).
	Ladder *LadderState `json:"ladder,omitempty"`
	// Inner is the wrapped engine's state (resilient wrapper only).
	Inner *EngineState `json:"inner,omitempty"`
}

// LadderState is the degradation ladder's serializable position (see
// engines.Resilient): how many budgeted constructions have failed and which
// engines exist. Restore rebuilds the same engines — the primary without a
// wall-clock budget, since its LP construction is deterministic and already
// succeeded once.
type LadderState struct {
	Failures      int  `json:"failures"`
	PrimaryBuilt  bool `json:"primary_built"`
	FallbackBuilt bool `json:"fallback_built"`
}

// Checkpointable is the optional snapshot/restore capability, the
// checkpoint sibling of Stateful. An engine implementing it can export its
// cross-slot state between slots and later have an identically configured
// fresh engine resume from it, producing byte-identical remaining slots
// (the engine rng is checkpointed separately, as an xrand cursor, by the
// layer that owns it).
//
// Both methods are valid only at slot boundaries — never mid-RunSlot. All
// registered engines plus the resilient wrapper implement the interface,
// most of them through the Frame they embed.
type Checkpointable interface {
	Engine
	// EngineState snapshots the engine's cross-slot state.
	EngineState() (*EngineState, error)
	// RestoreEngineState rewinds the engine to a snapshot taken from an
	// identically configured engine. Restoring nil resets to the
	// pre-first-slot state.
	RestoreEngineState(*EngineState) error
}

// CheckRestoreAlgorithm is the shared guard engines call first in
// RestoreEngineState: a snapshot from a different scheme is a configuration
// mismatch, never a silent reinterpretation.
func CheckRestoreAlgorithm(got Algorithm, st *EngineState) error {
	if st != nil && st.Algorithm != got {
		return fmt.Errorf("sched: restoring %v state into a %v engine", st.Algorithm, got)
	}
	return nil
}
