package ckpt

import (
	"reflect"
	"testing"

	"see/internal/sched"
)

// FuzzDecodeEngineState checks the engine-state decoder on arbitrary
// input: it must never panic, and any payload it accepts must survive an
// encode→decode round trip unchanged. The committed corpus holds every
// registered engine's state from the schedtest checkpoint protocol (chaos
// phase plus bank contents), the resilient wrapper's nested state, and
// truncated copies of each (see schedtest's TestEngineStateCorpus).
func FuzzDecodeEngineState(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeEngineState(nil))
	f.Add(EncodeEngineState(&sched.EngineState{Algorithm: sched.REPS}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		st, err := DecodeEngineState(raw)
		if err != nil {
			return
		}
		again, err := DecodeEngineState(EncodeEngineState(st))
		if err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		if !reflect.DeepEqual(st, again) {
			t.Fatalf("round trip changed the state:\n got %+v\nwant %+v", again, st)
		}
	})
}
