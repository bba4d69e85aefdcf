package ckpt

import (
	"encoding/binary"
	"hash/crc32"
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

// FuzzDecode checks the container decoder on arbitrary input: it must
// never panic, every rejection must be a corrupt-checkpoint error, and any
// snapshot it accepts must re-encode and decode to an equal snapshot. The
// committed corpus holds real service-mode checkpoints (seesim -serve
// -ckpt-dir, SEE plain and REPS with carry-over, faults and a fidelity
// floor), their truncations, a copy with a flipped byte, and a copy whose
// first section repeats under a valid checksum. Mutated input almost never
// keeps a valid checksum, so each input is also tried with its trailer
// recomputed, which lets the mutations reach the framing and name checks.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	empty, err := (&Snapshot{}).encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add(rawContainer(Section{"a", []byte{1}}, Section{"", nil}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkDecode(t, raw)
		if len(raw) >= len(Magic)+4 {
			fixed := append([]byte(nil), raw...)
			body := fixed[:len(fixed)-4]
			binary.LittleEndian.PutUint32(fixed[len(body):], crc32.ChecksumIEEE(body))
			checkDecode(t, fixed)
		}
	})
}

func checkDecode(t *testing.T, raw []byte) {
	s, err := Decode(raw)
	if err != nil {
		if !IsCorrupt(err) {
			t.Fatalf("rejection is not a corrupt-checkpoint error: %v", err)
		}
		return
	}
	enc, err := s.encode()
	if err != nil {
		t.Fatalf("decoded snapshot does not re-encode: %v", err)
	}
	again, err := Decode(enc)
	if err != nil {
		t.Fatalf("re-encoded snapshot does not decode: %v", err)
	}
	if !reflect.DeepEqual(s, again) {
		t.Fatalf("round trip changed the snapshot:\n got %v\nwant %v", again.Names(), s.Names())
	}
}
