package schedtest

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"see/internal/chaos"
	"see/internal/ckpt"
	"see/internal/engines"
	"see/internal/sched"
	"see/internal/state"
)

// corpusDir is the ckpt package's committed fuzz corpus for
// FuzzDecodeEngineState.
var corpusDir = filepath.Join("..", "..", "ckpt", "testdata", "fuzz", "FuzzDecodeEngineState")

// corpusEntry renders a payload in the go-fuzz corpus file format.
func corpusEntry(raw []byte) []byte {
	return []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(raw)) + ")\n")
}

// TestEngineStateCorpus pins the encoded checkpoint state of every
// registered engine, and of the resilient wrapper, after three slots of
// the checkpoint protocol's setup (chaos and carry-over live). The
// encodings are FuzzDecodeEngineState's seed corpus, so a change to what
// an engine snapshots, or to the codec, shows up here first; with -update
// it rewrites the corpus, adding two truncated copies of each state.
func TestEngineStateCorpus(t *testing.T) {
	net, pairs, err := Instance(testNodes, testPairs, testSeed+6)
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]sched.Checkpointable{}
	for _, alg := range engines.List() {
		inj, err := chaos.NewInjector(checkpointPlan(), net)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := engines.New(alg, net, pairs, engines.Config{Chaos: inj})
		if err != nil {
			t.Fatal(err)
		}
		eng.(sched.Stateful).AttachBank(state.NewBank(net, state.Policy{
			CarrySlots:  2,
			Decoherence: checkpointPlan().Decoherence,
			Seed:        checkpointPlan().Seed,
		}))
		states[strings.ToLower(alg.String())] = eng.(sched.Checkpointable)
	}
	inj, err := chaos.NewInjector(checkpointPlan(), net)
	if err != nil {
		t.Fatal(err)
	}
	r, err := engines.NewResilient(sched.SEE, net, pairs, engines.Config{Chaos: inj}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.AttachBank(state.NewBank(net, state.Policy{CarrySlots: 2, Seed: 31}))
	states["resilient-see"] = r

	for name, eng := range states {
		if _, err := Run(eng, 29, 3); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st, err := eng.EngineState()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw := ckpt.EncodeEngineState(st)
		path := filepath.Join(corpusDir, name)
		if *update {
			if err := os.MkdirAll(corpusDir, 0o755); err != nil {
				t.Fatal(err)
			}
			for suffix, b := range map[string][]byte{"": raw, "-half": raw[:len(raw)/2], "-short": raw[:len(raw)-1]} {
				if err := os.WriteFile(path+suffix, corpusEntry(b), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing corpus entry (run with -update to create): %v", err)
		}
		if !bytes.Equal(corpusEntry(raw), want) {
			t.Errorf("%s: encoded engine state drifted from %s (run with -update if intended)", name, path)
		}
		if _, err := ckpt.DecodeEngineState(raw[:len(raw)-1]); err == nil {
			t.Errorf("%s: truncated state decoded without error", name)
		}
	}
}
