package serve

import "testing"

// FuzzParseArrivalSpec checks the arrival-spec parser on arbitrary input:
// it must never panic, and every spec it accepts must build a server over
// a stub engine that then draws a few slots of arrivals — so an accepted
// spec can neither make serve.New reject it, nor allocate without bound,
// nor hang the arrival sampler.
func FuzzParseArrivalSpec(f *testing.F) {
	for _, seed := range []string{
		"poisson",
		"poisson;rate=3;users=200;mix=0.2/0.3/0.5;deadline=4/8/16;max-active=64",
		"diurnal;rate=2;amp=0.9;period=24",
		"bursty;rate=2;burst-rate=8;switch=0.2;users=40;max-active=30",
		"bursty;rate=500",
		"diurnal;amp=NaN",
		"bursty;switch=NaN",
		"poisson;users=3000000000",
		"poisson;mix=+Inf/0/0",
		"poisson;deadline=1e300/8/16",
		"poisson;rate=NaN",
		"poisson;;users=",
		"unknown;rate=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if cfg.Users < 1 || cfg.Users > maxUsers {
			t.Fatalf("ParseSpec(%q) accepted users=%d", spec, cfg.Users)
		}
		switch p := cfg.Process.(type) {
		case *Diurnal:
			if !(p.Amp >= 0 && p.Amp <= 1) {
				t.Fatalf("ParseSpec(%q) accepted amp=%v", spec, p.Amp)
			}
		case *Bursty:
			if !(p.Switch > 0 && p.Switch <= 1) {
				t.Fatalf("ParseSpec(%q) accepted switch=%v", spec, p.Switch)
			}
		}
		cfg.Seed = 7
		srv, err := New(&fixedEngine{perPair: []int{1, 0}}, 2, cfg)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted a config New rejects: %v", spec, err)
		}
		for slot := 0; slot < 4; slot++ {
			st, err := srv.RunSlot()
			if err != nil {
				t.Fatalf("spec %q, slot %d: %v", spec, slot, err)
			}
			if st.Arrived < 0 || st.Served > st.Established {
				t.Fatalf("spec %q, slot %d: inconsistent stats %+v", spec, slot, st)
			}
		}
	})
}
