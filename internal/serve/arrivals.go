package serve

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// Process generates the per-slot request arrival count for the traffic
// server. Implementations are deterministic functions of the rng passed to
// Arrivals and their own phase, so a (cursor, phase) pair pins the whole
// future arrival sequence — the property checkpoint/resume leans on.
type Process interface {
	// String describes the process and its parameters. It feeds the resume
	// fingerprint, so two processes with equal strings must generate equal
	// arrival sequences from equal rng states.
	String() string
	// Arrivals draws the number of requests arriving in the given slot.
	Arrivals(rng *rand.Rand, slot int) int
	// Phase returns the serializable internal state (0 for memoryless
	// processes).
	Phase() int
	// SetPhase restores a phase captured by Phase.
	SetPhase(p int) error
}

// maxRate bounds every configured arrival rate: beyond it the Knuth
// sampler's exp(-λ) term loses precision and a "slot" stops being a
// meaningful batching unit anyway.
const maxRate = 500.0

// maxUsers bounds the request population of a spec: the server keeps two
// per-user tallies, so the bound caps what one spec string can make it
// allocate.
const maxUsers = 1_000_000

// maxDeadline bounds a per-class time-to-live in slots, so a parsed
// deadline always converts to an int exactly.
const maxDeadline = math.MaxInt32

// poissonDraw samples Poisson(λ) by Knuth's product method. The number of
// rng draws varies with the outcome, which is fine: the server's rng cursor
// counts draws, not slots.
func poissonDraw(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	limit := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// Poisson is a memoryless arrival process with a constant mean rate per
// slot.
type Poisson struct {
	// Rate is the mean number of request arrivals per slot.
	Rate float64
}

func (p *Poisson) String() string { return fmt.Sprintf("poisson(rate=%g)", p.Rate) }

// Arrivals draws Poisson(Rate).
func (p *Poisson) Arrivals(rng *rand.Rand, _ int) int { return poissonDraw(rng, p.Rate) }

// Phase returns 0: the process is memoryless.
func (p *Poisson) Phase() int { return 0 }

// SetPhase accepts only the memoryless phase 0.
func (p *Poisson) SetPhase(v int) error {
	if v != 0 {
		return fmt.Errorf("serve: poisson process has no phase %d", v)
	}
	return nil
}

// Diurnal modulates a Poisson process with a sinusoidal day/night cycle:
// the slot-s rate is Base·(1 + Amp·sin(2πs/Period)), floored at zero. The
// rate is a pure function of the slot index, so the process carries no
// phase of its own.
type Diurnal struct {
	// Base is the mean rate averaged over a full period.
	Base float64
	// Amp in [0,1] scales the swing around Base.
	Amp float64
	// Period is the cycle length in slots.
	Period int
}

func (d *Diurnal) String() string {
	return fmt.Sprintf("diurnal(rate=%g,amp=%g,period=%d)", d.Base, d.Amp, d.Period)
}

// RateAt returns the instantaneous mean rate for a slot.
func (d *Diurnal) RateAt(slot int) float64 {
	r := d.Base * (1 + d.Amp*math.Sin(2*math.Pi*float64(slot%d.Period)/float64(d.Period)))
	return math.Max(r, 0)
}

// Arrivals draws Poisson(RateAt(slot)).
func (d *Diurnal) Arrivals(rng *rand.Rand, slot int) int {
	return poissonDraw(rng, d.RateAt(slot))
}

// Phase returns 0: the slot index alone determines the rate.
func (d *Diurnal) Phase() int { return 0 }

// SetPhase accepts only phase 0.
func (d *Diurnal) SetPhase(v int) error {
	if v != 0 {
		return fmt.Errorf("serve: diurnal process has no phase %d", v)
	}
	return nil
}

// Bursty is a two-state Markov-modulated Poisson process: each slot it
// first flips between calm and burst mode with probability Switch, then
// draws from the mode's rate. The current mode is the one piece of state a
// checkpoint must carry.
type Bursty struct {
	// Calm is the mean rate in the quiet state.
	Calm float64
	// Burst is the mean rate in the burst state.
	Burst float64
	// Switch is the per-slot probability of toggling states.
	Switch float64

	burst bool
}

func (b *Bursty) String() string {
	return fmt.Sprintf("bursty(rate=%g,burst-rate=%g,switch=%g)", b.Calm, b.Burst, b.Switch)
}

// Arrivals advances the mode chain by one step and draws from the resulting
// mode's rate.
func (b *Bursty) Arrivals(rng *rand.Rand, _ int) int {
	if rng.Float64() < b.Switch {
		b.burst = !b.burst
	}
	rate := b.Calm
	if b.burst {
		rate = b.Burst
	}
	return poissonDraw(rng, rate)
}

// Phase returns the current mode: 0 calm, 1 burst.
func (b *Bursty) Phase() int {
	if b.burst {
		return 1
	}
	return 0
}

// SetPhase restores the mode.
func (b *Bursty) SetPhase(v int) error {
	if v != 0 && v != 1 {
		return fmt.Errorf("serve: bursty process has no phase %d", v)
	}
	b.burst = v == 1
	return nil
}

// ParseSpec parses an arrival specification of the form
//
//	kind;key=value;key=value;...
//
// where kind is poisson, diurnal or bursty. Shared keys: users=N (request
// population, default 100, at most maxUsers), mix=g/s/b (class
// proportions, default 0.2/0.3/0.5, normalized), deadline=g/s/b
// (per-class time-to-live in slots, default 4/8/16), max-active=K
// (admission bound on queued requests, default 0 = unbounded). Process
// keys: rate (all kinds, default 1), amp and period (diurnal, defaults 0.5
// and 288), burst-rate and switch (bursty, defaults 5·rate and 0.1).
//
// The returned Config has Process set and Spec holding the input verbatim;
// the caller supplies Seed.
func ParseSpec(spec string) (Config, error) {
	cfg := Config{
		Users:     100,
		Mix:       [NumClasses]float64{0.2, 0.3, 0.5},
		Deadline:  [NumClasses]int{4, 8, 16},
		MaxActive: 0,
		Spec:      spec,
	}
	fields := strings.Split(spec, ";")
	kind := strings.TrimSpace(fields[0])

	rate, amp, period := 1.0, 0.5, 288
	burstRate, burstSet, sw := 0.0, false, 0.1

	for _, f := range fields[1:] {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return cfg, fmt.Errorf("serve: field %q is not key=value", f)
		}
		var err error
		switch key {
		case "rate":
			rate, err = parseRate(key, val)
		case "amp":
			if amp, err = strconv.ParseFloat(val, 64); err == nil && !(amp >= 0 && amp <= 1) {
				err = fmt.Errorf("serve: amp=%v outside [0,1]", amp)
			}
		case "period":
			if period, err = strconv.Atoi(val); err == nil && period < 2 {
				err = fmt.Errorf("serve: period=%d must be at least 2", period)
			}
		case "burst-rate":
			burstRate, err = parseRate(key, val)
			burstSet = true
		case "switch":
			if sw, err = strconv.ParseFloat(val, 64); err == nil && !(sw > 0 && sw <= 1) {
				err = fmt.Errorf("serve: switch=%v outside (0,1]", sw)
			}
		case "users":
			if cfg.Users, err = strconv.Atoi(val); err == nil && (cfg.Users < 1 || cfg.Users > maxUsers) {
				err = fmt.Errorf("serve: users=%d outside [1,%d]", cfg.Users, maxUsers)
			}
		case "max-active":
			if cfg.MaxActive, err = strconv.Atoi(val); err == nil && cfg.MaxActive < 0 {
				err = fmt.Errorf("serve: max-active=%d is negative", cfg.MaxActive)
			}
		case "mix":
			cfg.Mix, err = parseTriple(val, "mix")
		case "deadline":
			var dl [NumClasses]float64
			if dl, err = parseTriple(val, "deadline"); err == nil {
				for c := range dl {
					if dl[c] < 1 || dl[c] > maxDeadline || dl[c] != math.Trunc(dl[c]) {
						err = fmt.Errorf("serve: deadline %v is not a positive slot count", dl[c])
						break
					}
					cfg.Deadline[c] = int(dl[c])
				}
			}
		default:
			return cfg, fmt.Errorf("serve: unknown arrival key %q", key)
		}
		if err != nil {
			return cfg, fmt.Errorf("serve: parsing %q: %w", f, err)
		}
	}

	sum := cfg.Mix[Gold] + cfg.Mix[Silver] + cfg.Mix[Bronze]
	if sum <= 0 || math.IsInf(sum, 1) {
		return cfg, fmt.Errorf("serve: class mix %v does not sum to a positive number", cfg.Mix)
	}
	for c := range cfg.Mix {
		cfg.Mix[c] /= sum
	}

	switch kind {
	case "poisson":
		cfg.Process = &Poisson{Rate: rate}
	case "diurnal":
		cfg.Process = &Diurnal{Base: rate, Amp: amp, Period: period}
	case "bursty":
		if !burstSet {
			burstRate = 5 * rate
		}
		if burstRate > maxRate {
			return cfg, fmt.Errorf("serve: burst-rate=%v exceeds %v", burstRate, maxRate)
		}
		if burstRate < rate {
			return cfg, fmt.Errorf("serve: burst-rate=%v below base rate %v", burstRate, rate)
		}
		cfg.Process = &Bursty{Calm: rate, Burst: burstRate, Switch: sw}
	default:
		return cfg, fmt.Errorf("serve: unknown arrival process %q (want poisson, diurnal or bursty)", kind)
	}
	return cfg, nil
}

// parseRate parses a strictly positive, bounded arrival rate.
func parseRate(key, val string) (float64, error) {
	r, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if r <= 0 || r > maxRate || math.IsNaN(r) {
		return 0, fmt.Errorf("serve: %s=%v outside (0,%v]", key, r, maxRate)
	}
	return r, nil
}

// parseTriple parses a gold/silver/bronze triple of non-negative numbers.
func parseTriple(val, what string) ([NumClasses]float64, error) {
	var out [NumClasses]float64
	parts := strings.Split(val, "/")
	if len(parts) != NumClasses {
		return out, fmt.Errorf("serve: %s wants %d values, got %d", what, NumClasses, len(parts))
	}
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return out, err
		}
		if !(v >= 0) || math.IsInf(v, 1) {
			return out, fmt.Errorf("serve: %s value %v is not a finite non-negative number", what, v)
		}
		out[i] = v
	}
	return out, nil
}
