package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"see/internal/sched"
)

// span is one timed call into a layer. Spans of one trial or one slot share
// an id; parent indexes the enclosing span (-1 for a root).
type span struct {
	name   int32
	parent int32
	alg    int16 // engine of a sched.* span, -1 otherwise
	id     int64
	iv     interval
}

// recorder holds the spans of a traced pass in memory. A nil recorder
// records nothing, so untraced passes share the traced code path.
type recorder struct {
	epoch time.Time
	names []string
	index map[string]int32
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), index: map[string]int32{}}
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) nameID(name string) int32 {
	id, ok := r.index[name]
	if !ok {
		id = int32(len(r.names))
		r.names = append(r.names, name)
		r.index[name] = id
	}
	return id
}

// add records a finished span and returns its index (-1 on a nil recorder).
func (r *recorder) add(name string, parent int32, id int64, start, end time.Time) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: r.nameID(name), parent: parent, alg: -1, id: id,
		iv: interval{r.since(start), r.since(end)}})
	return int32(len(r.spans) - 1)
}

// begin opens a span that end closes.
func (r *recorder) begin(name string, parent int32, id int64) int32 {
	now := time.Now()
	return r.add(name, parent, id, now, now)
}

func (r *recorder) end(i int32) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].iv.end = r.since(time.Now())
}

// durations returns the length of every span with the given name, in the
// unit given, optionally only those of one engine (alg < 0 for any).
func (r *recorder) durations(name string, alg sched.Algorithm, unit time.Duration) []float64 {
	if r == nil {
		return nil
	}
	id, ok := r.index[name]
	if !ok {
		return nil
	}
	var out []float64
	for _, s := range r.spans {
		if s.name == id && (alg < 0 || s.alg == int16(alg)) {
			out = append(out, float64(s.iv.end-s.iv.start)/float64(unit))
		}
	}
	return out
}

// selfTimes returns, for every span with the given name, its duration minus
// the time its direct children cover, in the unit given.
func (r *recorder) selfTimes(name string, unit time.Duration) []float64 {
	if r == nil {
		return nil
	}
	id, ok := r.index[name]
	if !ok {
		return nil
	}
	children := map[int32][]interval{}
	for _, s := range r.spans {
		if s.parent >= 0 && r.spans[s.parent].name == id {
			children[s.parent] = append(children[s.parent], s.iv)
		}
	}
	var out []float64
	for i, s := range r.spans {
		if s.name == id {
			out = append(out, float64(selfTime(s.iv, children[int32(i)]))/float64(unit))
		}
	}
	return out
}

// write dumps the spans as JSON lines: name, id, parent, engine and the
// start and end in nanoseconds since the pass began.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Name   string `json:"name"`
		ID     int64  `json:"id"`
		Index  int    `json:"index"`
		Parent int32  `json:"parent"`
		Alg    string `json:"alg,omitempty"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for i, s := range r.spans {
		l := line{Name: r.names[s.name], ID: s.id, Index: i, Parent: s.parent, Start: s.iv.start, End: s.iv.end}
		if s.alg >= 0 {
			l.Alg = sched.Algorithm(s.alg).String()
		}
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// outcomes tallies one engine's pipeline events.
type outcomes struct {
	slots, planned, provisioned                      int
	attempts, created, assembled, established, floor int
	incidents                                        [sched.NumIncidents]int
}

// engineTracer is the benchmark's sched.Tracer: it turns each engine slot
// into a sched.slot span with one child span per pipeline phase, and
// tallies the outcome counts per engine. The driver sets parent and id
// before each call that runs slots.
type engineTracer struct {
	rec    *recorder
	parent int32
	id     int64
	slot   int32
	cur    *outcomes
	byAlg  map[sched.Algorithm]*outcomes
}

var _ sched.Tracer = (*engineTracer)(nil)

var phaseSpan = [sched.NumPhases]string{"sched.plan", "sched.reserve", "sched.physical", "sched.stitch"}

func newEngineTracer(rec *recorder) *engineTracer {
	return &engineTracer{rec: rec, parent: -1, slot: -1, cur: &outcomes{}, byAlg: map[sched.Algorithm]*outcomes{}}
}

// of returns the tallies of one engine.
func (t *engineTracer) of(alg sched.Algorithm) outcomes {
	if o := t.byAlg[alg]; o != nil {
		return *o
	}
	return outcomes{}
}

func (t *engineTracer) SlotStart(alg sched.Algorithm) {
	t.slot = t.rec.begin("sched.slot", t.parent, t.id)
	t.rec.spans[t.slot].alg = int16(alg)
	if t.cur = t.byAlg[alg]; t.cur == nil {
		t.cur = &outcomes{}
		t.byAlg[alg] = t.cur
	}
}

func (t *engineTracer) PathPlanned(int, int)          { t.cur.planned++ }
func (t *engineTracer) PathProvisioned(int)           { t.cur.provisioned++ }
func (t *engineTracer) AttemptReserved(int, int, int) {}
func (t *engineTracer) SwapResolved(int, bool)        {}

func (t *engineTracer) AttemptResolved(_, _ int, created bool) {
	t.cur.attempts++
	if created {
		t.cur.created++
	}
}

func (t *engineTracer) ConnectionAssembled(_ int, established bool) {
	t.cur.assembled++
	if established {
		t.cur.established++
	}
}

func (t *engineTracer) PhaseDone(ph sched.Phase, d time.Duration) {
	if ph < 0 || ph >= sched.NumPhases {
		return
	}
	now := time.Now()
	i := t.rec.add(phaseSpan[ph], t.slot, t.id, now.Add(-d), now)
	t.rec.spans[i].alg = t.rec.spans[t.slot].alg
}

func (t *engineTracer) Incident(kind sched.Incident, n int) {
	if kind >= 0 && kind < sched.NumIncidents {
		t.cur.incidents[kind] += n
	}
}

func (t *engineTracer) SlotEnd(res *sched.SlotResult) {
	t.rec.end(t.slot)
	t.cur.slots++
	if res != nil {
		t.cur.floor += res.FloorRejected
	}
}

// String summarizes one engine's funnel for the report.
func (o outcomes) String() string {
	return fmt.Sprintf("slots=%d planned=%d provisioned=%d attempts=%d created=%d assembled=%d established=%d floor_rejected=%d",
		o.slots, o.planned, o.provisioned, o.attempts, o.created, o.assembled, o.established, o.floor)
}
