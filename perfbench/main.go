// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a given time, checks that the simulator's outputs are
// correct, and prints every metric the benchmark defines for that mode,
// ending with one JSON line:
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with tracing
// off; with --trace 1 it records spans around each layer's public calls and
// prints the per-layer metrics instead. Metric names and units come from
// BENCHMARK.json at the root of the checkout; README.md in this directory
// explains each workload and metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are the settings every workload receives.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	out     string // directory for checkpoints and span files
}

// result is what a workload measured. metrics maps a metric name to its
// value; notes are human-readable lines (sample counts, ratio bases).
type result struct {
	metrics   map[string]float64
	notes     []string
	attempted int
	failed    int
	problems  []string // failed output checks
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records a failed output check when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// setRatio stores a ratio metric and notes its numerator and base.
func (r *result) setRatio(name string, q ratio) {
	r.metrics[name] = q.value()
	r.note("%s = %s", name, q)
}

// setSlotLatency sets slot_cpu_ms_p50 and slot_cpu_ms_p99 from the slots'
// scaled CPU times, and notes the wall-time percentiles, which on a shared
// host follow how often the host preempted the run.
func setSlotLatency(res *result, wallMS, cpuMS []float64) error {
	p99, err := tail(cpuMS, 0.99)
	if err != nil {
		return fmt.Errorf("slot_cpu_ms_p99: %w", err)
	}
	wall99, err := tail(wallMS, 0.99)
	if err != nil {
		return fmt.Errorf("slot wall p99: %w", err)
	}
	res.metrics["slot_cpu_ms_p50"] = median(cpuMS)
	res.metrics["slot_cpu_ms_p99"] = p99
	res.note("slot_cpu_ms_*: %d slots; wall time p50 %.4f ms, p99 %.4f ms", len(cpuMS), median(wallMS), wall99)
	return nil
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(options) (*result, error){
	"sweep-cold":         runSweep,
	"serve-see":          func(o options) (*result, error) { return runServe(serveSEE, o) },
	"serve-reps-restart": func(o options) (*result, error) { return runServe(serveREPSRestart, o) },
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 20, "how long the measured pass runs")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for checkpoints and span files")
	flag.Parse()

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || !spec.hasWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive, got %g\n", *seconds)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// Every engine runs its LP pricing serially (Workers=1), and one P
	// runs the garbage collector's marking in turns with the program: a
	// second P would mark on whatever core the host leaves idle, so the
	// process's CPU time would follow the neighbours' load.
	runtime.GOMAXPROCS(1)

	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, out: *out}
	var lpUS float64
	if o.trace {
		if lpUS, err = lpReference(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: reference LP:", err)
			return 1
		}
	}
	res, err := drive(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if o.trace {
		res.metrics["lp.dense_solve_us"] = lpUS
		res.note("lp.dense_solve_us: median of %d solves of one fixed LP before the workload ran", lpReferenceSolves)
	}
	defs := spec.EndToEnd
	if o.trace {
		defs = spec.PerLayer
	}
	line, err := report(os.Stdout, *workload, res, defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	fmt.Println(line)
	if len(res.problems) > 0 || res.failed > 0 {
		return 1
	}
	return 0
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// report prints the notes, every measured metric and the check outcome,
// and returns the final JSON line holding exactly the metrics of defs.
func report(w io.Writer, workload string, res *result, defs []metricDef) (string, error) {
	for _, n := range res.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	units := map[string]string{}
	for _, d := range defs {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-40s %-14.6g %s\n", name, res.metrics[name], units[name])
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", p)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`,
		len(res.problems) == 0 && res.failed == 0, res.attempted, res.failed)
	var missing []string
	for i, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.Name, v)
		}
		raw, err := json.Marshal(value{v, d.Unit})
		if err != nil {
			return "", err
		}
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q: %s", d.Name, raw)
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("%s measured no value for %s", workload, strings.Join(missing, ", "))
	}
	if res.attempted < 1 {
		return "", errors.New("no operation attempted")
	}
	b.WriteString("}}")
	return b.String(), nil
}
