package main

import (
	"path/filepath"
	"strings"
	"testing"

	"see/internal/engines"
	"see/internal/sched"
)

// TestAlgUsageNamesEveryEngine runs the -alg check against the real
// seesim source, so a newly registered engine fails here until the usage
// string names it.
func TestAlgUsageNamesEveryEngine(t *testing.T) {
	flags, err := seesimFlags(filepath.Join("..", "seesim", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if problems := checkAlgUsage(flags, engines.List()); len(problems) > 0 {
		t.Fatal(strings.Join(problems, "\n"))
	}
}

func TestAlgUsageReportsMissingEngine(t *testing.T) {
	flags := []flagDef{{Name: "alg", Usage: "scheduler: see, see-aware, a comma-separated list, or all"}}
	got := checkAlgUsage(flags, []sched.Algorithm{sched.SEE, sched.SEEAware, sched.Oracle, sched.ContendAware})
	want := []string{
		`cmd/seesim: -alg usage does not name registered engine "oracle"`,
		`cmd/seesim: -alg usage does not name registered engine "contend-aware"`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("checkAlgUsage = %q, want %q", got, want)
	}
	if got := checkAlgUsage([]flagDef{{Name: "pairs"}}, nil); len(got) != 1 {
		t.Fatalf("missing -alg flag not reported: %q", got)
	}
}
