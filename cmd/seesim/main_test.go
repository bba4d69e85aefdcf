package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"see"
)

func TestParseAlgs(t *testing.T) {
	if got, err := parseAlgs("all"); err != nil || len(got) != 3 {
		t.Fatalf("all -> %v, %v", got, err)
	}
	for _, name := range []string{"see", "SEE", "reps", "e2e"} {
		got, err := parseAlgs(name)
		if err != nil || len(got) != 1 {
			t.Fatalf("%s -> %v, %v", name, got, err)
		}
	}
	if _, err := parseAlgs("bogus"); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
}

func TestParseTraffic(t *testing.T) {
	for _, name := range []string{"uniform", "hotspot", "gravity", "Gravity"} {
		if _, err := parseTraffic(name); err != nil {
			t.Fatalf("%s rejected: %v", name, err)
		}
	}
	if _, err := parseTraffic("nope"); err == nil {
		t.Fatal("bad traffic accepted")
	}
}

// TestTraceReportsConstruction: under -trace every engine's pipeline block
// ends with one construct line counting a build per trial, and without
// -trace no construct line is printed.
func TestTraceReportsConstruction(t *testing.T) {
	args := []string{"-alg", "all", "-nodes", "30", "-pairs", "5", "-trials", "2", "-seed", "7", "-workers", "1"}
	var stdout, stderr bytes.Buffer
	if code := run(append(args, "-trace"), &stdout, &stderr); code != 0 {
		t.Fatalf("run exited %d, stderr:\n%s", code, stderr.String())
	}
	line := regexp.MustCompile(`^construct n=2 mean=[0-9.e+-]+ms max=[0-9.e+-]+ms$`)
	out := stdout.String()
	for _, a := range see.Algorithms {
		header := fmt.Sprintf("\n# %v pipeline\n", a)
		at := strings.Index(out, header)
		if at < 0 {
			t.Fatalf("no %q block in:\n%s", strings.TrimSpace(header), out)
		}
		block := strings.SplitN(out[at+len(header):], "\n", 3)
		if len(block) < 2 || !line.MatchString(block[1]) {
			t.Errorf("%v pipeline block lacks a construct line: %q", a, block)
		}
	}
	if got := strings.Count(out, "construct n="); got != len(see.Algorithms) {
		t.Errorf("%d construct lines for %d engines", got, len(see.Algorithms))
	}

	stdout.Reset()
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run exited %d, stderr:\n%s", code, stderr.String())
	}
	if strings.Contains(stdout.String(), "construct") {
		t.Errorf("construct line printed without -trace:\n%s", stdout.String())
	}
}
