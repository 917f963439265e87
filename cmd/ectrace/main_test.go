package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checker"
	"repro/internal/ecbus"
)

// TestReplayLayerFlagBoundary builds the command and execs it: replay
// into a layer other than 1 or 2 must be refused with exit 2 and a
// one-line error naming the value before the trace is read, while both
// valid layers still replay a recorded trace to a clean exit. Likewise
// record refuses a corpus size below 1 before it records anything.
func TestReplayLayerFlagBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the ectrace binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ectrace")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) (int, string) {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		switch {
		case err == nil:
			return 0, stderr.String()
		case errors.As(err, &exit):
			return exit.ExitCode(), stderr.String()
		}
		t.Fatalf("%v: %v", args, err)
		return 0, ""
	}
	tr := filepath.Join(dir, "run.trace")
	if code, stderr := run("record", "-o", tr); code != 0 {
		t.Fatalf("record: exit %d (stderr %q)", code, stderr)
	}
	for _, bad := range []string{"0", "3", "9", "-1"} {
		code, stderr := run("replay", "-layer", bad, tr)
		if code != 2 {
			t.Errorf("replay -layer %s: exit %d, want 2 (stderr %q)", bad, code, stderr)
		}
		if !strings.Contains(stderr, "-layer "+bad) || strings.Contains(stderr, "panic:") {
			t.Errorf("replay -layer %s: stderr %q should name the value and not panic", bad, stderr)
		}
	}
	for _, good := range []string{"1", "2"} {
		if code, stderr := run("replay", "-layer", good, tr); code != 0 {
			t.Errorf("replay -layer %s: exit %d, want 0 (stderr %q)", good, code, stderr)
		}
	}

	for _, bad := range []string{"0", "-3"} {
		out := filepath.Join(dir, "n"+bad+".trace")
		code, stderr := run("record", "-seed", "5", "-n", bad, "-o", out)
		if code != 2 {
			t.Errorf("record -n %s: exit %d, want 2 (stderr %q)", bad, code, stderr)
		}
		if !strings.Contains(stderr, "-n "+bad) || strings.Count(stderr, "\n") != 1 || strings.Contains(stderr, "panic:") {
			t.Errorf("record -n %s: stderr %q should be one line naming the value", bad, stderr)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("record -n %s wrote %s (stat: %v)", bad, out, err)
		}
	}
	if code, stderr := run("record", "-seed", "5", "-n", "1", "-o", filepath.Join(dir, "n1.trace")); code != 0 {
		t.Errorf("record -n 1: exit %d, want 0 (stderr %q)", code, stderr)
	}
}

// TestReportViolations: report lists every violation the checker saw,
// one a line, and says whether there was any; a clean run prints
// nothing.
func TestReportViolations(t *testing.T) {
	var out bytes.Buffer
	if report(&out, checker.New()) || out.Len() != 0 {
		t.Fatalf("clean checker: report printed %q", out.String())
	}
	c := checker.New()
	var b ecbus.Bundle
	b.SetBool(ecbus.SigARdy, true) // ARdy with no AValid breaks A1
	c.Observe(&b)
	if !report(&out, c) {
		t.Fatal("report missed the violation")
	}
	if got := out.String(); strings.Count(got, "\n") != len(c.Violations()) || !strings.Contains(got, "A1") {
		t.Fatalf("report printed %q for %v", got, c.Violations())
	}
}
