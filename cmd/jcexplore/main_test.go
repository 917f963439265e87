package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkersFlagBoundary builds the command and execs it: a negative
// -workers must be refused with exit 2 and a one-line error naming the
// value before any sweep runs, while a positive count still sweeps.
func TestWorkersFlagBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the jcexplore binary")
	}
	bin := filepath.Join(t.TempDir(), "jcexplore")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(workers string) (int, string, string) {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, "-workers", workers, "-workload", "arith-loop", "-layer", "1")
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		switch {
		case err == nil:
			return 0, stdout.String(), stderr.String()
		case errors.As(err, &exit):
			return exit.ExitCode(), stdout.String(), stderr.String()
		}
		t.Fatalf("-workers %s: %v", workers, err)
		return 0, "", ""
	}
	for _, bad := range []string{"-1", "-64"} {
		code, stdout, stderr := run(bad)
		if code != 2 {
			t.Errorf("-workers %s: exit %d, want 2 (stderr %q)", bad, code, stderr)
		}
		if !strings.Contains(stderr, "-workers "+bad) || strings.Count(stderr, "\n") != 1 ||
			strings.Contains(stderr, "panic:") {
			t.Errorf("-workers %s: stderr %q should be one line naming the value", bad, stderr)
		}
		if stdout != "" {
			t.Errorf("-workers %s: printed %q before refusing", bad, stdout)
		}
	}
	for _, good := range []string{"0", "1"} {
		code, stdout, stderr := run(good)
		if code != 0 || !strings.Contains(stdout, "arith-loop") {
			t.Errorf("-workers %s: exit %d, want 0 with a table (stderr %q)", good, code, stderr)
		}
	}
}
