package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestLayerFlagBoundary builds the command and execs it: an unknown
// -layer must be refused with exit 2 and a one-line error naming the
// value before anything is built, while every valid layer still runs
// the demo to a clean exit.
func TestLayerFlagBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the ecsim binary")
	}
	bin := filepath.Join(t.TempDir(), "ecsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(layer string) (int, string) {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, "-layer", layer, "-demo")
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		switch {
		case err == nil:
			return 0, stderr.String()
		case errors.As(err, &exit):
			return exit.ExitCode(), stderr.String()
		}
		t.Fatalf("-layer %s: %v", layer, err)
		return 0, ""
	}
	for _, bad := range []string{"5", "-1", "3"} {
		code, stderr := run(bad)
		if code != 2 {
			t.Errorf("-layer %s: exit %d, want 2 (stderr %q)", bad, code, stderr)
		}
		if !strings.Contains(stderr, "-layer "+bad) || strings.Contains(stderr, "panic:") {
			t.Errorf("-layer %s: stderr %q should name the value and not panic", bad, stderr)
		}
	}
	for _, good := range []string{"0", "1", "2"} {
		if code, stderr := run(good); code != 0 {
			t.Errorf("-layer %s: exit %d, want 0 (stderr %q)", good, code, stderr)
		}
	}
}
