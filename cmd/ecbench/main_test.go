package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestArtifactFlagBoundary builds the command and execs it: an unknown
// -table or -figure number and a -n below 1 must be refused with exit 2
// and a one-line error naming the value before any table runs, while a
// valid artifact still prints.
func TestArtifactFlagBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the ecbench binary")
	}
	bin := filepath.Join(t.TempDir(), "ecbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) (int, string, string) {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		switch {
		case err == nil:
			return 0, stdout.String(), stderr.String()
		case errors.As(err, &exit):
			return exit.ExitCode(), stdout.String(), stderr.String()
		}
		t.Fatalf("%v: %v", args, err)
		return 0, "", ""
	}
	for _, bad := range [][]string{
		{"-table", "9"}, {"-table", "-1"}, {"-figure", "7"}, {"-table", "3", "-n", "-5"}, {"-n", "0"},
	} {
		code, stdout, stderr := run(bad...)
		named := bad[len(bad)-2] + " " + bad[len(bad)-1]
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", bad, code, stderr)
		}
		if !strings.Contains(stderr, named) || strings.Count(stderr, "\n") != 1 ||
			strings.Contains(stderr, "panic:") {
			t.Errorf("%v: stderr %q should be one line naming %q", bad, stderr, named)
		}
		if stdout != "" {
			t.Errorf("%v: printed %q before refusing", bad, stdout)
		}
	}
	for _, good := range [][]string{{"-table", "1"}, {"-figure", "6"}} {
		code, stdout, stderr := run(good...)
		if code != 0 || stdout == "" || stderr != "" {
			t.Errorf("%v: exit %d, stdout %d bytes, stderr %q; want 0 with output", good, code, len(stdout), stderr)
		}
	}
}
