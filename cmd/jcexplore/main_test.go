package main

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
)

// build compiles the command into a test temp dir.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "jcexplore")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestWorkersFlagBoundary builds the command and execs it: a negative
// -workers must be refused with exit 2 and a one-line error naming the
// value before any sweep runs, while a positive count still sweeps.
func TestWorkersFlagBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the jcexplore binary")
	}
	bin := build(t)
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

// TestRemoteScreenTable: a screen sweep run on a server prints the same
// prediction table as the same sweep run locally — one row per
// configuration, tear and journal cells included, with the kept column.
// Only the header line differs (the local one carries wall-clock
// times), so the comparison starts at the table's caption.
func TestRemoteScreenTable(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the jcexplore binary")
	}
	bin := build(t)
	srv := serve.New(serve.Options{Workers: 2, SweepWorkers: 2})
	hs := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer hs.Close()
	table := func(extra ...string) string {
		t.Helper()
		args := append([]string{"-fidelity", "screen", "-layer", "1,2", "-workload", "wallet",
			"-tear", "none,tear-mid", "-journal", "none,word-eager"}, extra...)
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, stderr.String())
		}
		out := stdout.String()
		i := strings.Index(out, "Analytic predictions")
		if i < 0 {
			t.Fatalf("%v: no prediction table in\n%s", args, out)
		}
		return out[i:]
	}
	local, remote := table(), table("-remote", hs.URL)
	if remote != local {
		t.Fatalf("remote screen table differs from the local one:\n%s\nvs\n%s", remote, local)
	}
	lines := strings.Split(strings.TrimSpace(local), "\n")
	seen := map[string]bool{}
	for _, l := range lines[2:] {
		cfg := strings.Fields(l)[1]
		if seen[cfg] {
			t.Fatalf("configuration %s printed twice:\n%s", cfg, local)
		}
		seen[cfg] = true
	}
	if len(seen) != 2*8*4 || !strings.Contains(lines[1], "kept") {
		t.Fatalf("%d configurations, header %q; want 64 with a kept column", len(seen), lines[1])
	}
}

// TestRemotePruningMargins: a multi-fidelity sweep run on a server
// prints the same per-layer pruning-margin lines as the same sweep run
// locally, from the ε the response trailer carries. The header line's
// wall-clock times are left out of the comparison.
func TestRemotePruningMargins(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the jcexplore binary")
	}
	bin := build(t)
	srv := serve.New(serve.Options{Workers: 2, SweepWorkers: 2})
	hs := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer hs.Close()
	margins := func(fid string, extra ...string) []string {
		t.Helper()
		args := append([]string{"-fidelity", fid, "-layer", "1,3", "-workload", "arith-loop"}, extra...)
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, stderr.String())
		}
		var lines []string
		for _, l := range strings.Split(stdout.String(), "\n") {
			if strings.Contains(l, "pruning margin") {
				lines = append(lines, l)
			}
		}
		return lines
	}
	for _, fid := range []string{"screen", "confirm"} {
		local, remote := margins(fid), margins(fid, "-remote", hs.URL)
		if len(local) != 2 {
			t.Fatalf("%s: local run printed %d margin lines, want 2: %q", fid, len(local), local)
		}
		if strings.Join(remote, "\n") != strings.Join(local, "\n") {
			t.Fatalf("%s: remote margins differ from the local ones:\n%s\nvs\n%s",
				fid, strings.Join(remote, "\n"), strings.Join(local, "\n"))
		}
	}
}
