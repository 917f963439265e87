package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/serve"
)

// TestServerSmoke is the end-to-end serving gate: build the daemon,
// start it on a random port, run one estimate through the wire and
// assert it is bit-equal to a direct in-process run, then drain it
// with SIGTERM and require a clean exit.
func TestServerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "ecserved")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "2")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	reaped := false
	defer func() {
		if !reaped {
			cmd.Process.Kill()
			<-done
		}
	}()

	// The first line announces the picked port.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no startup line: %v", sc.Err())
	}
	line := sc.Text()
	i := strings.Index(line, "http://")
	if i < 0 {
		t.Fatalf("startup line %q has no address", line)
	}
	base := strings.TrimSpace(line[i:])
	go func() { // keep the pipe drained so the daemon never blocks on stdout
		for sc.Scan() {
		}
	}()

	hc := &http.Client{Timeout: 30 * time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if resp, err := hc.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became healthy")
		}
		time.Sleep(10 * time.Millisecond)
	}

	req, err := json.Marshal(serve.EstimateRequest{Layer: 1, Corpus: "perf", N: 64, Fault: "flaky"})
	if err != nil {
		t.Fatal(err)
	}
	estimate := func() ([]byte, string) {
		resp, err := hc.Post(base+"/v1/estimate", "application/json", bytes.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate: status %d, %v: %s", resp.StatusCode, err, body)
		}
		return body, resp.Header.Get("X-Cache")
	}
	first, verdict := estimate()
	if verdict != "miss" {
		t.Fatalf("first estimate verdict %q, want miss", verdict)
	}
	var got serve.EstimateResponse
	if err := json.Unmarshal(first, &got); err != nil {
		t.Fatal(err)
	}

	plan, err := fault.Parse("flaky")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := bench.RunCorpusEstimate(1, "perf", 64, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got.EnergyBits != serve.EnergyBits(direct.EnergyJ) {
		t.Fatalf("served energy bits %s != direct %s", got.EnergyBits, serve.EnergyBits(direct.EnergyJ))
	}
	if got.Cycles != direct.Cycles || got.Retries != direct.Retries {
		t.Fatalf("served %+v != direct %+v", got, direct)
	}

	// Same request again is a cache hit with the identical payload.
	again, verdict := estimate()
	if verdict != "hit" || !bytes.Equal(again, first) {
		t.Fatalf("repeat estimate: verdict %q, byte-identical=%v", verdict, bytes.Equal(again, first))
	}

	// SIGTERM drains cleanly: exit code 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		reaped = true
		if err != nil {
			t.Fatalf("daemon exited uncleanly: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

// TestSizeFlagBoundary: a negative -workers, -queue, -cache,
// -sweep-workers, -timeout or -probe is refused with exit 2 and a
// one-line error naming the value, before the daemon listens.
func TestSizeFlagBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "ecserved")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, arg := range [][2]string{
		{"-workers", "-1"}, {"-queue", "-1"}, {"-cache", "-1"}, {"-sweep-workers", "-1"},
		{"-timeout", "-5s"}, {"-probe", "-1s"},
	} {
		flag, val := arg[0], arg[1]
		var out bytes.Buffer
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", flag, val)
		cmd.Stdout, cmd.Stderr = &out, &out
		done := make(chan error, 1)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		go func() { done <- cmd.Wait() }()
		var err error
		select {
		case err = <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
			t.Fatalf("%s %s: still running; a refusal must exit before listening", flag, val)
		}
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s %s: %v, want exit 2 (output %q)", flag, val, err, out.String())
		}
		if got := out.String(); !strings.Contains(got, flag+" "+val) || strings.Count(got, "\n") != 1 {
			t.Errorf("%s %s: output %q should be one line naming the value", flag, val, got)
		}
	}
}
