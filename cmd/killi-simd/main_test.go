package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func buildSimd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "killi-simd")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves a localhost port and releases it for the daemon.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDaemonLifecycle boots the real daemon, round-trips a job (cold, then
// cache-hit), and checks SIGTERM performs the graceful shutdown the docs
// promise: drain, sweep temp files, exit zero.
func TestDaemonLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a real binary; skipped in -short")
	}
	bin := buildSimd(t)
	cacheDir := t.TempDir()
	addr := freeAddr(t)

	cmd := exec.Command(bin, "-addr", addr, "-cache", cacheDir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait for the listener.
	url := "http://" + addr
	var up bool
	for i := 0; i < 100 && !up; i++ {
		if resp, err := http.Get(url + "/healthz"); err == nil {
			resp.Body.Close()
			up = resp.StatusCode == http.StatusOK
		}
		if !up {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !up {
		t.Fatalf("daemon never came up; stderr:\n%s", stderr.String())
	}

	job := `{"kind":"run","workload":"xsbench","scheme":"killi-1:64","requests_per_cu":300}`
	post := func() map[string]any {
		resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(job))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var doc map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	cold, warm := post(), post()
	if cold["cached"] == true {
		t.Error("first submission claims a cache hit on an empty cache")
	}
	if warm["cached"] != true && warm["coalesced"] != true {
		t.Errorf("second identical submission simulated again: %v", warm)
	}
	if fmt.Sprint(cold["run"]) != fmt.Sprint(warm["run"]) {
		t.Errorf("cached result diverges:\ncold %v\nwarm %v", cold["run"], warm["run"])
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("graceful shutdown exited nonzero: %v; stderr:\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not stop within 30s of SIGTERM; stderr:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "stopped") {
		t.Errorf("shutdown did not log completion:\n%s", stderr.String())
	}
	if temps, _ := filepath.Glob(filepath.Join(cacheDir, "put-*")); len(temps) != 0 {
		t.Errorf("shutdown stranded cache temp files: %v", temps)
	}
}

// TestDaemonFlagValidation pins fail-fast flag checking: bad combinations
// and unknown flags exit 2 and never bind a socket, with a one-line error
// for every flag the binary defines.
func TestDaemonFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real binary; skipped in -short")
	}
	bin := buildSimd(t)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"negative shards", []string{"-shards", "-1"}},
		{"oversubscribed", []string{"-workers", "1048576"}},
		{"negative queue", []string{"-queue", "-5"}},
		{"zero drain", []string{"-drain", "0s"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(bin, tc.args...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("%v: err %v, want exit code 2; stderr:\n%s", tc.args, err, stderr.String())
			}
			msg := stderr.String()
			if tc.args[0] == "-shards" {
				// The engine is serial: -shards is not a flag, and the flag
				// package rejects it with its usage text.
				if !strings.Contains(msg, "flag provided but not defined: -shards") {
					t.Errorf("want an unknown-flag error, got:\n%s", msg)
				}
			} else if strings.Count(msg, "\n") != 1 {
				t.Errorf("want a one-line error, got:\n%s", msg)
			}
		})
	}
}
