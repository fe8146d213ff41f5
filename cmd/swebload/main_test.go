package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"sweb/internal/leakcheck"
	"sweb/internal/live"
	"sweb/internal/storage"
)

// TestRunAgainstLiveNode runs the command against a one-node live
// cluster: objectives it meets exit 0 with the report lines printed, one
// no run can meet exits 1, and a malformed objective is a usage error.
func TestRunAgainstLiveNode(t *testing.T) {
	leakcheck.Check(t)
	st := storage.NewStore(1)
	paths := storage.UniformSet(st, 4, 4096)
	cl, err := live.Start(live.Options{Nodes: 1, Store: st, BaseDir: t.TempDir(), Policy: "rr", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	args := []string{"-servers", cl.Addrs()[0], "-paths", strings.Join(paths, ","), "-rps", "10", "-seconds", "1"}

	var stdout, stderr bytes.Buffer
	if code := run(append(args, "-slo", "avail=99,p99=5s"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d with objectives met; stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	for _, line := range []string{
		`^offered 10  completed 10  failed 0 \(0\.0%\)  redirected 0  wall [0-9.]+s$`,
		`^response: mean \S+  p50 \S+  p95 \S+  p99 \S+  max \S+$`,
		`^ttfb: mean \S+  p50 \S+  p95 \S+  p99 \S+  max \S+$`,
		`^SLO client \(window 1s\)$`,
		`^  avail .* good      10/10 .* ok$`,
		`^  p99 .* good      10/10 .* ok$`,
	} {
		if !regexp.MustCompile(`(?m)` + line).MatchString(stdout.String()) {
			t.Errorf("no line matching %q in:\n%s", line, stdout.String())
		}
	}

	stdout.Reset()
	stderr.Reset()
	if code := run(append(args, "-slo", "p99=1ns"), &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d with an objective no run can meet, want 1; stdout:\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "BREACH") || !strings.Contains(stderr.String(), "SLO breached") {
		t.Fatalf("breach not reported; stdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}

	if code := run(append(args, "-slo", "avail=bogus"), &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d for a malformed objective, want 2", code)
	}
}
