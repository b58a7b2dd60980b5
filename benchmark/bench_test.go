package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testBin holds nsgserve and nsgrouter built from this checkout.
var testBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "nsgbench")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testBin = dir
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/nsgserve", "./cmd/nsgrouter")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build servers: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	runCleanups()
	os.RemoveAll(dir)
	os.Exit(code)
}

func quickConfig(t *testing.T, workload string, trace bool) config {
	dir := t.TempDir()
	return config{workload: workload, seed: 3, seconds: 1, trace: trace, quick: true, workdir: dir, bindir: testBin, dir: dir}
}

// TestQuick runs every workload end to end at toy size, untraced and traced,
// and checks each run is correct and reports exactly its metrics.
func TestQuick(t *testing.T) {
	for _, p := range plans {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", p.name, trace), func(t *testing.T) {
				res, err := execute(quickConfig(t, p.name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.Name, m, d.Unit)
					}
					if !trace && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

// serversUnder lists the processes whose command line names dir.
func serversUnder(t *testing.T, dir string) []string {
	procs, err := filepath.Glob("/proc/[0-9]*/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	for _, p := range procs {
		if blob, err := os.ReadFile(p); err == nil && bytes.Contains(blob, []byte(dir)) {
			found = append(found, strings.ReplaceAll(string(blob), "\x00", " "))
		}
	}
	return found
}

// TestNoChildSurvives starts the cluster, sees its three servers, and checks
// that they are gone after close; then makes the router fail to start and
// checks that the backends already running are killed with it.
func TestNoChildSurvives(t *testing.T) {
	cfg := quickConfig(t, "cluster_mix", false)
	r := &run{cfg: cfg, plan: planByName("cluster_mix")}
	r.prepare()
	dir := t.TempDir()
	b, err := startClusterMix(r, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := serversUnder(t, dir); len(got) != 3 {
		t.Fatalf("want 3 servers running, found %q", got)
	}
	b.sys.close()
	if got := serversUnder(t, dir); len(got) != 0 {
		t.Fatalf("servers survived close: %q", got)
	}

	// A bin directory whose router exits at once.
	broken := t.TempDir()
	if err := os.Symlink(filepath.Join(testBin, "nsgserve"), filepath.Join(broken, "nsgserve")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(broken, "nsgrouter"), []byte("#!/bin/sh\necho no router today >&2\nexit 3\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	r.cfg.bindir = broken
	dir = t.TempDir()
	if _, err := startClusterMix(r, dir); err == nil || !strings.Contains(err.Error(), "no router today") {
		t.Fatalf("want the router's failure, got %v", err)
	}
	if got := serversUnder(t, dir); len(got) != 0 {
		t.Fatalf("servers survived a failed set-up: %q", got)
	}
}

// TestManifest keeps BENCHMARK.json equal to what the catalogue prints and
// inside the limits the driver refuses a benchmark for.
func TestManifest(t *testing.T) {
	var want bytes.Buffer
	if err := printManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("BENCHMARK.json differs from `-manifest`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}
	for _, p := range plans {
		check(p.name)
		if len(p.why) > 200 || strings.Contains(p.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", p.name, len(p.why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		check(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: unit %q or bound %v out of range", d.Name, d.Unit, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, d := range perLayer {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q malformed", d.Name, d.Unit)
		}
	}
	if len(plans) < 2 || len(plans) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 || want.Len() > 64<<10 {
		t.Error("manifest outside the driver's size limits")
	}
}
