package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// binDir holds pagen, pa-serve and pa-tcp built from the checkout.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"pagen/cmd/pagen", "pagen/cmd/pa-serve", "pagen/cmd/pa-tcp")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building binaries:", err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{Workload: workload, Seed: 5, Seconds: 1, Trace: trace, Root: "..",
		Bin: binDir, Work: t.TempDir(), N: 10_000, JobN: 10_000}
}

// TestWorkloadsTiny runs every workload end to end, untraced and
// traced, at n = 10^4: every operation must pass its output check and
// every contract metric must be reported.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				r, err := run(tinyOptions(t, w.name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if r.Attempted == 0 || r.Failed != 0 {
					t.Fatalf("attempted %d, failed %d: %v", r.Attempted, r.Failed, r.Failures)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(want))
				}
			})
		}
	}
}

// TestCorruptOutputCounted changes one edge of a real pagen output and
// requires the output check to count the operation as failed.
func TestCorruptOutputCounted(t *testing.T) {
	o := tinyOptions(t, "mem_default_text", false)
	ref, _, err := referenceDigest(o.N, edgesPerNode, o.Seed)
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if _, err := runTimed(filepath.Join(o.Bin, "pagen"), memArgs(o.N, o.Seed, out)...); err != nil {
		t.Fatal(err)
	}
	if err := verifyText(out, ref); err != nil {
		t.Fatalf("intact output rejected: %v", err)
	}
	path := filepath.Join(out, "g.txt")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The last line is "u\tv\n"; bump the last digit of v.
	i := len(b) - 2
	b[i] = '0' + (b[i]-'0'+1)%10
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var r report
	r.op(verifyText(out, ref))
	if r.Attempted != 1 || r.Failed != 1 {
		t.Fatalf("corrupted output: attempted %d, failed %d; want 1, 1", r.Attempted, r.Failed)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q, program has %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, program has %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: %s [%s], program has %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
