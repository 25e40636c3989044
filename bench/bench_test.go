package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark program when the
// harness under test starts it as a child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		childMain()
		return
	}
	os.Exit(m.Run())
}

// nameRE is the driver's rule for a metric or workload name.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDefinitionsMatchBenchmarkJSON keeps the tables in defs.go and the file
// the driver reads from drifting apart.
func TestDefinitionsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads: file has %v, defs.go has %v", names, workloads)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: file has %v, defs.go has %v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs from defs.go:\nfile %v\ndefs %v", file.PerLayer, perLayer)
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds is %d, runSeconds is %d", file.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("paths is %v", file.Paths)
	}
}

// TestSmoke runs the whole harness at toy sizes: both passes, every workload,
// child processes and all, then -compare of the result with itself. It
// checks what is emitted, not how fast.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	runSet := func(defs []metricDef, wantRuns []string, args ...string) string {
		t.Helper()
		file := filepath.Join(out, strings.Join(wantRuns, "+")+".json")
		var stdout bytes.Buffer
		if code := parentMain(append(args, "-smoke", "-out", out, "-o", file), &stdout); code != 0 {
			t.Fatalf("bench %v exited %d:\n%s", args, code, &stdout)
		}
		s, err := readSet(file)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range s.Runs {
			got = append(got, r.Workload)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s: correct=%v failed=%d attempted=%d", r.Workload, r.Correct, r.Failed, r.Attempted)
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s: %d metrics emitted, %d defined", r.Workload, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s is %+v (present=%v), want a finite value in %s", r.Workload, d.Name, m, ok, d.Unit)
				}
				if !nameRE.MatchString(d.Name) {
					t.Errorf("metric name %q is malformed", d.Name)
				}
				if n := strings.Count(stdout.String(), " "+d.Name+" "); n != len(s.Runs) {
					t.Errorf("metric %s printed %d times for %d runs", d.Name, n, len(s.Runs))
				}
			}
		}
		if !reflect.DeepEqual(got, wantRuns) {
			t.Errorf("runs are %v, want %v", got, wantRuns)
		}
		return file
	}

	endFile := runSet(endToEnd, workloads)
	runSet(perLayer, []string{"all"}, "-trace", "1")
	for _, w := range workloads {
		if _, err := os.Stat(filepath.Join(out, w+".trace.json")); err != nil {
			t.Errorf("no trace file for %s: %v", w, err)
		}
	}

	var stdout bytes.Buffer
	if code := parentMain([]string{"-compare", endFile, endFile}, &stdout); code != 0 {
		t.Errorf("-compare of a set with itself exited %d:\n%s", code, &stdout)
	}
	rows := len(workloads) * (len(endToEnd) + 1)
	if n := strings.Count(stdout.String(), "  ok\n"); n != rows {
		t.Errorf("-compare printed %d ok rows, want %d:\n%s", n, rows, &stdout)
	}
}
