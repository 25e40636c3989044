package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readSet(path string) (set, error) {
	var s set
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// column gathers one metric of one workload across a set's runs.
func (s set) column(workload, metric string) []float64 {
	var v []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			v = append(v, m.Value)
		}
	}
	return v
}

// failedShare is failed over attempted, summed over a workload's runs.
func (s set) failedShare(workload string) (failed, attempted int, share float64) {
	for _, r := range s.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	if attempted > 0 {
		share = float64(failed) / float64(attempted)
	}
	return failed, attempted, share
}

// compareFiles prints one row per (end-to-end metric, workload) and returns
// the exit code: 1 when a median worsened by more than its bound or a larger
// share of operations failed. A row whose quartile spread, on either side, is
// wider than the bound is unresolved: the runs cannot tell, so it neither
// passes nor fails.
func compareFiles(basePath, newPath string, w io.Writer) int {
	base, err := readSet(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cand, err := readSet(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareSets(base, cand, w)
}

func compareSets(base, cand set, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "base: %d runs, seed %d, degraded=%v; new: %d runs, seed %d, degraded=%v\n",
		len(base.Runs), base.Fingerprint.Seed, base.Fingerprint.Degraded,
		len(cand.Runs), cand.Fingerprint.Seed, cand.Fingerprint.Degraded)
	fmt.Fprintf(w, "%-13s %-12s %12s %12s %14s %6s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	for _, name := range workloads {
		for _, d := range endToEnd {
			b, c := base.column(name, d.Name), cand.column(name, d.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			ratio := median(c) / median(b)
			worse := ratio - 1
			if d.Better == higher {
				worse = 1 - ratio
			}
			verdict := "ok"
			switch {
			case spread(b) > d.Bound || spread(c) > d.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%% / %.1f%%)", 100*spread(b), 100*spread(c))
			case worse > d.Bound:
				verdict = "regressed"
				code = 1
			}
			fmt.Fprintf(w, "%-13s %-12s %12.6g %12.6g %14.4f %5.0f%%  %s\n",
				name, d.Name, median(b), median(c), ratio, 100*d.Bound, verdict)
		}
		bf, ba, bs := base.failedShare(name)
		cf, ca, cs := cand.failedShare(name)
		if ba+ca == 0 {
			continue
		}
		verdict := "ok"
		if cs > bs {
			verdict = "more failures"
			code = 1
		}
		fmt.Fprintf(w, "%-13s %-12s %12s %12s %14s %6s  %s\n", name, "failed",
			fmt.Sprintf("%d/%d", bf, ba), fmt.Sprintf("%d/%d", cf, ca), "", "", verdict)
	}
	return code
}
