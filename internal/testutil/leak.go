// Package testutil holds shared test helpers. It must only be imported
// from _test.go files.
package testutil

import (
	"runtime"
	"strings"
	"time"
)

// failer is the subset of *testing.T we need (avoids importing testing
// into non-test code paths).
type failer interface {
	Helper()
	Errorf(format string, args ...any)
}

// NoLeaks snapshots this package's goroutines and returns a function
// (for defer) that fails the test if project goroutines spawned during
// the test are still alive shortly after it ends. The persistent
// internal/pool worker goroutines are exempt: they are created once per
// process by design and never stop.
//
//	defer testutil.NoLeaks(t)()
func NoLeaks(t failer) func() {
	t.Helper()
	before := projectGoroutines()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		var leaked []string
		for {
			leaked = leakedSince(before)
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		for _, g := range leaked {
			t.Errorf("leaked goroutine:\n%s", g)
		}
	}
}

func leakedSince(before map[string]int) []string {
	var leaked []string
	for stack, n := range projectGoroutines() {
		if n > before[stack] {
			leaked = append(leaked, stack)
		}
	}
	return leaked
}

// projectGoroutines returns the stacks of live goroutines that are
// executing this module's code, keyed by their (normalized) stack text,
// excluding the persistent pool workers.
func projectGoroutines() map[string]int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	out := map[string]int{}
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if !strings.Contains(g, "phihpl/internal/") {
			continue // runtime / testing machinery
		}
		// Global worker pool: persistent by design. Match the file, not
		// the symbol — when ensure() is inlined into another package's
		// caller, the worker's symbol carries that caller's prefix
		// (e.g. hpl.newPipeline.Size.ensure.func1.1).
		if strings.Contains(g, "phihpl/internal/pool.") ||
			strings.Contains(g, "internal/pool/pool.go") {
			continue
		}
		if strings.Contains(g, "phihpl/internal/testutil.") &&
			!strings.Contains(g, "created by phihpl") {
			continue // ourselves
		}
		if strings.Contains(g, "\ncreated by testing.") {
			// A test's own runner: another test parked in t.Parallel
			// moves from the release send to the barrier wait while a
			// serial test runs, which is not a leak of that test.
			continue
		}
		out[normalizeStack(g)]++
	}
	return out
}

// normalizeStack strips goroutine ids and argument values so identical
// code paths compare equal across snapshots.
func normalizeStack(g string) string {
	var out []string
	for _, line := range strings.Split(g, "\n") {
		if strings.HasPrefix(line, "goroutine ") {
			continue
		}
		if i := strings.Index(line, "("); i > 0 && !strings.HasPrefix(line, "\t") {
			line = line[:i]
		}
		if strings.HasPrefix(line, "\t") {
			if i := strings.Index(line, " +0x"); i > 0 {
				line = line[:i]
			}
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}
