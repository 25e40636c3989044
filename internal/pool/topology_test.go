package pool

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fakeCPU creates cpuN under a fake sysfs root. pkg is written verbatim
// when non-empty (garbled-input tests pass non-numeric text); an empty
// pkg leaves physical_package_id absent entirely.
func fakeCPU(t *testing.T, root string, cpu int, pkg string) {
	t.Helper()
	base := filepath.Join(root, "devices", "system", "cpu", fmt.Sprintf("cpu%d", cpu))
	if err := os.MkdirAll(filepath.Join(base, "topology"), 0o755); err != nil {
		t.Fatal(err)
	}
	if pkg != "" {
		if err := os.WriteFile(filepath.Join(base, "topology", "physical_package_id"), []byte(pkg), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDetectTopologySingleSocket(t *testing.T) {
	root := t.TempDir()
	for c := 0; c < 4; c++ {
		fakeCPU(t, root, c, "0\n")
	}
	if got := socketCount(root); got != 1 {
		t.Fatalf("sockets = %d, want 1", got)
	}
}

func TestDetectTopologyDualSocket(t *testing.T) {
	root := t.TempDir()
	// Interleaved enumeration (even CPUs on package 0, odd on package 1),
	// the layout the kernel reports on round-robin-numbered machines.
	for c := 0; c < 8; c++ {
		fakeCPU(t, root, c, fmt.Sprintf("%d\n", c%2))
	}
	if got := socketCount(root); got != 2 {
		t.Fatalf("sockets = %d, want 2", got)
	}
}

func TestDetectTopologyMissingPackageFile(t *testing.T) {
	root := t.TempDir()
	fakeCPU(t, root, 0, "0\n")
	fakeCPU(t, root, 1, "1\n")
	fakeCPU(t, root, 2, "") // no physical_package_id at all
	if got := socketCount(root); got != 1 {
		t.Fatalf("missing physical_package_id: sockets = %d, want the fallback 1", got)
	}
}

func TestDetectTopologyGarbledPackageFile(t *testing.T) {
	for _, garbage := range []string{"banana\n", "-3\n", "\n"} {
		root := t.TempDir()
		fakeCPU(t, root, 0, "0\n")
		fakeCPU(t, root, 1, "1\n")
		fakeCPU(t, root, 2, garbage)
		if got := socketCount(root); got != 1 {
			t.Fatalf("garbage %q: sockets = %d, want the fallback 1", garbage, got)
		}
	}
}

func TestDetectTopologyMissingTree(t *testing.T) {
	if got := socketCount(filepath.Join(t.TempDir(), "nonexistent")); got != 1 {
		t.Fatalf("missing sysfs tree: sockets = %d, want 1", got)
	}
}

// An existing tree with no cpuN entries counts no package; the count
// clamps to one socket.
func TestFlatTopologyClampsNCPU(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "devices", "system", "cpu"), 0o755); err != nil {
		t.Fatal(err)
	}
	if got := socketCount(root); got != 1 {
		t.Fatalf("empty cpu directory: sockets = %d, want 1", got)
	}
}

// Only the package id is read: cpuN directories without a cache tree
// (VMs, old kernels) and sibling entries that are not cpuN directories
// (cpufreq, cpuidle) neither force the fallback nor count as sockets.
func TestDetectTopologyMissingL3IsBestEffort(t *testing.T) {
	root := t.TempDir()
	fakeCPU(t, root, 0, "0\n")
	fakeCPU(t, root, 1, "1\n")
	for _, d := range []string{"cpufreq", "cpuidle"} {
		if err := os.MkdirAll(filepath.Join(root, "devices", "system", "cpu", d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if got := socketCount(root); got != 2 {
		t.Fatalf("sockets = %d, want 2", got)
	}
}

func TestGroupsIsPositive(t *testing.T) {
	if Groups() < 1 {
		t.Fatalf("Groups() = %d, want >= 1", Groups())
	}
}
