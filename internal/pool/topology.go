package pool

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
)

var (
	groupsOnce sync.Once
	groups     int
)

// Groups returns the number of CPU sockets (physical packages) Linux
// reports under /sys, or 1 wherever that cannot be read, other platforms
// included. It is recorded in run fingerprints only: no code path
// branches on it.
func Groups() int {
	groupsOnce.Do(func() { groups = socketCount("/sys") })
	return groups
}

var cpuDirRe = regexp.MustCompile(`^cpu([0-9]+)$`)

// socketCount counts the distinct physical_package_ids under a
// sysfs-shaped tree rooted at root. It returns 1 on any inconsistency —
// no cpu tree, no cpuN directories, a missing or garbled package id —
// since a count half-read is no better than none. Tests aim it at fake
// trees.
func socketCount(root string) int {
	dir := filepath.Join(root, "devices", "system", "cpu")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 1
	}
	pkgs := map[int]bool{}
	for _, e := range entries {
		if !cpuDirRe.MatchString(e.Name()) {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name(), "topology", "physical_package_id"))
		if err != nil {
			return 1
		}
		pkg, err := strconv.Atoi(strings.TrimSpace(string(raw)))
		if err != nil || pkg < 0 {
			return 1
		}
		pkgs[pkg] = true
	}
	return max(len(pkgs), 1)
}
