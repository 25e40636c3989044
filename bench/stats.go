package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"phihpl/internal/pack"
	"phihpl/internal/pool"
)

// quantile is the p-quantile of v by linear interpolation between the order
// statistics at p·(n+1), clamped to the extremes: the method of Python's
// statistics.quantiles, which the driver uses for quartiles.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p*float64(len(s)+1) - 1
	i := int(math.Floor(pos))
	if i < 0 {
		return s[0]
	}
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	return (quantile(v, 0.75) - quantile(v, 0.25)) / median(v)
}

// paired is the median over i of f(a[i], b[i]), for two series measured back
// to back on the same inputs: drift and input-dependent cost cancel inside a
// pair, which a ratio or difference of the two medians does not give.
func paired(a, b []float64, f func(x, y float64) float64) float64 {
	v := make([]float64, min(len(a), len(b)))
	for i := range v {
		v[i] = f(a[i], b[i])
	}
	return median(v)
}

func ratio(x, y float64) float64 { return x / y }
func minus(x, y float64) float64 { return x - y }

// secs is the wall time of one call.
func secs(f func()) float64 {
	t := time.Now()
	f()
	return time.Since(t).Seconds()
}

// medianOf calls once reps+1 times and returns the median of what it
// reports, leaving out the first call, which fills caches and buffer pools.
func medianOf(reps int, once func() float64) float64 {
	once()
	v := make([]float64, reps)
	for i := range v {
		v[i] = once()
	}
	return median(v)
}

// hplFlops is the operation count HPL credits a solve of order n with.
func hplFlops(n int) float64 {
	f := float64(n)
	return 2.0/3.0*f*f*f + 1.5*f*f
}

// mix derives a stream of independent 64-bit values from the -seed argument
// (splitmix64 over the packed coordinates); every matrix seed comes from it.
func mix(seed uint64, a, b int) uint64 {
	z := seed + 0x9e3779b97f4a7c15*((uint64(a)<<32|uint64(uint32(b)))+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) | 1
}

// hashBits is FNV-1a over the bit patterns of x: two solutions hash equal
// exactly when they are bit-identical (up to a 2^-64 collision).
func hashBits(x []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// peakRSSMiB is VmHWM of this process, the most memory it ever held.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64); err == nil {
				return kib / 1024
			}
		}
	}
	return math.NaN()
}

// workers is W, the worker count every library call gets: derived from
// GOMAXPROCS so a run can never ask for more workers than it has processors.
func workers() int {
	return min(runtime.GOMAXPROCS(0), 4)
}

// lastLevelCacheBytes reads the largest cache cpu0 reports, 0 when unknown.
func lastLevelCacheBytes() int {
	best := 0
	files, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := 1
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.Atoi(s); err == nil && n*mult > best {
			best = n * mult
		}
	}
	return best
}

// fsType names the filesystem holding dir, from the longest mount point in
// /proc/mounts that prefixes it. Journal fsync latency is that disk's.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// fingerprint names the machine and build a result came from.
type fingerprint struct {
	CPU        string            `json:"cpu"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	W          int               `json:"w"`
	Go         string            `json:"go"`
	Kernel64   bool              `json:"vector_kernel"`
	Kernel32   bool              `json:"vector_kernel32"`
	PoolSize   int               `json:"pool_size"`
	PoolGroups int               `json:"pool_groups"`
	LLCBytes   int               `json:"llc_bytes"`
	JournalFS  string            `json:"journal_fs"`
	Env        map[string]string `json:"env,omitempty"`
	Seed       uint64            `json:"seed"`
	Degraded   bool              `json:"degraded"`
}

func takeFingerprint(seed uint64, out string) fingerprint {
	fp := fingerprint{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), W: workers(),
		Go:       runtime.Version(),
		Kernel64: pack.VectorKernel() && !pack.DisableVectorKernel,
		Kernel32: pack.VectorKernel32() && !pack.DisableVectorKernel32,
		PoolSize: pool.Size(), PoolGroups: pool.Groups(),
		LLCBytes: lastLevelCacheBytes(), JournalFS: fsType(out), Seed: seed,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	for _, kv := range os.Environ() {
		if k, v, ok := strings.Cut(kv, "="); ok && strings.HasPrefix(k, "PHIHPL_") {
			if fp.Env == nil {
				fp.Env = map[string]string{}
			}
			fp.Env[k] = v
		}
	}
	fp.Degraded = !fp.Kernel64 || !fp.Kernel32
	return fp
}

func (fp fingerprint) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine: %s, nproc=%d GOMAXPROCS=%d W=%d, %s\n", fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.W, fp.Go)
	fmt.Fprintf(&b, "kernels: fp64 vector=%v fp32 vector=%v, pool size=%d groups=%d, LLC=%d bytes\n",
		fp.Kernel64, fp.Kernel32, fp.PoolSize, fp.PoolGroups, fp.LLCBytes)
	fmt.Fprintf(&b, "journal filesystem: %s, seed=%d, env=%v\n", fp.JournalFS, fp.Seed, fp.Env)
	if fp.Degraded {
		b.WriteString("WARNING: DEGRADED RUN: a vector micro-kernel is unavailable or disabled; " +
			"every number below measures the scalar fallback\n")
	}
	return b.String()
}
