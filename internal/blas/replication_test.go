package blas

import (
	"testing"

	"phihpl/internal/matrix"
	"phihpl/internal/pack"
	"phihpl/internal/pool"
)

// B-panel replication invariance. Every replica a socket group streams is
// byte-identical (DgemmPacked packs each replica with the same
// deterministic packer; PrepackB copies replica 0), so the grouped
// execution must produce bitwise the same C as the flat pool — for any
// group count, replication flag, and worker count. These tests force
// artificial group counts on whatever machine CI provides; real
// multi-socket placement changes nothing the tests could observe, which
// is exactly the point.

// withGroups runs fn under a forced pool group count, restoring the
// detected topology afterwards.
func withGroups(t *testing.T, g int, fn func()) {
	t.Helper()
	pool.ForceGroups(g)
	defer pool.ForceGroups(0)
	fn()
}

func TestDgemmPackedReplicationBitwiseInvariant(t *testing.T) {
	shapes := []struct{ m, n, k int }{
		{64, 32, 48},
		{95, 23, 33},          // ragged edge tiles
		{60, 16, packKC + 37}, // two K-blocks
	}
	for _, s := range shapes {
		a := matrix.RandomGeneral(s.m, s.k, uint64(s.m+s.k))
		b := matrix.RandomGeneral(s.k, s.n, uint64(s.n))
		c0 := matrix.RandomGeneral(s.m, s.n, 99)

		flat := c0.Clone()
		DgemmPacked(false, false, -1, a, b, 1, flat, 4)

		for _, groups := range []int{2, 3} {
			got := c0.Clone()
			withGroups(t, groups, func() {
				DgemmPacked(false, false, -1, a, b, 1, got, 4)
			})
			if !matrix.Equal(flat, got) {
				t.Fatalf("m=%d n=%d k=%d: %d-group result differs from flat pool",
					s.m, s.n, s.k, groups)
			}
		}

		// Disabling replication under a forced multi-group pool must be
		// equally invisible: one shared B, same bits.
		got := c0.Clone()
		withGroups(t, 2, func() {
			DisableBReplication = true
			defer func() { DisableBReplication = false }()
			DgemmPacked(false, false, -1, a, b, 1, got, 4)
		})
		if !matrix.Equal(flat, got) {
			t.Fatalf("m=%d n=%d k=%d: DisableBReplication changed the result", s.m, s.n, s.k)
		}
	}
}

func TestSgemmPackedReplicationBitwiseInvariant(t *testing.T) {
	a := randomDense32(64, 40, 1)
	b := randomDense32(40, 24, 2)
	c0 := randomDense32(64, 24, 3)

	flat := c0.Clone()
	SgemmPacked(false, false, -1, a, b, 1, flat, 4)

	for _, groups := range []int{2, 3} {
		got := c0.Clone()
		withGroups(t, groups, func() {
			SgemmPacked(false, false, -1, a, b, 1, got, 4)
		})
		if !equal32(flat, got) {
			t.Fatalf("%d-group FP32 result differs from flat pool", groups)
		}
	}
}

func TestGemmPrepackedReplicationBitwiseInvariant(t *testing.T) {
	m, n, k := 61, 19, 48
	src := matrix.RandomGeneral(m, k, 4)
	bMat := matrix.RandomGeneral(k, n, 5)
	c0 := matrix.RandomGeneral(m, n, 6)

	want := c0.Clone()
	DgemmPacked(false, false, -1, src, bMat, 1, want, 4)

	// Prepack and execute under a forced 3-group pool: per-group replicas
	// selected by DoGrouped must reproduce the flat result bitwise.
	got := c0.Clone()
	withGroups(t, 3, func() {
		pa := PrepackA(src, -1)
		pb := PrepackB(bMat)
		GemmPrepacked(pa, pb, got, 4)
		pa.Release()
		pb.Release()
	})
	if !matrix.Equal(want, got) {
		t.Fatal("3-group GemmPrepacked differs from DgemmPacked")
	}

	// Operand prepacked under a smaller group count than the executing
	// pool's: the kernel clamps to replica 0 instead of reading past the
	// replica slice.
	got = c0.Clone()
	pa := PrepackA(src, -1)
	var pb *PrepackedB[float64]
	withGroups(t, 1, func() { pb = PrepackB(bMat) })
	withGroups(t, 3, func() { GemmPrepacked(pa, pb, got, 4) })
	pa.Release()
	pb.Release()
	if !matrix.Equal(want, got) {
		t.Fatal("group-count mismatch between prepack and execution changed the result")
	}
}

// TestDgemmPackedKernelModeEnvelope pins the cross-kernel contract: the
// vector (FMA) and scalar kernels agree element-wise within the
// 8·(k+2)·ulp forward-error envelope — never bitwise, the FMA fuses each
// product — while WITHIN one kernel mode the result is bitwise
// independent of the worker count. Skipped where no vector kernel built.
func TestDgemmPackedKernelModeEnvelope(t *testing.T) {
	if !pack.VectorKernel() {
		t.Skip("no vector kernel on this platform/build")
	}
	m, n, k := 95, 23, packKC+17
	a := matrix.RandomGeneral(m, k, 7)
	b := matrix.RandomGeneral(k, n, 8)
	c0 := matrix.RandomGeneral(m, n, 9)

	vec := c0.Clone()
	DgemmPacked(false, false, -1, a, b, 1, vec, 4)
	vec1 := c0.Clone()
	DgemmPacked(false, false, -1, a, b, 1, vec1, 1)
	if !matrix.Equal(vec, vec1) {
		t.Fatal("vector kernel result depends on worker count")
	}

	prev := pack.DisableVectorKernel // already set on the scalar-oracle CI leg
	pack.DisableVectorKernel = true
	defer func() { pack.DisableVectorKernel = prev }()
	sca := c0.Clone()
	DgemmPacked(false, false, -1, a, b, 1, sca, 4)
	sca1 := c0.Clone()
	DgemmPacked(false, false, -1, a, b, 1, sca1, 7)
	if !matrix.Equal(sca, sca1) {
		t.Fatal("scalar kernel result depends on worker count")
	}

	assertPackedMatchesRef(t, "vector-vs-scalar", false, false, -1, a, b, 1, c0, vec, sca)
}
