package cluster

import (
	"math"
	"math/bits"
	"testing"

	"phihpl/internal/testutil"
)

// TestBcastTreePlan checks the binomial plan is a well-formed tree for
// every (size, root): each non-root rank has exactly one parent, the
// parent's child list contains it, and the root reaches everyone.
func TestBcastTreePlan(t *testing.T) {
	for m := 1; m <= 17; m++ {
		for root := 0; root < m; root++ {
			seen := make(map[int]bool, m)
			for me := 0; me < m; me++ {
				parent, children := BcastTree(m, root, me)
				if me == root {
					if parent != -1 {
						t.Fatalf("m=%d root=%d: root has parent %d", m, root, parent)
					}
				} else {
					if parent < 0 || parent >= m {
						t.Fatalf("m=%d root=%d me=%d: bad parent %d", m, root, me, parent)
					}
					_, pc := BcastTree(m, root, parent)
					found := false
					for _, c := range pc {
						if c == me {
							found = true
						}
					}
					if !found {
						t.Fatalf("m=%d root=%d me=%d: parent %d does not list me (children %v)", m, root, me, parent, pc)
					}
				}
				for _, c := range children {
					if c < 0 || c >= m || c == me {
						t.Fatalf("m=%d root=%d me=%d: bad child %d", m, root, me, c)
					}
					if seen[c] {
						t.Fatalf("m=%d root=%d: rank %d has two parents", m, root, c)
					}
					seen[c] = true
				}
			}
			if len(seen) != m-1 {
				t.Fatalf("m=%d root=%d: tree reaches %d of %d non-root ranks", m, root, len(seen), m-1)
			}
		}
	}
}

// TestBcastTreeDelivery runs a real tree broadcast from every root of an
// 8-rank world and asserts every rank receives the root's payload
// bitwise, and that a root issues only ceil(log2 P) sends.
func TestBcastTreeDelivery(t *testing.T) {
	defer testutil.NoLeaks(t)()
	const size = 8
	payloadF := []float64{1.5, -2.25, math.Pi, 0, math.Inf(1)}
	payloadI := []int{7, -3, 0, 1 << 30}

	w := NewWorldOpts(size, Options{Buffer: 8})
	err := w.Run(func(c *Comm) error {
		for root := 0; root < size; root++ {
			m, err := c.Bcast(root, 100+root, payloadF, payloadI)
			if err != nil {
				return err
			}
			if m.Src != root || m.Tag != 100+root {
				t.Errorf("rank %d root %d: got src=%d tag=%d", c.Rank(), root, m.Src, m.Tag)
			}
			if len(m.F) != len(payloadF) || len(m.I) != len(payloadI) {
				t.Errorf("rank %d root %d: payload size mismatch", c.Rank(), root)
				continue
			}
			for i, v := range payloadF {
				if math.Float64bits(m.F[i]) != math.Float64bits(v) {
					t.Errorf("rank %d root %d: F[%d]=%v want %v", c.Rank(), root, i, m.F[i], v)
				}
			}
			for i, v := range payloadI {
				if m.I[i] != v {
					t.Errorf("rank %d root %d: I[%d]=%d want %d", c.Rank(), root, i, m.I[i], v)
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A rank's send count mixes root and relay sends across the loop
	// above, so measure the root role on a single-broadcast world.
	w = NewWorldOpts(size, Options{Buffer: 8})
	if err := w.Run(func(c *Comm) error {
		_, err := c.Bcast(0, 42, []float64{1, 2, 3}, []int{4})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := w.SendCount(0), uint64(bits.Len(uint(size-1))); got != want { // ceil(log2 8) = 3
		t.Fatalf("tree root sends = %d, want %d", got, want)
	}
}

// TestBcastTreeCost sanity-checks the cost model: the tree beats the
// flat root fan-out for short messages at P ≥ 4 and both are monotone in
// member count.
func TestBcastTreeCost(t *testing.T) {
	m := NewCostModel()
	const bytes = 4096
	for _, p := range []int{4, 8, 16, 64} {
		tree := m.BcastTree(bytes, p)
		flat := float64(p-1) * m.PtToPt(bytes)
		if tree <= 0 {
			t.Fatalf("P=%d: tree cost %v not positive", p, tree)
		}
		if tree >= flat {
			t.Fatalf("P=%d: tree cost %v not below flat fan-out %v", p, tree, flat)
		}
	}
	if m.BcastTree(bytes, 1) != 0 || m.BcastTree(0, 8) != 0 {
		t.Fatal("degenerate BcastTree costs should be zero")
	}
	if m.BcastTree(bytes, 16) <= m.BcastTree(bytes, 4) {
		t.Fatal("BcastTree should grow with member count")
	}
}
