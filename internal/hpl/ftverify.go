package hpl

import (
	"fmt"
	"math"
	"slices"

	"phihpl/internal/matrix"
)

// verify is the super-step ABFT check after stage k. For every trailing
// block row I ≥ k+1 the row's ranks reduce Σ_{J≥k+1} A(I,J)·S_J to the
// checksum owner, which compares against C1/C2. A single corrupted block
// is localized by the elementwise weight ratio δ2/δ1 ≈ J0+1 and repaired
// in place; a corrupted checksum block is rebuilt from the clean data;
// anything else is ErrChecksum (the driver rolls back). All ranks then
// agree on the global verdict through rank 0.
func (f *ftGrid) verify(k int) error {
	worst := ftClean
	for i := k + 1; i < f.nBlocks; i++ {
		if i%f.P != f.p {
			continue
		}
		st, err := f.verifyRow(k, i)
		if err != nil {
			return err
		}
		if st > worst {
			worst = st
		}
	}

	// Global verdict: reduce the worst status to rank 0 and fan back out.
	tag := tagFTWorst + k
	global := worst
	if f.me() == 0 {
		for r := 1; r < f.P*f.Q; r++ {
			msg, err := f.c.Recv(r, tag)
			if err != nil {
				return err
			}
			if len(msg.I) > 0 && msg.I[0] > global {
				global = msg.I[0]
			}
		}
		for r := 1; r < f.P*f.Q; r++ {
			if err := f.c.Send(r, tag, nil, []int{global}); err != nil {
				return err
			}
		}
	} else {
		if err := f.c.Send(0, tag, nil, []int{worst}); err != nil {
			return err
		}
		msg, err := f.c.Recv(0, tag)
		if err != nil {
			return err
		}
		if len(msg.I) > 0 {
			global = msg.I[0]
		}
	}
	if global >= ftLost {
		return fmt.Errorf("hpl: super-step after stage %d: %w", k, ErrChecksum)
	}
	return nil
}

// rowPartial reduces this rank's trailing blocks of row i into the pair
// of local checksum partials Σ A(i,J)·S_J and Σ (J+1)·A(i,J)·S_J. A
// non-negative skipJ leaves that block column out — used when re-reducing
// around a block known to be corrupt.
func (f *ftGrid) rowPartial(k, i, skipJ int) (*matrix.Dense, *matrix.Dense) {
	r, _ := f.blockDims(i, 0)
	ps1 := matrix.NewDense(r, f.nb)
	ps2 := matrix.NewDense(r, f.nb)
	for j := k + 1; j < f.nBlocks; j++ {
		if j%f.Q != f.q || j == skipJ {
			continue
		}
		blk := f.block(i, j)
		_, w := f.blockDims(i, j)
		wgt := float64(j + 1)
		for rr := 0; rr < r; rr++ {
			src := blk.Row(rr)
			d1, d2 := ps1.Row(rr), ps2.Row(rr)
			for cc := 0; cc < w; cc++ {
				d1[cc] += src[cc]
				d2[cc] += wgt * src[cc]
			}
		}
	}
	return ps1, ps2
}

// verifyRow runs the reduction and verdict exchange for one trailing
// block row I and returns this rank's observed status.
func (f *ftGrid) verifyRow(k, i int) (int, error) {
	r, _ := f.blockDims(i, 0)
	own1, own2 := f.rowPartial(k, i, -1)
	sumTag := tagFTSum + k*f.nBlocks + i
	verTag := tagFTVerdict + k*f.nBlocks + i
	fixTag := tagFTFix + k*f.nBlocks + i

	if f.q != f.cq {
		// Contribute the partial sums, then act on the owner's verdict.
		if err := f.c.Send(f.rank(f.p, f.cq), sumTag, slices.Concat(flatten(own1), flatten(own2)), nil); err != nil {
			return 0, err
		}
		msg, err := f.c.Recv(f.rank(f.p, f.cq), verTag)
		if err != nil {
			return 0, err
		}
		if len(msg.I) < 2 {
			return 0, fmt.Errorf("hpl: malformed verdict for row %d", i)
		}
		st, j0 := msg.I[0], msg.I[1]
		if st == ftFixed && j0%f.Q == f.q {
			// Second round: ship a partial that excludes the corrupt
			// block, then install the exact value the owner computes.
			ex1, _ := f.rowPartial(k, i, j0)
			if err := f.c.Send(f.rank(f.p, f.cq), fixTag, flatten(ex1), nil); err != nil {
				return 0, err
			}
			fixed, err := f.c.Recv(f.rank(f.p, f.cq), fixTag)
			if err != nil {
				return 0, err
			}
			if err := f.installBlock(i, j0, fixed.F, r); err != nil {
				return 0, err
			}
		}
		return st, nil
	}

	// Checksum owner: fold in the row peers' partials, keeping each one so
	// a repair can re-reduce without the corrupted block's contribution.
	s1, s2 := own1.Clone(), own2.Clone()
	peers := make(map[int][]float64, f.Q-1)
	for qq := 0; qq < f.Q; qq++ {
		if qq == f.cq {
			continue
		}
		msg, err := f.c.Recv(f.rank(f.p, qq), sumTag)
		if err != nil {
			return 0, err
		}
		if len(msg.F) != 2*r*f.nb {
			return 0, fmt.Errorf("hpl: partial-sum payload %d != %d", len(msg.F), 2*r*f.nb)
		}
		peers[qq] = msg.F
		for rr := 0; rr < r; rr++ {
			d1, d2 := s1.Row(rr), s2.Row(rr)
			for cc := 0; cc < f.nb; cc++ {
				d1[cc] += msg.F[rr*f.nb+cc]
				d2[cc] += msg.F[(r+rr)*f.nb+cc]
			}
		}
	}
	st, j0 := f.judgeRow(k, i, s1, s2)
	for qq := 0; qq < f.Q; qq++ {
		if qq == f.cq {
			continue
		}
		if err := f.c.Send(f.rank(f.p, qq), verTag, nil, []int{st, j0}); err != nil {
			return 0, err
		}
	}
	if st == ftFixed {
		// Rebuild the block as C1 − Σ_{J≠j0} from partials that never saw
		// the corrupted value. An additive in-place correction would
		// cancel the corruption against sums of its own magnitude and
		// leave an absolute error proportional to it; the re-reduction
		// keeps the repair at ordinary roundoff level.
		q0 := j0 % f.Q
		var ex1 *matrix.Dense
		if q0 == f.cq {
			ex1, _ = f.rowPartial(k, i, j0)
		} else {
			msg, err := f.c.Recv(f.rank(f.p, q0), fixTag)
			if err != nil {
				return 0, err
			}
			if len(msg.F) != r*f.nb {
				return 0, fmt.Errorf("hpl: repair partial payload %d != %d", len(msg.F), r*f.nb)
			}
			var uerr error
			ex1, uerr = unflatten(msg.F, r, f.nb)
			if uerr != nil {
				return 0, uerr
			}
		}
		fixed := make([]float64, r*f.nb)
		ck1, _ := f.chkBlocks(i)
		for rr := 0; rr < r; rr++ {
			c1, ex := ck1.Row(rr), ex1.Row(rr)
			for cc := 0; cc < f.nb; cc++ {
				tot := ex[cc]
				for qq, pf := range peers {
					if qq == q0 {
						continue
					}
					tot += pf[rr*f.nb+cc]
				}
				if q0 != f.cq {
					tot += own1.At(rr, cc)
				}
				fixed[rr*f.nb+cc] = c1[cc] - tot
			}
		}
		if q0 == f.cq {
			if err := f.installBlock(i, j0, fixed, r); err != nil {
				return 0, err
			}
		} else if err := f.c.Send(f.rank(f.p, q0), fixTag, fixed, nil); err != nil {
			return 0, err
		}
	}
	return st, nil
}

// judgeRow compares the reduced sums against the checksum blocks of row i
// and decides clean / fixable / rebuilt / lost, localizing a single
// corrupted data block through the weight ratio δ2/δ1 ≈ J0+1.
func (f *ftGrid) judgeRow(k, i int, sum1, sum2 *matrix.Dense) (status, j0 int) {
	r := sum1.Rows
	d1 := matrix.NewDense(r, f.nb)
	d2 := matrix.NewDense(r, f.nb)
	var m1, m2 float64
	var imax, cmax int
	ck1, ck2 := f.chkBlocks(i)
	for rr := 0; rr < r; rr++ {
		c1, c2 := ck1.Row(rr), ck2.Row(rr)
		s1, s2 := sum1.Row(rr), sum2.Row(rr)
		e1, e2 := d1.Row(rr), d2.Row(rr)
		for cc := 0; cc < f.nb; cc++ {
			e1[cc] = c1[cc] - s1[cc]
			e2[cc] = c2[cc] - s2[cc]
			if a := math.Abs(e1[cc]); a > m1 {
				m1, imax, cmax = a, rr, cc
			}
			if a := math.Abs(e2[cc]); a > m2 {
				m2 = a
			}
		}
	}
	switch {
	case m1 <= ftTol && m2 <= ftTol:
		return ftClean, -1
	case m1 <= ftTol:
		// Only the weighted checksum disagrees: C2 itself is corrupt.
		ck2.CopyFrom(sum2)
		f.store.noteRebuild()
		return ftRebuilt, -1
	case m2 <= ftTol:
		ck1.CopyFrom(sum1)
		f.store.noteRebuild()
		return ftRebuilt, -1
	}
	// Both disagree: a data block. δ2 = (J0+1)·δ1 elementwise.
	ratio := d2.At(imax, cmax) / d1.At(imax, cmax)
	j0 = int(math.Round(ratio)) - 1
	if j0 < k+1 || j0 >= f.nBlocks {
		return ftLost, -1
	}
	// Consistency: the whole residue must honor the weight.
	wgt := float64(j0 + 1)
	for rr := 0; rr < r; rr++ {
		e1, e2 := d1.Row(rr), d2.Row(rr)
		for cc := 0; cc < f.nb; cc++ {
			if math.Abs(e2[cc]-wgt*e1[cc]) > ftTol*wgt {
				return ftLost, -1
			}
		}
	}
	f.store.noteReconstruction()
	return ftFixed, j0
}

// installBlock overwrites the corrupted block (i, j0) with the value
// reconstructed from the checksum, restricted to the block's true width.
func (f *ftGrid) installBlock(i, j0 int, vals []float64, r int) error {
	if op, oq := f.owner(i, j0); op != f.p || oq != f.q || j0 < 0 || j0 >= f.nBlocks {
		return fmt.Errorf("hpl: fix targets unowned block (%d,%d)", i, j0)
	}
	if len(vals) != r*f.nb {
		return fmt.Errorf("hpl: reconstruction payload %d != %d", len(vals), r*f.nb)
	}
	blk := f.block(i, j0)
	_, w := f.blockDims(i, j0)
	for rr := 0; rr < r; rr++ {
		row := blk.Row(rr)
		for cc := 0; cc < w; cc++ {
			row[cc] = vals[rr*f.nb+cc]
		}
	}
	return nil
}

// checkpoint deposits this rank's post-stage-k state into the stable
// store; the store promotes the checkpoint once every rank has deposited.
func (f *ftGrid) checkpoint(k int) {
	live := ftSnap{a: f.a, globalPiv: f.globalPiv, firstError: f.firstError}
	f.store.deposit(f.me(), k+1, live.clone())
}
