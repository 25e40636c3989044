package hpl

import (
	"errors"
	"fmt"

	"phihpl/internal/blas"
	"phihpl/internal/cluster"
	"phihpl/internal/matrix"
)

// send and recv are the grid's wire leaf: the one place its element type
// meets the fabric's two typed float lanes. An FP32 grid's payloads travel
// as float32 (Send32/Msg.F32) — half the wire bytes, under the same
// checksum/retransmit machinery — never widened and narrowed again, so a
// relayed payload stays bitwise the root's in either precision.

// send delivers f (and ints) to dst on the lane of the grid's element type.
func (g *grid2d[T]) send(dst, tag int, f []T, ints []int) error {
	if matrix.Is64[T]() {
		return g.c.Send(dst, tag, matrix.Slice64(f), ints)
	}
	return g.c.Send32(dst, tag, matrix.Slice32(f), ints)
}

// handOver is send without the copy, for the final gather: f and ints
// pass to dst as they are, and this rank never writes them again.
func (g *grid2d[T]) handOver(dst, tag int, f []T, ints []int) error {
	m := cluster.Msg{Tag: tag, I: ints}
	if matrix.Is64[T]() {
		m.F = matrix.Slice64(f)
	} else {
		m.F32 = matrix.Slice32(f)
	}
	return g.c.HandOver(dst, m)
}

// recv receives (src, tag) and returns the float payload of the grid's
// lane together with the int payload. The grid is instantiated over
// float64 and float32 themselves, which is what the assertion states.
func (g *grid2d[T]) recv(src, tag int) ([]T, []int, error) {
	msg, err := g.c.Recv(src, tag)
	if err != nil {
		return nil, nil, err
	}
	var f any = msg.F32
	if matrix.Is64[T]() {
		f = msg.F
	}
	return f.([]T), msg.I, nil
}

// flatten returns m's rows back to back as a send payload (a send copies
// it): m's own storage when m is compact, capped so an append reallocates,
// else a fresh copy. The result may share m's storage, so callers only
// read it.
func flatten[T matrix.Float](m *matrix.Of[T]) []T {
	if n := m.Rows * m.Cols; m.Rows <= 1 || m.Stride == m.Cols {
		return m.Data[:n:n]
	}
	out := make([]T, 0, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		out = append(out, m.Row(i)...)
	}
	return out
}

// unflatten reshapes a received payload, rejecting shape mismatches as a
// typed error (a corrupted or mis-routed message, not a crash).
func unflatten[T matrix.Float](data []T, rows, cols int) (*matrix.Of[T], error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("hpl: payload %d != %dx%d elements", len(data), rows, cols)
	}
	return &matrix.Of[T]{Rows: rows, Cols: cols, Stride: cols, Data: data}, nil
}

// singularFlag encodes a (possibly nil) singularity error as the
// {flag, column} int payload of a rank's final gather message.
func singularFlag(err error) []int {
	if err == nil {
		return []int{0, 0}
	}
	col := -1
	var se *blas.SingularError
	if errors.As(err, &se) {
		col = se.Col
	}
	return []int{1, col}
}

// singularFromFlag decodes singularFlag's payload.
func singularFromFlag(ints []int) error {
	if len(ints) < 1 || ints[0] == 0 {
		return nil
	}
	if len(ints) >= 2 && ints[1] >= 0 {
		return &blas.SingularError{Col: ints[1]}
	}
	return blas.ErrSingular
}
