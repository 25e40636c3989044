package hpl

import (
	"context"

	"phihpl/internal/matrix"
	"phihpl/internal/offload"
)

// offloadUpdate computes c += negL·u — one block column's whole trailing
// update, negL being the stage's −L21, negated once per stage — in one
// call of the work-stealing engine, propagating ctx into it (nil ctx
// means run to completion). Tiles are sized for a card+host split of one
// nb×nb block — negL's width is the panel's nb — so a column splits into
// the tiles its blocks did. The engine computes in FP64 only: an FP32
// grid never routes an update here (solve2DOnce), and As64 refuses one
// that would.
func offloadUpdate[T matrix.Float](ctx context.Context, negL, u, c *matrix.Of[T]) error {
	if ctx == nil {
		ctx = context.Background()
	}
	_, err := offload.ComputeCtx(ctx, negL.As64(), u.As64(), c.As64(), offload.RealConfig{
		Mt: negL.Cols/2 + 1, Nt: c.Cols/2 + 1, CardWorkers: 1, HostWorkers: 1,
	})
	return err
}
