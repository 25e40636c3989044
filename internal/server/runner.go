package server

import (
	"context"

	"phihpl"
	"phihpl/internal/trace"
)

// DefaultRunner runs a validated Spec through the facade's one entry
// point — the same call cmd/hpl makes, so a job observes its deadline at
// every task-issue and stage boundary, worker panics arrive as typed
// *pool.PanicError, and results are bitwise identical to the CLI's. Tests
// wrap this to inject chaos (panics, transient errors) while delegating
// real specs unchanged.
func DefaultRunner(ctx context.Context, sp Spec, rec *trace.Recorder) (phihpl.SolveResult, error) {
	return phihpl.Run(ctx, sp.Spec, rec)
}
