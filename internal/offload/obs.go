package offload

import (
	"sync/atomic"

	"phihpl/internal/metrics"
	"phihpl/internal/trace"
)

// Observability hooks for the real offload engine. All sinks default to
// nil: an uninstrumented ComputeCtx pays one atomic pointer load per
// worker plus nil-safe counter calls on the (rare) degradation events.
var (
	obsTrace      atomic.Pointer[trace.Recorder]
	mRuns         atomic.Pointer[metrics.Counter]
	mReclaimed    atomic.Pointer[metrics.Counter]
	mLost         atomic.Pointer[metrics.Counter]
	mDegradedRuns atomic.Pointer[metrics.Counter]
)

// SetObservability attaches a span recorder and a metrics registry to the
// offload engine. Either may be nil to disable that side.
//
// Spans (iter = tile index): "offload.card_tile" on the card worker's lane
// covers multiply+commit of one tile on the card path;
// "offload.host_tile" on a lane above the card lanes covers one host-path
// tile — together they redraw the paper's host/card split as a timeline.
//
// Counters: offload.runs (engine runs that scheduled tiles, in either
// precision),
// offload.reclaimed_tiles (tiles taken back from lost card workers),
// offload.lost_workers (card workers declared dead by the straggler
// monitor), offload.degraded_runs (runs that lost at least one card
// worker).
func SetObservability(rec *trace.Recorder, reg *metrics.Registry) {
	obsTrace.Store(rec)
	mRuns.Store(reg.Counter("offload.runs"))
	mReclaimed.Store(reg.Counter("offload.reclaimed_tiles"))
	mLost.Store(reg.Counter("offload.lost_workers"))
	mDegradedRuns.Store(reg.Counter("offload.degraded_runs"))
}
