package blas

import (
	"sync/atomic"

	"phihpl/internal/metrics"
	"phihpl/internal/trace"
)

// Observability hooks for the packed DGEMM fast path. All sinks default
// to nil: the uninstrumented DgemmPacked pays one atomic pointer load and
// a few nil-safe counter calls per invocation and allocates nothing.
var obsTrace atomic.Pointer[trace.Recorder]

// SetObservability attaches a span recorder and a metrics registry to the
// packed GEMM fast paths. Either may be nil to disable that side.
//
// Spans (on worker 0, iter = K-block index): "pack" covers the parallel
// packing of one K-block's A strip and B tiles, "compute" the outer
// product over the packed tiles — the two phases of Section III, whose
// ratio is the paper's Fig. 4 packing share. The single-precision path emits
// the same pair as "spack"/"scompute".
//
// Counters: blas.packed_calls, blas.bytes_packed (bytes written into the
// packing buffers), blas.packed_flops (2·m·n·k per call), and their
// single-precision twins blas.spacked_calls, blas.sbytes_packed,
// blas.spacked_flops.
func SetObservability(rec *trace.Recorder, reg *metrics.Registry) {
	obsTrace.Store(rec)
	fp64.calls.Store(reg.Counter("blas.packed_calls"))
	fp64.bytes.Store(reg.Counter("blas.bytes_packed"))
	fp64.flops.Store(reg.Counter("blas.packed_flops"))
	fp32.calls.Store(reg.Counter("blas.spacked_calls"))
	fp32.bytes.Store(reg.Counter("blas.sbytes_packed"))
	fp32.flops.Store(reg.Counter("blas.spacked_flops"))
}
