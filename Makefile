# Developer entry points. Everything below is plain `go` — the Makefile
# only names the invocations CI and reviewers should run.

GO ?= go

.PHONY: all build test vet race race-scalar poolsize fuzz smoke examples experiments check clean

all: vet test

# check: the full pre-merge gate — build, vet, the whole test suite, and
# the race detector over every package with cross-goroutine mutable state.
check: build vet test race

build:
	$(GO) build ./...

# -timeout 10m: a hung cancellation path (leaked worker, wedged rank)
# fails the suite with a goroutine dump instead of stalling CI forever.
test: build
	$(GO) test -timeout 10m ./...

vet:
	$(GO) vet ./...

# race: the numerics gate for the concurrent hot path. Runs vet plus the
# race detector over the packages that share mutable state across
# goroutines: the packed DGEMM fast path, the persistent worker pool, the
# tile packers, the DAG scheduler its idle workers park in, the LU drivers
# built on top of them, the offload
# work-stealing engine (heartbeats, straggler reclaim, cancellation), the
# fault-path packages (message fabric + fault-tolerant distributed
# solver), the observability layer they all feed (span recorder +
# metrics registry), the matrix containers (FP64 and FP32) the kernels
# share, the facade package that drives the mixed-precision solve, and
# the multi-tenant solve server (queue, scheduler, cache, drain). The
# next line repeats the server's force-finalize tests: a job must never be
# visibly terminal while it still holds its slot or admission memory, a
# race one run in twenty used to show. The last repeats the FT solver's
# FaultError.Iter tests at one, two and four procs: Iter once named the
# furthest stage any rank reached, which ranks running ahead of a crash
# changed about one run in seventy-five. The FT chaos, scrub and
# look-ahead FT suites repeat at the same proc counts: the stage keeps the
# ABFT checksum panels, so FT's interleavings are the stage's. The grid's
# bitwise suites repeat at the same proc counts too: the fabric's links
# are FIFO with tag-checked receives, so a message posted out of order on
# a link fails as a tag mismatch, but only on the interleavings that
# expose it.
race:
	$(GO) vet ./...
	$(GO) test -race -timeout 10m . ./internal/matrix/... ./internal/blas/... ./internal/pool/... ./internal/pack/... ./internal/dag/... ./internal/lu/... ./internal/offload/... ./internal/cluster/... ./internal/hpl/... ./internal/fault/... ./internal/trace/... ./internal/metrics/... ./internal/server/... ./internal/journal/...
	$(GO) test -race -count=50 -run 'TestPreemptWedgedSolve$$|TestDrainForceFinalizesWedgedJob$$' ./internal/server
	$(GO) test -count=100 -cpu 1,2,4 -run 'TestFTUnrecoverableReturnsFaultError$$|TestFTFaultErrorIterIgnoresRanksAhead$$' ./internal/hpl
	$(GO) test -count=20 -cpu 1,2,4 -run 'TestFTChaosSuite$$|TestFTScrubIsReconstructed$$|TestLookaheadPipelinedFT' ./internal/hpl
	$(GO) test -count=20 -cpu 1,2,4 -run 'TestGridShapeSpaceMatchesSequential$$|FuzzSolve2D$$|TestLookaheadModesBitwiseIdentical$$' ./internal/hpl

# poolsize: the numeric suites at two pool sizes. pool.Size() is fixed at
# GOMAXPROCS for the life of a process, so one run meets one worker count;
# these two runs put every bitwise suite (packed GEMM, offload engine, LU
# drivers, grid, the facade's in-place native solve with its one-matrix
# pin, and dgemmtool's -verify cross-check, whose pack.Gemm runs on the
# pool) under a single worker and under eight, on whatever core count the
# machine has.
poolsize:
	GOMAXPROCS=1 $(GO) test -count=1 . ./internal/pool ./internal/pack ./internal/blas ./internal/offload ./internal/lu ./internal/hpl ./cmd/dgemmtool
	GOMAXPROCS=8 $(GO) test -count=1 . ./internal/pool ./internal/pack ./internal/blas ./internal/offload ./internal/lu ./internal/hpl ./cmd/dgemmtool

# smoke: end-to-end hplserver check — start the server, run an FP64, a
# native mixed, and a 2D-distributed mixed solve over HTTP, SIGTERM for
# a clean exit 0; then the crash-durability phase: SIGKILL a journaled
# server mid-job and require the restart to recover the cache and abort
# the interrupted job.
smoke:
	sh scripts/smoke_hplserver.sh

# examples: run every program under examples/ and fail on the first
# non-zero exit. Each checks its own verdict (residual PASSED, bitwise
# agreement), so an API change that still compiles but breaks a
# walkthrough fails here rather than in a reader's terminal.
examples:
	for d in examples/*/; do $(GO) run ./$$d || exit 1; done

# experiments: regenerate every table and figure of the paper (≈ 4 s).
# A model edit that panics or stops an experiment rendering fails here.
experiments:
	$(GO) run ./cmd/kncbench -exp all >/dev/null

# fuzz: a short deep-fuzz of the FP64 micro-kernel dispatcher against its
# scalar oracle (never panic, ulp envelope, no out-of-window writes — the
# assembly's C-accumulating epilogue included), the FP32 micro-kernel
# dispatcher against its own block sum added into C once (bit for bit, no
# out-of-window writes), the pack → micro-kernel → unpack chain, the fused
# panel factorization and the level-1 axpy against the Go loops they
# replaced (bit for bit; each input runs as float64 through daxpyAVX2 and
# again rounded to float32 through saxpyAVX2, so one target covers both
# assembly leaves), the grid driver's shape space (n, NB, P, Q, schedule,
# precision) against the shared-memory LU bit for bit, then the
# write-ahead journal's crash-recovery scanner (arbitrary bytes must never
# panic, and repair accounting must close exactly).
fuzz:
	$(GO) test ./internal/pack -fuzz 'FuzzMicroKernel$$' -fuzztime 30s
	$(GO) test ./internal/pack -fuzz FuzzMicroKernel32 -fuzztime 30s
	$(GO) test ./internal/blas -fuzz FuzzPackedGemm -fuzztime 30s
	$(GO) test ./internal/blas -fuzz FuzzDgetf2 -fuzztime 30s
	$(GO) test ./internal/blas -fuzz FuzzAxpy -fuzztime 30s
	$(GO) test ./internal/hpl -run '^$$' -fuzz FuzzSolve2D -fuzztime 30s
	$(GO) test ./internal/journal -fuzz FuzzJournalDecode -fuzztime 30s

# race-scalar: the race gate with every assembly kernel disabled — the
# micro-kernels and the level-1 axpy behind Daxpy/Trsm/Getf2 — so the
# portable-scalar oracle path of the generic pack and blas code runs under
# the race detector in both instantiations, and above it the offload
# engine and both instantiations of the grid driver (grid2d[float64],
# grid2d[float32]) and dgemmtool's -verify cross-check run their bitwise
# suites over the pure-Go kernels; then
# the numeric packages and the facade, whose native solve runs both
# instantiations of the generic LU drivers, built with the noasm tag.
# Both routes are asserted, not assumed:
# TestMicroKernelDispatchFollowsKernelGates, TestLevel1DispatchFollowsKernelGates
# and (noasm) TestNoasmTagDisablesVectorKernels fail if any of them still
# reaches assembly. The same leg CI's scalar-oracle job runs. The first
# leg runs with -count=1: pack reads PHIHPL_DISABLE_VECTOR_KERNEL in a
# package initializer, before go test records environment reads, so the
# test cache would otherwise replay make race's vector-kernel passes.
race-scalar:
	PHIHPL_DISABLE_VECTOR_KERNEL=1 $(GO) test -count=1 -race -timeout 10m ./internal/blas/... ./internal/pack/... ./internal/offload/... ./internal/lu/... ./internal/pool/... ./internal/dag/... ./internal/hpl/... ./cmd/dgemmtool
	$(GO) vet -tags noasm ./internal/pack/... ./internal/blas/...
	$(GO) test -tags noasm -timeout 10m . ./internal/pack/... ./internal/blas/... ./internal/lu/...

clean:
	$(GO) clean ./...
