// Command hplserver runs HPL-as-a-service: a long-running, multi-tenant
// solve server over the cancellable phihpl stack.
//
//	hplserver -addr :8080 -queue 64 -concurrency 2 -tenant-cap 2
//
// Submit and watch jobs:
//
//	curl -s -XPOST localhost:8080/v1/solve -H 'X-Tenant: alice' \
//	     -d '{"mode":"native","n":512,"nb":64,"workers":4}'
//	curl -s localhost:8080/v1/jobs/j-1
//	curl -sN localhost:8080/v1/jobs/j-1/stream
//	curl -s localhost:8080/metrics?format=text
//
// Robustness contract (DESIGN.md §11): a full queue answers 429 +
// Retry-After; invalid requests get typed 400s; every job runs under a
// server-enforced deadline with per-job panic isolation and transient-
// error retries; SIGTERM/SIGINT drains gracefully — admission stops,
// /readyz flips to 503, queued jobs abort, running jobs get the drain
// deadline to finish, and the process exits 0.
//
// Durability (DESIGN.md §13): -journal enables a write-ahead journal of
// job state. After a crash (SIGKILL, OOM, power loss) the next start
// replays it — completed results and the deterministic-spec cache
// survive verbatim, queued jobs are re-enqueued and run, and jobs that
// were mid-solve are marked ABORTED with a typed "interrupted" error.
// /readyz answers 503 {"status":"recovering"} until replay completes.
//
//	hplserver -addr :8080 -journal /var/lib/hplserver/wal.journal
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"phihpl/internal/blas"
	"phihpl/internal/cluster"
	"phihpl/internal/hpl"
	"phihpl/internal/lu"
	"phihpl/internal/metrics"
	"phihpl/internal/pool"
	"phihpl/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		queue       = flag.Int("queue", 64, "bounded queue depth across tenants (full queue => 429)")
		concurrency = flag.Int("concurrency", 2, "scheduler workers = max concurrently running jobs")
		tenantCap   = flag.Int("tenant-cap", 0, "max concurrently running jobs per tenant (0 = concurrency/2)")
		weights     = flag.String("tenant-weights", "", "weighted round-robin dequeue weights, e.g. 'alice=3,bob=1'")
		maxN        = flag.Int("max-n", 4096, "largest accepted problem size")
		maxGrid     = flag.Int("max-grid", 16, "largest accepted P*Q process grid")
		memBudget   = flag.Int("mem-budget-mib", 4096, "running-jobs matrix-footprint budget (MiB); jobs queue rather than OOM")
		jobTimeout  = flag.Duration("job-timeout", time.Minute, "default per-job deadline")
		maxTimeout  = flag.Duration("max-job-timeout", 5*time.Minute, "ceiling on any per-job deadline")
		retries     = flag.Int("retries", 2, "default transient-error retry budget per job")
		drain       = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on SIGTERM/SIGINT before in-flight jobs are cancelled")

		journalPath  = flag.String("journal", "", "write-ahead journal file for durable job state ('' = in-memory only)")
		compactEvery = flag.Int("journal-compact-every", 4096, "journal records between snapshot compactions (<0 disables)")
		preemptGrace = flag.Duration("preempt-grace", 3*time.Second, "window a cancelled solve gets to unwind before it is force-finalized")
	)
	flag.Parse()

	tw, err := parseWeights(*weights)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	// One registry feeds /metrics from every layer the jobs touch: the
	// worker pool, the packed BLAS, the cluster fabric, the LU drivers and
	// the server's own admission/fairness/cache counters.
	reg := metrics.NewRegistry()
	pool.SetObservability(nil, reg)
	blas.SetObservability(nil, reg)
	cluster.SetMetrics(reg)
	hpl.SetMetrics(reg)
	lu.SetMetrics(reg)

	srv, err := server.Open(server.Config{
		QueueDepth:     *queue,
		Concurrency:    *concurrency,
		TenantCap:      *tenantCap,
		TenantWeights:  tw,
		MaxN:           *maxN,
		MaxGrid:        *maxGrid,
		MemBudget:      int64(*memBudget) << 20,
		DefaultTimeout: *jobTimeout,
		MaxTimeout:     *maxTimeout,
		DefaultRetries: *retries,
		Metrics:        reg,
		JournalPath:    *journalPath,
		CompactEvery:   *compactEvery,
		PreemptGrace:   *preemptGrace,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	// Recovery banner: log what the journal replay found as soon as it
	// settles (immediately when -journal is unset). Readiness (/readyz)
	// flips 503 "recovering" -> 200 at the same moment.
	go func() {
		st, err := srv.WaitRecovered(context.Background())
		if err != nil {
			return
		}
		if *journalPath == "" {
			return
		}
		log.Printf("journal replay done (boot generation %d): %d terminal restored, %d cache entries, "+
			"%d requeued, %d interrupted, %d invalid",
			st.Generation, st.RestoredTerminal, st.RestoredCache, st.Requeued, st.Interrupted, st.Invalid)
		if js := st.Journal; js.Damaged() {
			log.Printf("journal repair: %d torn bytes truncated, %d CRC-corrupt frames skipped, bad header=%v",
				js.TruncatedBytes, js.SkippedCRC, js.BadHeader)
		}
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatalf("serve: %v", err)
		}
	}()
	log.Printf("hplserver listening on %s (queue=%d concurrency=%d)", ln.Addr(), *queue, *concurrency)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	log.Printf("received %s: draining (budget %s)", got, *drain)

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain: %v", err)
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	_ = httpSrv.Shutdown(shutCtx)
	log.Printf("drained; exiting 0")
}

// parseWeights parses "a=3,b=1" into a weight map. Names and weights are
// trimmed, and a name given twice is refused; server.Open refuses a name
// no tenant can have.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("tenant-weights: %q is not tenant=weight", part)
		}
		k = strings.TrimSpace(k)
		w, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("tenant-weights: %q must have a positive integer weight", part)
		}
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("tenant-weights: tenant %q is given more than once", k)
		}
		out[k] = w
	}
	return out, nil
}
