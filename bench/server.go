package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"phihpl"
	"phihpl/internal/journal"
	"phihpl/internal/matrix"
	"phihpl/internal/metrics"
	"phihpl/internal/server"
	"phihpl/internal/trace"
)

// service is one hplserver behind a loopback HTTP listener.
type service struct {
	srv *server.Server
	ts  *httptest.Server
}

func openService(cfg server.Config) (*service, error) {
	srv, err := server.Open(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := srv.WaitRecovered(context.Background()); err != nil {
		srv.Close()
		return nil, err
	}
	return &service{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

func (s *service) close() {
	s.ts.Close()
	s.srv.Close()
}

// counters fetches GET /metrics.
func (s *service) counters() (metrics.Snapshot, error) {
	var snap metrics.Snapshot
	resp, err := http.Get(s.ts.URL + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// reply is the part of a job's JSON the benchmark reads. Result stays raw
// so a cache hit can be compared byte for byte with the job it repeats.
type reply struct {
	ID     string          `json:"id"`
	State  server.State    `json:"state"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// finished is a spec a client has completed, and the result it got.
type finished struct {
	spec   server.JobSpec
	result []byte
}

// client is one tenant with one keep-alive connection and a schedule drawn
// from its own generator, so the schedule depends on the seed alone.
type client struct {
	id     int
	base   string
	http   *http.Client
	tenant string
	n      int
	seed   uint64
	rng    *matrix.PRNG
	issued int
	done   []finished
	rec    *trace.Recorder // nil outside the traced pass
}

func newClient(base string, id, n int, seed uint64, rec *trace.Recorder) *client {
	return &client{
		id: id, base: base, n: n, seed: seed, rec: rec,
		tenant: fmt.Sprintf("t%d", id),
		rng:    matrix.NewPRNG(mix(seed, id, 0)),
		http:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
}

// fresh is a spec no client has submitted before: native FP64, native mixed
// or dist2d by kind, every other field the server's default.
func (c *client) fresh(kind int) server.JobSpec {
	c.issued++
	spec := server.JobSpec{Tenant: c.tenant, N: c.n, Seed: mix(c.seed, 1000+c.id, c.issued)}
	switch kind {
	case 1:
		spec.Precision = "mixed"
	case 2:
		spec.Mode = "dist2d"
	}
	return spec
}

// next draws the schedule: 30 % native FP64, 20 % native mixed, 20 % dist2d,
// all on fresh seeds, and 30 % exact repeats of a spec this client completed.
func (c *client) next() (server.JobSpec, *finished) {
	switch d := c.rng.Intn(10); {
	case d < 3:
		return c.fresh(0), nil
	case d < 5:
		return c.fresh(1), nil
	case d < 7 || len(c.done) == 0:
		return c.fresh(2), nil
	default:
		f := &c.done[c.rng.Intn(len(c.done))]
		return f.spec, f
	}
}

// timing is one operation as the client saw it.
type timing struct{ total, submit float64 }

// do runs one operation, request to verified result: POST /v1/solve; on 202
// follow the event stream to "done" and fetch the job; on 200 the body is
// the result. want is the job this one repeats, nil for a fresh spec. The
// returned reason is empty when every response was the expected one and the
// result verified.
func (c *client) do(spec server.JobSpec, want *finished, iter int) (tm timing, why string) {
	lane := callLane + 2*c.id
	t0 := c.rec.Start()
	start := time.Now()
	defer func() {
		tm.total = time.Since(start).Seconds()
		c.rec.Since(opLane+2*c.id, "op.server", iter, t0)
	}()

	body, err := json.Marshal(spec)
	if err != nil {
		return tm, err.Error()
	}
	ts := c.rec.Start()
	status, raw, err := c.roundTrip(http.MethodPost, "/v1/solve", body)
	tm.submit = time.Since(start).Seconds()
	c.rec.Since(lane, "submit", iter, ts)
	if err != nil {
		return tm, err.Error()
	}
	var r reply
	if err := json.Unmarshal(raw, &r); err != nil {
		return tm, "submit reply: " + err.Error()
	}
	hit := status == http.StatusOK
	switch {
	case want != nil && !hit:
		return tm, fmt.Sprintf("repeat of a completed spec answered %d, not 200", status)
	case want == nil && status != http.StatusAccepted:
		return tm, fmt.Sprintf("fresh spec answered %d, not 202", status)
	}
	if !hit {
		ts = c.rec.Start()
		err := c.awaitDone(r.ID)
		c.rec.Since(lane, "stream-wait", iter, ts)
		if err != nil {
			return tm, err.Error()
		}
		ts = c.rec.Start()
		status, raw, err = c.roundTrip(http.MethodGet, "/v1/jobs/"+r.ID, nil)
		c.rec.Since(lane, "fetch", iter, ts)
		if err != nil || status != http.StatusOK {
			return tm, fmt.Sprintf("fetch %s: status %d, %v", r.ID, status, err)
		}
		r = reply{}
		if err := json.Unmarshal(raw, &r); err != nil {
			return tm, "job reply: " + err.Error()
		}
	}

	var res server.ResultView
	if err := json.Unmarshal(r.Result, &res); err != nil {
		return tm, fmt.Sprintf("job %s (%s) has no result: %v", r.ID, r.State, err)
	}
	switch {
	case r.State != server.StatePassed || !res.Passed || math.IsNaN(res.Residual) || res.Residual >= phihpl.ResidualThreshold:
		return tm, fmt.Sprintf("job %s is %s with residual %g", r.ID, r.State, res.Residual)
	case want != nil && !(r.Cached && bytes.Equal(r.Result, want.result)):
		return tm, fmt.Sprintf("job %s: cache hit differs from the job it repeats", r.ID)
	}
	if spec.Precision == "mixed" {
		if why := fallbackVerdict(res.Refine, spec.N, 64, spec.Seed); why != "" {
			return tm, fmt.Sprintf("job %s: %s", r.ID, why)
		}
	}
	if want == nil {
		c.done = append(c.done, finished{spec: spec, result: r.Result})
	}
	return tm, ""
}

func (c *client) roundTrip(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// awaitDone reads the job's server-sent events until the terminal one.
func (c *client) awaitDone(id string) error {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream %s: status %d", id, resp.StatusCode)
	}
	lines := bufio.NewScanner(resp.Body)
	for lines.Scan() {
		if strings.TrimSpace(lines.Text()) == "event: done" {
			_, err := io.Copy(io.Discard, resp.Body) // so the connection is reused
			return err
		}
	}
	return fmt.Errorf("stream %s ended without a done event: %v", id, lines.Err())
}

// load is what the two clients measured together.
type load struct {
	childResult
	submit, hit []float64 // POST→202 and POST→200 seconds
	repeats     int       // scheduled repeats, which the server must count as cache hits
	first       finished  // the first warm-up job: native FP64
}

// drive runs the closed loop of two clients against svc: warm-up, then ops
// timed operations per client, or as many as fit in window when ops is 0.
func drive(cfg childConfig, svc *service, ops int, rec *trace.Recorder) load {
	var ld load
	var mu sync.Mutex
	clients := []*client{
		newClient(svc.ts.URL, 0, cfg.Size.ServerN, mix(cfg.Seed, cfg.Child, 0), rec),
		newClient(svc.ts.URL, 1, cfg.Size.ServerN, mix(cfg.Seed, cfg.Child, 0), rec),
	}
	both := func(f func(c *client)) {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				f(c)
			}(c)
		}
		wg.Wait()
	}
	both(func(c *client) {
		for i := 0; i < cfg.Size.ServerWarm; i++ {
			if _, why := c.do(c.fresh(i%3), nil, -1-i); why != "" {
				mu.Lock()
				ld.mismatch("warm-up: " + why)
				mu.Unlock()
			}
		}
	})
	if len(clients[0].done) > 0 {
		ld.first = clients[0].done[0]
	}

	start := time.Now()
	ld.SetupS = float64(start.UnixNano()-cfg.Spawned) / 1e9
	both(func(c *client) {
		for i := 0; ; i++ {
			if ops > 0 && i >= ops || ops == 0 && time.Since(start).Seconds() >= cfg.Window {
				return
			}
			spec, want := c.next()
			tm, why := c.do(spec, want, i)
			mu.Lock()
			ld.Samples = append(ld.Samples, tm.total)
			ld.note(c.n, why)
			switch {
			case want != nil:
				ld.repeats++
				ld.hit = append(ld.hit, tm.submit)
			case why == "":
				ld.submit = append(ld.submit, tm.submit)
			}
			mu.Unlock()
		}
	})
	ld.WindowS = time.Since(start).Seconds()
	ld.PeakRSS = peakRSSMiB()
	return ld
}

// audit checks the server's own counters against the schedule, and the
// first warm-up job against a direct call of the facade.
func (ld *load) audit(svc *service) (metrics.Snapshot, error) {
	snap, err := svc.counters()
	if err != nil {
		return snap, err
	}
	if hits := snap.Counters["server.cache_hits"]; hits != int64(ld.repeats) {
		ld.mismatch(fmt.Sprintf("server counted %d cache hits for %d scheduled repeats", hits, ld.repeats))
	}
	if n := rejected(snap); n != 0 {
		ld.mismatch(fmt.Sprintf("server rejected %d submissions", n))
	}
	var res server.ResultView
	if err := json.Unmarshal(ld.first.result, &res); err != nil {
		ld.mismatch("first warm-up job has no result")
		return snap, nil
	}
	direct, err := phihpl.Solve(ld.first.spec.N, phihpl.DynamicDAG, 64, 4, ld.first.spec.Seed)
	if err != nil || math.Float64bits(direct.Residual) != math.Float64bits(res.Residual) {
		ld.mismatch(fmt.Sprintf("served residual %g is not the facade's %g (%v)", res.Residual, direct.Residual, err))
	}
	return snap, nil
}

func rejected(snap metrics.Snapshot) int64 {
	var n int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "server.rejected_") {
			n += v
		}
	}
	return n
}

// scratchDir makes a directory for journals under the output directory,
// inside the checkout.
func scratchDir(cfg childConfig) (string, error) {
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.Out, "server-")
}

// runServer is the end-to-end child of the server workload: the shipped
// configuration but for a journal path, no recorder, no registry of ours.
func runServer(cfg childConfig) (childResult, error) {
	dir, err := scratchDir(cfg)
	if err != nil {
		return childResult{}, err
	}
	defer os.RemoveAll(dir)
	svc, err := openService(server.Config{JournalPath: filepath.Join(dir, "wal")})
	if err != nil {
		return childResult{}, err
	}
	defer svc.close()
	ld := drive(cfg, svc, cfg.Size.ServerOps, nil)
	_, err = ld.audit(svc)
	return ld.childResult, err
}

// traceServer is the traced child of the server workload.
func traceServer(cfg childConfig) (childResult, error) {
	dir, err := scratchDir(cfg)
	if err != nil {
		return childResult{}, err
	}
	defer os.RemoveAll(dir)
	sz := cfg.Size
	rec := new(trace.Recorder)
	h := hooks{rec: new(trace.Recorder), reg: metrics.NewRegistry()}
	wal := filepath.Join(dir, "wal")

	// The workload itself, shortened, with every hook on.
	h.attach()
	svc, err := openService(server.Config{JournalPath: wal, Trace: rec, Metrics: h.reg})
	if err != nil {
		return childResult{}, err
	}
	ld := drive(cfg, svc, sz.TraceServerOps/2, rec)
	snap, err := ld.audit(svc)
	svc.close()
	detachHooks()
	if err != nil {
		return childResult{}, err
	}
	out := map[string]float64{}
	jobs := float64(ld.Attempts)
	out["server.submit_us"] = 1e6 * median(ld.submit)
	out["server.cache_hit_us"] = 1e6 * median(ld.hit)
	out["server.jobs_per_s"] = jobs / ld.WindowS
	out["server.job_p99_s"] = quantile(ld.Samples, 0.99)
	out["server.queue_wait_us"] = snap.Histograms["server.queue_wait_ns"].Mean / 1e3
	out["server.run_ms"] = snap.Histograms["server.job_ns"].Mean / 1e6
	out["server.cache_hits"] = float64(snap.Counters["server.cache_hits"])
	out["server.rejected"] = float64(rejected(snap))

	// Restart on the journal that pass left behind.
	t := time.Now()
	again, err := server.Open(server.Config{JournalPath: wal})
	if err != nil {
		return childResult{}, err
	}
	_, err = again.WaitRecovered(context.Background())
	out["server.recover_ms"] = 1e3 * time.Since(t).Seconds()
	again.Close()
	if err != nil {
		return childResult{}, err
	}

	if err := alternate(cfg, dir, rec, h, &ld, out); err != nil {
		return childResult{}, err
	}
	out["matrix.gen512_s"] = medianOf(sz.Reps, func() float64 {
		return secs(func() { matrix.RandomSystem(sz.ServerN, mix(cfg.Seed, 2001, 0)) })
	})
	if err := journalLayers(cfg, dir, out); err != nil {
		return childResult{}, err
	}
	ld.Layer = out
	return ld.childResult, writeTrace(cfg, rec)
}

// alternate sends the same fresh native FP64 spec, one job at a time from
// one client, to a hooked server, a plain one, the facade directly, and a
// server without a journal: three paired differences from one alternation.
func alternate(cfg childConfig, dir string, rec *trace.Recorder, h hooks, ld *load, out map[string]float64) error {
	sz := cfg.Size
	hooked, err := openService(server.Config{JournalPath: filepath.Join(dir, "hooked.wal"), Trace: rec, Metrics: h.reg})
	if err != nil {
		return err
	}
	defer hooked.close()
	plain, err := openService(server.Config{JournalPath: filepath.Join(dir, "plain.wal")})
	if err != nil {
		return err
	}
	defer plain.close()
	volatile, err := openService(server.Config{})
	if err != nil {
		return err
	}
	defer volatile.close()
	var tHooked, tPlain, tDirect, tVolatile []float64
	cHooked := newClient(hooked.ts.URL, 2, sz.ServerN, cfg.Seed, rec)
	cPlain := newClient(plain.ts.URL, 3, sz.ServerN, cfg.Seed, nil)
	cVolatile := newClient(volatile.ts.URL, 4, sz.ServerN, cfg.Seed, nil)
	job := func(c *client, spec server.JobSpec, iter int, into *[]float64) {
		tm, why := c.do(spec, nil, iter)
		ld.note(spec.N, why)
		*into = append(*into, tm.total)
	}
	before, err := plain.counters()
	if err != nil {
		return err
	}
	rounds := 3 * sz.TraceOps // an 18 ms job is noisier than a solve; rounds are cheap
	for i := 0; i < rounds; i++ {
		spec := server.JobSpec{Tenant: "solo", N: sz.ServerN, Seed: mix(cfg.Seed, 2000, i)}
		h.attach()
		job(cHooked, spec, sz.TraceServerOps+i, &tHooked)
		detachHooks()
		job(cPlain, spec, 0, &tPlain)
		tDirect = append(tDirect, secs(func() {
			r, err := phihpl.Solve(spec.N, phihpl.DynamicDAG, 64, 4, spec.Seed)
			ld.note(spec.N, verdict(r, err, 0, spec.Seed))
		}))
		job(cVolatile, spec, 0, &tVolatile)
	}
	after, err := plain.counters()
	if err != nil {
		return err
	}
	out["trace.overhead_frac.server"] = paired(tHooked, tPlain, ratio) - 1
	out["server.overhead_ms"] = 1e3 * paired(tPlain, tDirect, minus)
	out["server.journal_cost_us"] = 1e6 * paired(tPlain, tVolatile, minus)
	// Per computed job, so the count does not depend on the schedule's mix.
	out["journal.fsyncs_per_job"] = float64(after.Counters["journal.fsyncs"]-before.Counters["journal.fsyncs"]) / float64(rounds)

	return nil
}

// journalLayers times the write-ahead log alone: a 256-byte fsynced append,
// opening a file of JournalRecords such records, and a compaction to a
// tenth of them. The latencies are the disk's as much as the program's;
// the fingerprint names the filesystem.
func journalLayers(cfg childConfig, dir string, out map[string]float64) error {
	record := bytes.Repeat([]byte{0x5a}, 256)
	path := filepath.Join(dir, "micro.wal")
	j, err := journal.Open(path, journal.Options{})
	if err != nil {
		return err
	}
	appends := make([]float64, 20*cfg.Size.Reps)
	for i := range appends {
		appends[i] = secs(func() {
			if aerr := j.Append(record); aerr != nil {
				err = aerr
			}
		})
	}
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	out["journal.append_us"] = 1e6 * median(appends)

	records := make([][]byte, cfg.Size.JournalRecords)
	for i := range records {
		records[i] = record
	}
	image := journal.Image(records)
	out["journal.replay_ms"] = 1e3 * medianOf(cfg.Size.Reps, func() float64 {
		if werr := os.WriteFile(path, image, 0o644); werr != nil {
			err = werr
			return 0
		}
		var j *journal.Journal
		d := secs(func() { j, err = journal.Open(path, journal.Options{}) })
		if err == nil {
			err = j.Close()
		}
		return d
	})
	if err != nil {
		return err
	}
	j, err = journal.Open(path, journal.Options{})
	if err != nil {
		return err
	}
	defer j.Close()
	out["journal.compact_ms"] = 1e3 * medianOf(cfg.Size.Reps, func() float64 {
		return secs(func() {
			if cerr := j.Compact(records[:len(records)/10]); cerr != nil {
				err = cerr
			}
		})
	})
	return err
}
