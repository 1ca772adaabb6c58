package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"promising/internal/backends"
	"promising/internal/cache"
	"promising/internal/explore"
	"promising/internal/fuzz"
	"promising/internal/lang"
	"promising/internal/litmus"
	"promising/internal/obs"
	"promising/internal/server/ui"
)

// Config tunes the model-checking service.
type Config struct {
	// Addr is the listen address (default ":8419").
	Addr string
	// Workers bounds how many explorations run at once across all
	// requests and jobs (<= 0 means GOMAXPROCS). Each exploration may
	// itself use Parallelism engine workers.
	Workers int
	// Parallelism is the default engine worker count per exploration
	// (0 = 1, negative = GOMAXPROCS); requests may override it.
	Parallelism int
	// DefaultTimeout is the per-test budget when a request does not set
	// one (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied budgets (default 5m).
	MaxTimeout time.Duration
	// CacheEntries is the in-memory verdict-cache capacity
	// (<= 0 selects the cache default).
	CacheEntries int
	// CacheDir, when non-empty, persists verdicts to disk so a restarted
	// daemon starts warm.
	CacheDir string
	// StateDir, when non-empty, makes batch jobs durable: the daemon
	// periodically checkpoints every running cell's exploration there
	// (explore.Snapshot, written with store.WriteFile) and, on restart,
	// re-enqueues unfinished jobs from their latest snapshots under their
	// original ids instead of dropping them. A kill -9 or a power loss
	// loses at most the progress since the last checkpoint interval.
	StateDir string
	// CheckpointInterval is how often a running cell's exploration is
	// checkpointed to StateDir (default 10s; ignored without StateDir).
	CheckpointInterval time.Duration
	// MaxBatchCells caps Tests × Backends of one batch job (default 4096).
	MaxBatchCells int
	// MaxPendingCells caps batch cells admitted but not yet completed
	// across all jobs — the admission backpressure bound: each pending
	// cell holds a parked goroutine and its parsed test, so without it a
	// client looping POST /v1/batch could grow memory without limit.
	// Batches beyond the cap are rejected with 503 (default
	// 4 × MaxBatchCells).
	MaxPendingCells int
	// FuzzCorpusDir persists fuzz-campaign corpora (and their verdict
	// cache) across restarts; "" keeps campaign corpora in memory.
	FuzzCorpusDir string
	// MaxFuzzIterations caps one fuzz job's iteration budget
	// (default 50000).
	MaxFuzzIterations int
	// MaxFuzzJobs caps concurrently running fuzz campaigns (default 1);
	// beyond it POST /v1/fuzz returns 503. Concurrent campaigns share
	// FuzzCorpusDir but not in-memory dedup state, so raising this when a
	// corpus dir is set may admit behavioural duplicates.
	MaxFuzzJobs int
	// StatsInterval is how often a watched job cell publishes an in-flight
	// StatsSnapshot to its SSE subscribers (default 250ms). Cells sample
	// only while the job has at least one event subscriber.
	StatsInterval time.Duration
	// BenchDir is where GET /v1/bench globs committed BENCH_*.json
	// baselines from (default ".", the daemon's working directory).
	BenchDir string
	// Peers is the default cluster membership for POST /v1/cluster
	// requests that do not carry their own peer list (promised -peers):
	// the base URLs of the daemons a cluster exploration fans out across.
	Peers []string
	// Pprof mounts net/http/pprof under /debug/pprof/ on the service mux
	// (off by default: profiling endpoints expose stacks and heap
	// contents, so they are opt-in via promised -pprof).
	Pprof bool
	// Logf, when non-nil, receives one line per request and job
	// transition.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Addr == "" {
		out.Addr = ":8419"
	}
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.DefaultTimeout <= 0 {
		out.DefaultTimeout = 30 * time.Second
	}
	if out.MaxTimeout <= 0 {
		out.MaxTimeout = 5 * time.Minute
	}
	if out.MaxBatchCells <= 0 {
		out.MaxBatchCells = 4096
	}
	if out.CheckpointInterval <= 0 {
		out.CheckpointInterval = 10 * time.Second
	}
	if out.MaxPendingCells <= 0 {
		out.MaxPendingCells = 4 * out.MaxBatchCells
	}
	if out.MaxFuzzIterations <= 0 {
		out.MaxFuzzIterations = 50_000
	}
	if out.MaxFuzzJobs <= 0 {
		out.MaxFuzzJobs = 1
	}
	if out.StatsInterval <= 0 {
		out.StatsInterval = 250 * time.Millisecond
	}
	if out.BenchDir == "" {
		out.BenchDir = "."
	}
	return out
}

// Server is the model-checking service. Create with New, mount Handler on
// any http.Server, or use ListenAndServe for the full daemon lifecycle.
type Server struct {
	cfg   Config
	cache *cache.Cache
	// store persists batch-job state when Config.StateDir is set (nil
	// otherwise; every method is nil-safe).
	store *jobStore
	// obsStore is the durable trace store (Config.StateDir/obs): finished
	// jobs' stage events, final status and witness traces, reloaded at
	// startup so the job/witness endpoints survive a kill -9. Nil without
	// a state dir; every method is nil-safe.
	obsStore *obs.Store
	// sem is the worker pool: one slot per concurrently running
	// exploration, taken only through acquire — by synchronous checks,
	// batch cells, shard jobs, cluster widening and fuzz candidates.
	sem  chan struct{}
	mux  *http.ServeMux
	jobs *jobTable
	// base is the lifetime context batch jobs run under: canceling it
	// (Close, or ListenAndServe's ctx) aborts every in-flight exploration.
	base    context.Context
	stop    context.CancelFunc
	started time.Time

	checks    atomic.Int64
	cacheHits atomic.Int64
	inflight  atomic.Int64
	// pending counts batch cells admitted but not yet completed, bounded
	// by Config.MaxPendingCells at admission.
	pending atomic.Int64
	// recovered counts jobs re-enqueued from StateDir at startup; shards
	// counts shard jobs (POST /v1/shards/jobs) that ran to completion.
	recovered atomic.Int64
	shards    atomic.Int64
	// groups holds the daemon's cross-peer dedup claim tables; shardJobs
	// the asynchronous shard explorations (cluster.go).
	groups    *shardGroups
	shardJobs *shardJobTable
	// dedupHits counts claims this daemon denied as the owning peer;
	// shardSteals/shardRetries count the coordinator's rebalance splits
	// and dead-shard re-dispatches.
	dedupHits    atomic.Int64
	shardSteals  atomic.Int64
	shardRetries atomic.Int64
	// certHits/certMisses/interned accumulate the per-exploration
	// ExploreStats of every cell this daemon ran (cache hits excluded:
	// a cached verdict re-reports the original exploration's stats).
	certHits   atomic.Int64
	certMisses atomic.Int64
	interned   atomic.Int64
	// symmetryHits/prunedStates accumulate the state-space reduction
	// counters of every cell this daemon ran.
	symmetryHits atomic.Int64
	prunedStates atomic.Int64
	// Fuzz-campaign counters: campaigns started, iterations and findings
	// across all campaigns (fed by progress deltas), latest corpus size,
	// and the number of campaigns currently running.
	fuzzCampaigns atomic.Int64
	fuzzIters     atomic.Int64
	fuzzFindings  atomic.Int64
	fuzzCorpus    atomic.Int64
	fuzzActive    atomic.Int64
	// witnesses counts witness traces produced by witness-collecting
	// cells; witnessShrink the minimizer reductions they accepted (cache
	// hits excluded, like the other per-exploration counters).
	witnesses     atomic.Int64
	witnessShrink atomic.Int64
}

// New builds a server from cfg.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	vc, err := cache.New(cfg.CacheEntries, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	base, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		cache:     vc,
		sem:       make(chan struct{}, cfg.Workers),
		jobs:      newJobTable(),
		groups:    newShardGroups(),
		shardJobs: newShardJobTable(),
		base:      base,
		stop:      stop,
		started:   time.Now(),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	s.mux.HandleFunc("POST /v1/check", s.handleCheck)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/shards/{group}/seen", s.handleShardSeen)
	s.mux.HandleFunc("POST /v1/shards/{group}/purge", s.handleShardPurge)
	s.mux.HandleFunc("DELETE /v1/shards/{group}", s.handleShardGroupDrop)
	s.mux.HandleFunc("POST /v1/shards/jobs", s.handleShardJobStart)
	s.mux.HandleFunc("GET /v1/shards/jobs/{id}", s.handleShardJob)
	s.mux.HandleFunc("GET /v1/shards/jobs/{id}/snapshot", s.handleShardJobSnapshot)
	s.mux.HandleFunc("POST /v1/shards/jobs/{id}/stop", s.handleShardJobStop)
	s.mux.HandleFunc("POST /v1/cluster", s.handleCluster)
	s.mux.HandleFunc("POST /v1/fuzz", s.handleFuzz)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/witnesses", s.handleJobWitnesses)
	s.mux.HandleFunc("GET /v1/jobs/{id}/witnesses/{outcome}", s.handleJobWitness)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/bench", s.handleBench)
	s.mux.Handle("GET /ui/", http.StripPrefix("/ui/", http.FileServerFS(ui.FS)))
	s.mux.Handle("GET /ui", http.RedirectHandler("/ui/", http.StatusMovedPermanently))
	if cfg.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	if cfg.StateDir != "" {
		s.store, err = openJobStore(cfg.StateDir)
		if err != nil {
			return nil, err
		}
		// The durable trace store opens before recovery so recovered jobs
		// observe the same endpoints finished jobs were served from.
		s.obsStore, err = obs.OpenStore(filepath.Join(cfg.StateDir, "obs"), 0)
		if err != nil {
			return nil, err
		}
		s.recoverJobs()
	}
	return s, nil
}

// recoverJobs re-enqueues every unfinished batch job persisted in the
// state store, from its cells' latest checkpoints.
func (s *Server) recoverJobs() {
	for _, m := range s.store.manifests() {
		if _, finished := s.obsStore.Get(m.ID); finished {
			// Killed after the job's durable record was written but before
			// its resumable state was released: it already finished.
			s.store.remove(m.ID)
			continue
		}
		tests := make([]*litmus.Test, 0, len(m.Tests))
		bad := false
		for _, spec := range m.Tests {
			t, err := resolveTest(spec)
			if err != nil {
				bad = true
				break
			}
			tests = append(tests, t)
		}
		if bad || len(tests) == 0 || len(m.Backends) == 0 {
			// A manifest this daemon can no longer resolve (e.g. a catalog
			// test renamed across versions) cannot be resumed; drop it
			// rather than re-parse it forever.
			s.logf("promised: dropping unresolvable persisted job %s", m.ID)
			s.store.remove(m.ID)
			continue
		}
		rc := s.store.loadCells(m.ID, len(tests)*len(m.Backends))
		s.pending.Add(int64(len(tests) * len(m.Backends)))
		s.recovered.Add(1)
		j := s.launchJob(m.ID, tests, m.Tests, m.Backends, m.Options, &rc)
		s.logf("promised: recovered job %s from %s (%d cells, resumed=%t, checkpoint age %s)",
			j.id, s.cfg.StateDir, j.total, rc.any, rc.ckptAge.Round(time.Millisecond))
	}
}

// Handler returns the service's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Close cancels every running job and in-flight exploration.
func (s *Server) Close() { s.stop() }

// Cache exposes the verdict cache (metrics, tests).
func (s *Server) Cache() *cache.Cache { return s.cache }

// ListenAndServe runs the daemon until ctx is canceled, then shuts down
// gracefully (canceling all jobs).
func (s *Server) ListenAndServe(ctx context.Context) error {
	hs := &http.Server{Addr: s.cfg.Addr, Handler: s.mux}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	s.logf("promised: listening on %s (workers=%d, parallelism=%d)", s.cfg.Addr, s.cfg.Workers, s.cfg.Parallelism)
	select {
	case err := <-errc:
		s.stop()
		return err
	case <-ctx.Done():
		s.stop()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Shutdown(sctx)
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ---------------------------------------------------------------------
// Request plumbing.

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodeBodyLimit(w, r, v, 4<<20)
}

// decodeBodyLimit is decodeBody with a caller-chosen size cap: shard
// requests carry a snapshot (frontier + seen-set), which outgrows the
// 4 MiB default on workload-scale explorations.
func decodeBodyLimit(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// resolveTest turns a TestSpec into a parsed test.
func resolveTest(spec TestSpec) (*litmus.Test, error) {
	switch {
	case spec.Source != "" && spec.Catalog != "":
		return nil, errors.New("give source or catalog, not both")
	case spec.Source != "":
		return litmus.Parse(spec.Source)
	case spec.Catalog != "":
		t, ok := litmus.FindCatalog(spec.Catalog)
		if !ok {
			return nil, fmt.Errorf("no catalog test named %q", spec.Catalog)
		}
		return t, nil
	default:
		return nil, errors.New("empty test spec: give source or catalog")
	}
}

// exploreOptions maps wire options onto engine options. The context is the
// cancellation point: the engine polls it between states, so server-side
// deadlines and job cancellation abort mid-exploration.
func (s *Server) exploreOptions(ctx context.Context, o CheckOptions) (explore.Options, time.Duration) {
	eo := explore.DefaultOptions()
	eo.Ctx = ctx
	eo.MaxStates = o.MaxStates
	if o.Certify != nil {
		eo.Certify = *o.Certify
	}
	if m, err := explore.ParseReductionMode(o.Reductions); err == nil {
		// Invalid values are rejected at the handlers (checkOptionsValid);
		// here an unparsable mode just keeps the default.
		eo.Reductions = m
	}
	eo.CollectWitnesses = o.Witnesses
	eo.Parallelism = o.Parallelism
	if eo.Parallelism == 0 {
		eo.Parallelism = s.cfg.Parallelism
	}
	// Clamp: the engine spawns one goroutine and one work stack per
	// worker, so an unchecked wire value would let a single request
	// exhaust the process. Beyond GOMAXPROCS extra workers add nothing
	// (exploration is CPU-bound).
	if max := runtime.GOMAXPROCS(0); eo.Parallelism > max || eo.Parallelism < -1 {
		eo.Parallelism = max
	}
	timeout := s.cfg.DefaultTimeout
	if o.TimeoutMS > 0 {
		timeout = time.Duration(o.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return eo, timeout
}

// ---------------------------------------------------------------------
// The verdict cache.

// cacheKey addresses a verdict: semantics epoch × canonical test content
// × backend × the options that can change a *completed* verdict. The
// epoch (backends.SemanticsEpoch) keeps a daemon restarted over an older
// -cache-dir from serving verdicts computed under earlier model
// semantics. Parallelism is excluded (the engine's outcome sets are
// identical at every worker count), and so are the budgets (MaxStates,
// timeouts): runs they cut short are never cached, and runs they did not
// cut short are exhaustive, hence identical to the unbudgeted result.
// Reductions are included: the outcome set is reduction-invariant, but the
// reported state counts and stats are not. Witnesses are included: a
// witness report carries the traces (and forced reductions off), so it
// must not be served to — or from — a non-witness request.
func cacheKey(t *litmus.Test, backend string, o CheckOptions) string {
	certify := o.Certify == nil || *o.Certify
	reductions, _ := explore.ParseReductionMode(o.Reductions)
	sum := sha256.Sum256([]byte(backends.SemanticsEpoch + "\x00" + t.Hash() + "\x00" + backend + "\x00" +
		fmt.Sprintf("certify=%t\x00reductions=%s\x00witnesses=%t", certify, reductions, o.Witnesses)))
	return hex.EncodeToString(sum[:])
}

// checkOptionsValid rejects malformed wire options before any work starts.
func checkOptionsValid(o CheckOptions) error {
	_, err := explore.ParseReductionMode(o.Reductions)
	return err
}

// cacheable reports whether a cell may be stored: only complete
// explorations (litmus.Status.Complete — pass/fail) are reusable;
// timeouts, aborts and errors depend on the budget that produced them.
func cacheable(status string) bool { return litmus.Status(status).Complete() }

// errQueued marks an exploration abandoned while it waited for a worker
// slot (its context ended first).
var errQueued = errors.New("canceled while queued")

// acquire takes one worker-pool slot: the daemon-wide bound on concurrent
// explorations (checks, batch cells, shard jobs, cluster widening and
// fuzz candidates alike). Waiting respects ctx.
func (s *Server) acquire(ctx context.Context) (release func(), err error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: %w", errQueued, ctx.Err())
	}
	s.inflight.Add(1)
	return func() { s.inflight.Add(-1); <-s.sem }, nil
}

// exploration is one run of the daemon's exploration runner (Server.run).
// Leaving every optional field zero gives a synchronous check: one
// uninterrupted leg, no snapshots.
type exploration struct {
	test    *litmus.Test
	backend string
	opts    CheckOptions
	// trace and sampler are the job's observability wiring: the tracer
	// scope stage events land on and the sampler in-flight stats publish
	// through (nil-safe all the way down the engine).
	trace   *obs.Trace
	sampler *obs.Sampler
	// resume, when non-nil, is the checkpoint the run continues from.
	resume *explore.Snapshot
	// setup installs caller-owned engine hooks on top of the defaults.
	setup func(*explore.Options)
	// With a sink the run proceeds in checkpoint legs: a timer requests a
	// cooperative checkpoint every interval, the emitted delta is applied
	// onto the held full snapshot, sink receives both, and the run resumes
	// in-process — byte-identically, the legs sharing one certification
	// cache — until it completes, its budget expires, or it is stopped.
	every time.Duration
	sink  func(leg int, full, emitted *explore.Snapshot) error
	// startLeg, when non-nil, sees each leg's checkpoint controller before
	// the leg runs (so the caller can request an early checkpoint) and
	// stops the run there by returning false.
	startLeg func(*explore.Checkpoint) bool
}

// run explores x on one worker slot under one wall budget. The verdict is
// the last leg's, carrying the summed elapsed time and work counters of
// all legs; those counters reach the daemon totals here and only here.
// A run stopped by startLeg returns the last leg's verdict (nil before the
// first leg).
func (s *Server) run(ctx context.Context, x exploration) (*litmus.Verdict, error) {
	named, err := backends.ResolveNamed(x.backend)
	if err != nil {
		return nil, err
	}
	resume, err := backends.ResolveResumer(x.backend)
	if err != nil {
		return nil, err
	}
	release, err := s.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()

	eo, timeout := s.exploreOptions(ctx, x.opts)
	// One wall budget for the whole logical run (a cell recovered after a
	// restart gets a fresh budget — the daemon cannot know how much the
	// previous process spent).
	eo.Deadline = time.Now().Add(timeout)
	eo.Trace, eo.Sampler = x.trace, x.sampler
	if x.sink != nil {
		// Resumed legs emit delta checkpoints: the engine exports only the
		// seen-set entries the leg added (O(new states)), and the full
		// snapshot is reassembled here from the held base. Naive is the
		// only backend that reads a certification cache; its cache is
		// scoped to this one test, so legs share it.
		if x.backend == backends.Naive {
			eo.CertCache = explore.NewSharedCertCache()
		}
		eo.DeltaSnapshot = true
	}
	if x.setup != nil {
		x.setup(&eo)
	}

	var (
		v       *litmus.Verdict
		stats   explore.ExploreStats
		elapsed time.Duration
	)
	snap := x.resume
	for leg := 1; ; leg++ {
		var timer *time.Timer
		if x.sink != nil {
			ck := explore.NewCheckpoint()
			if x.startLeg != nil && !x.startLeg(ck) {
				break
			}
			eo.Checkpoint = ck
			timer = time.AfterFunc(x.every, ck.Request)
		}
		if snap == nil {
			v, err = litmus.Run(x.test, named.Run, eo)
		} else {
			v, err = litmus.RunFrom(x.test, resume, snap, eo)
		}
		if timer != nil {
			timer.Stop()
		}
		if err != nil {
			break
		}
		elapsed += v.Elapsed
		stats = addLeg(stats, v.Result.Stats)
		emitted := v.Result.Snapshot
		if x.sink == nil || emitted == nil {
			break // completed, timed out or aborted
		}
		full := emitted
		if emitted.Delta {
			if full, err = explore.ApplyDelta(snap, emitted); err != nil {
				break
			}
		}
		snap = full
		if err = x.sink(leg, full, emitted); err != nil {
			break
		}
	}
	if v != nil {
		v.Elapsed = elapsed
		v.Result.Stats = stats
	}
	s.certHits.Add(stats.CertHits)
	s.certMisses.Add(stats.CertMisses)
	s.interned.Add(int64(stats.Interned))
	s.symmetryHits.Add(stats.SymmetryHits)
	s.prunedStates.Add(stats.PrunedStates)
	return v, err
}

// addLeg folds one checkpoint leg's stats into the run's. Lookup and
// reduction counters are per leg (a resumed leg counts from its own
// start), so they sum; the dedup-set and cache sizes are cumulative, so
// the latest leg's stand.
func addLeg(run, leg explore.ExploreStats) explore.ExploreStats {
	leg.CertHits += run.CertHits
	leg.CertMisses += run.CertMisses
	leg.SymmetryHits += run.SymmetryHits
	leg.PrunedStates += run.PrunedStates
	return leg
}

// runCell checks one (test, backend) cell: verdict-cache lookup, then the
// exploration, then witness explanation and caching. A cell resuming a
// checkpoint skips the lookup: its snapshot is the authoritative progress.
func (s *Server) runCell(ctx context.Context, x exploration) TestReport {
	s.checks.Add(1)
	key := cacheKey(x.test, x.backend, x.opts)
	if x.resume == nil {
		if raw, ok := s.cache.Get(key); ok {
			var tr TestReport
			if err := json.Unmarshal(raw, &tr); err == nil {
				s.cacheHits.Add(1)
				tr.Cached = true
				return tr
			}
		}
	}
	t := x.test
	v, err := s.run(ctx, x)
	if errors.Is(err, errQueued) {
		return TestReport{Test: t.Name(), Arch: t.Prog.Arch.String(), Expect: t.Expect.String(),
			Backend: x.backend, Status: StatusCanceled, Error: ctx.Err().Error()}
	}
	tr := ReportJSON(litmus.Report{Test: t, Backend: x.backend, Verdict: v, Err: err})
	if err == nil {
		s.explainWitnesses(t, x.backend, v, &tr)
	}
	if cacheable(tr.Status) {
		if raw, err := json.Marshal(tr); err == nil {
			s.cache.Put(key, raw)
		}
	}
	return tr
}

// explainWitnesses attaches the annotated, minimized and replay-validated
// witness traces of a fresh witness-collecting run to its report (before
// caching, so cached witness reports keep their traces) and feeds the
// witness counters. A no-op for runs without collected witnesses.
func (s *Server) explainWitnesses(t *litmus.Test, backend string, v *litmus.Verdict, tr *TestReport) {
	if v == nil || v.Result == nil || len(v.Result.Witnesses) == 0 {
		return
	}
	traces, err := litmus.ExplainResult(t, backend, v.Result, 0)
	if err != nil {
		// A replay-invalid witness is a model bug worth a log line; the
		// trace is still served, flagged Validated false.
		s.logf("promised: witness validation %s/%s: %v", t.Name(), backend, err)
	}
	tr.Witnesses = traces
	s.witnesses.Add(int64(len(traces)))
	var shrinks int64
	for _, wt := range traces {
		shrinks += int64(wt.ShrinkSteps)
	}
	s.witnessShrink.Add(shrinks)
}

// ---------------------------------------------------------------------
// Handlers.

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Health{
		Status:     "ok",
		UptimeMS:   time.Since(s.started).Milliseconds(),
		ActiveJobs: s.jobs.active(),
		Backends:   strings.Join(backends.Names(), " "),
	})
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	withSrc := r.URL.Query().Get("source") == "1"
	entries := litmus.CatalogEntries()
	out := make([]CatalogInfo, 0, len(entries))
	for _, e := range entries {
		t, ok := litmus.FindCatalog(e.Name)
		if !ok {
			continue
		}
		ci := CatalogInfo{Name: e.Name, Arch: t.Prog.Arch.String(), Expect: t.Expect.String()}
		if withSrc {
			ci.Source = e.Src
		}
		out = append(out, ci)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req CheckRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Backend == "" {
		req.Backend = backends.Promising
	}
	if _, err := backends.Resolve(req.Backend); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := checkOptionsValid(req.Options); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	t, err := resolveTest(req.TestSpec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The exploration stops when either the request goes away or the
	// server shuts down (Close cancels s.base).
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(s.base, cancel)()
	tr := s.runCell(ctx, exploration{test: t, backend: req.Backend, opts: req.Options})
	s.logf("promised: check %s backend=%s status=%s cached=%t", tr.Test, tr.Backend, tr.Status, tr.Cached)
	writeJSON(w, http.StatusOK, tr)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Backends) == 0 {
		req.Backends = []string{backends.Promising}
	}
	for _, b := range req.Backends {
		if _, err := backends.Resolve(b); err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if len(req.Tests) == 0 {
		writeErr(w, http.StatusBadRequest, "empty batch: give at least one test")
		return
	}
	if err := checkOptionsValid(req.Options); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	cells := len(req.Tests) * len(req.Backends)
	if cells > s.cfg.MaxBatchCells {
		writeErr(w, http.StatusBadRequest, "batch too large: %d cells > limit %d", cells, s.cfg.MaxBatchCells)
		return
	}
	tests := make([]*litmus.Test, len(req.Tests))
	for i, spec := range req.Tests {
		t, err := resolveTest(spec)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "test %d: %v", i, err)
			return
		}
		tests[i] = t
	}
	// Admission backpressure, after every validation so no request error
	// holds budget: each admitted cell parks a goroutine on the worker
	// pool, so outstanding cells are bounded, not just running ones.
	// startJob's cell goroutines return the budget as they complete; a job
	// refused because its manifest could not be written returns it here.
	if n := s.pending.Add(int64(cells)); n > int64(s.cfg.MaxPendingCells) {
		s.pending.Add(-int64(cells))
		writeErr(w, http.StatusServiceUnavailable,
			"server busy: %d cells already queued (limit %d); retry later", n-int64(cells), s.cfg.MaxPendingCells)
		return
	}
	j, err := s.startJob(tests, req.Tests, req.Backends, req.Options)
	if err != nil {
		s.pending.Add(-int64(cells))
		s.logf("promised: batch refused: persist manifest: %v", err)
		writeErr(w, http.StatusServiceUnavailable, "cannot persist the job: %v", err)
		return
	}
	s.logf("promised: job %s started (%d cells)", j.id, j.total)
	writeJSON(w, http.StatusAccepted, BatchResponse{JobID: j.id, Cells: j.total})
}

// handleFuzz starts a differential fuzzing campaign as a cancelable job.
func (s *Server) handleFuzz(w http.ResponseWriter, r *http.Request) {
	var req FuzzRequest
	if !decodeBody(w, r, &req) {
		return
	}
	cfg := fuzz.Config{
		Seed:        req.Seed,
		Iterations:  req.Iterations,
		MaxFindings: req.MaxFindings,
		Shrink:      req.Shrink == nil || *req.Shrink,
		CorpusDir:   s.cfg.FuzzCorpusDir,
		// Campaign workers park on the exploration semaphore (Acquire),
		// so the daemon-wide concurrency bound holds across checks,
		// batches and campaigns.
		Workers: s.cfg.Workers,
	}
	if err := cfg.SetProfile(req.Profile); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	switch req.Arch {
	case "", "both":
	case "arm":
		cfg.Archs = []lang.Arch{lang.ARM}
	case "riscv":
		cfg.Archs = []lang.Arch{lang.RISCV}
	default:
		writeErr(w, http.StatusBadRequest, "unknown arch %q (want arm, riscv or both)", req.Arch)
		return
	}
	for _, b := range req.Backends {
		if _, err := backends.Resolve(b); err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	cfg.Backends = req.Backends
	// Resolve the iteration default *before* the cap check, so an empty
	// request cannot sidestep MaxFuzzIterations via fuzz.Run's own
	// defaulting, and the job's Total reflects what will actually run. A
	// time-boxed request may leave iterations unbounded (0): the wall box
	// is its budget.
	if cfg.Iterations == 0 && req.TimeBudgetMS <= 0 {
		cfg.Iterations = 1000
		if cfg.Iterations > s.cfg.MaxFuzzIterations {
			cfg.Iterations = s.cfg.MaxFuzzIterations
		}
	}
	if cfg.Iterations < 0 || cfg.Iterations > s.cfg.MaxFuzzIterations {
		writeErr(w, http.StatusBadRequest, "iterations %d out of range [0, %d]", cfg.Iterations, s.cfg.MaxFuzzIterations)
		return
	}
	if req.TimeBudgetMS > 0 {
		d := time.Duration(req.TimeBudgetMS) * time.Millisecond
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
		cfg.Duration = d
	}
	// Clamp the generator size knobs: exploration cost is exponential in
	// program size, and campaign cells share the daemon's worker pool.
	cfg.Threads = clamp(req.Threads, 0, 4)
	cfg.MaxInstrs = clamp(req.MaxInstrs, 0, 6)
	cfg.Locs = clamp(req.Locs, 0, 4)

	// Reserve the campaign slot atomically (increment, then roll back on
	// over-cap) so concurrent requests cannot both pass a load-then-start
	// check; startFuzzJob's goroutine owns the release.
	if n := s.fuzzActive.Add(1); n > int64(s.cfg.MaxFuzzJobs) {
		s.fuzzActive.Add(-1)
		writeErr(w, http.StatusServiceUnavailable,
			"server busy: %d fuzz campaigns already running (limit %d); retry later",
			n-1, s.cfg.MaxFuzzJobs)
		return
	}
	j := s.startFuzzJob(cfg)
	s.logf("promised: fuzz job %s started (seed=%d iterations=%d profile=%s)", j.id, cfg.Seed, cfg.Iterations, cfg.ProfileName)
	writeJSON(w, http.StatusAccepted, BatchResponse{JobID: j.id, Cells: cfg.Iterations})
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Finished jobs are served from the durable trace store: the stored
	// status document is the exact bytes the job finished with, so the
	// response is byte-identical before and after a daemon restart.
	if rec, ok := s.obsStore.Get(id); ok && len(rec.Status) > 0 {
		writeJSON(w, http.StatusOK, rec.Status)
		return
	}
	j, ok := s.jobs.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// liveWitnessReports snapshots a live job's completed cell reports (nil
// when the job is unknown).
func (s *Server) liveWitnessReports(id string) ([]*TestReport, bool) {
	j, ok := s.jobs.get(id)
	if !ok {
		return nil, false
	}
	st := j.status()
	return st.Reports, true
}

// handleJobWitnesses serves GET /v1/jobs/{id}/witnesses: the witness
// index over the job's completed cells. Finished jobs come from the
// durable store (byte-identical across restarts); running jobs are
// indexed live, so witnesses appear as their cells complete.
func (s *Server) handleJobWitnesses(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if rec, ok := s.obsStore.Get(id); ok && len(rec.Index) > 0 {
		writeJSON(w, http.StatusOK, rec.Index)
		return
	}
	reports, ok := s.liveWitnessReports(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, witnessIndexOf(id, reports))
}

// handleJobWitness serves GET /v1/jobs/{id}/witnesses/{outcome}: one
// outcome's full annotated trace. The outcome path segment is the
// URL-escaped formatted outcome line; ?cell=N disambiguates when several
// cells observed the same outcome (default: first cell in order).
func (s *Server) handleJobWitness(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	outcome := r.PathValue("outcome")
	cell := -1
	if c := r.URL.Query().Get("cell"); c != "" {
		n, err := strconv.Atoi(c)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad cell %q", c)
			return
		}
		cell = n
	}
	if rec, ok := s.obsStore.Get(id); ok && len(rec.Index) > 0 {
		if wr, found := rec.Witness(outcome, cell); found {
			writeJSON(w, http.StatusOK, wr.Body)
			return
		}
		writeErr(w, http.StatusNotFound, "job %q has no witness for outcome %q", id, outcome)
		return
	}
	reports, ok := s.liveWitnessReports(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no job %q", id)
		return
	}
	for ci, tr := range reports {
		if tr == nil || (cell >= 0 && ci != cell) {
			continue
		}
		for _, wt := range tr.Witnesses {
			if wt.Outcome == outcome {
				writeJSON(w, http.StatusOK, WitnessDetail{JobID: id, Cell: ci, Trace: wt})
				return
			}
		}
	}
	writeErr(w, http.StatusNotFound, "job %q has no witness for outcome %q", id, outcome)
}

// persistObs writes a finished job's observability record — stage
// events, the final status document st, and every witness trace — to the
// durable trace store. Nil-safe (no state dir: no-op).
func (s *Server) persistObs(j *job, st JobStatus) error {
	if s.obsStore == nil {
		return nil
	}
	statusRaw, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("marshal final status: %w", err)
	}
	rec := &obs.JobRecord{ID: j.id, Events: j.tracer.Events(), Status: statusRaw}
	if idx := witnessIndexOf(j.id, st.Reports); len(idx.Witnesses) > 0 {
		if rec.Index, err = json.Marshal(idx); err != nil {
			return fmt.Errorf("marshal witness index: %w", err)
		}
		for cell, tr := range st.Reports {
			if tr == nil {
				continue
			}
			for _, wt := range tr.Witnesses {
				body, err := json.Marshal(WitnessDetail{JobID: j.id, Cell: cell, Trace: wt})
				if err != nil {
					return fmt.Errorf("marshal witness: %w", err)
				}
				rec.Witnesses = append(rec.Witnesses, obs.WitnessRecord{Cell: cell, Outcome: wt.Outcome, Body: body})
			}
		}
	}
	return s.obsStore.Put(rec)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	j.userCanceled.Store(true)
	j.cancel()
	s.logf("promised: job %s canceled", j.id)
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		// A finished job that only the durable trace store remembers (e.g.
		// after a restart) replays its stored record and closes.
		if rec, found := s.obsStore.Get(r.PathValue("id")); found {
			s.replayObsEvents(w, rec)
			return
		}
		writeErr(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	st, events, dropped, unsubscribe := j.subscribe()
	defer unsubscribe()
	enc := func(ev JobEvent) bool {
		raw, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", raw); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	// Replay the cells completed before we subscribed (the snapshot and
	// the subscription are atomic, so the live stream continues with no
	// gap and no duplicates), then follow until the job's terminal state.
	// Fuzz jobs have no cells; their snapshot is the latest progress.
	for i, tr := range st.Reports {
		if tr != nil {
			if !enc(JobEvent{JobID: j.id, Kind: EventCell, State: st.State, Cell: i, Completed: st.Completed, Total: st.Total, Report: tr}) {
				return
			}
		}
	}
	if st.Fuzz != nil {
		if !enc(JobEvent{JobID: j.id, Kind: EventFuzz, State: st.State, Cell: -1, Completed: st.Completed, Total: st.Total, Fuzz: st.Fuzz}) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-events:
			if !ok {
				// The job reached a terminal state — or we fell behind and
				// were dropped, which the summary flags so the client
				// knows to poll or re-subscribe instead of trusting the
				// stream as complete.
				fin := j.status()
				enc(JobEvent{JobID: j.id, Kind: EventSummary, State: fin.State, Cell: -1, Completed: fin.Completed,
					Total: fin.Total, Fuzz: fin.Fuzz, Dropped: dropped()})
				return
			}
			if !enc(ev) {
				return
			}
		}
	}
}

// replayObsEvents streams a finished job's stored record as a terminating
// SSE stream: every persisted stage event, the witness announcements, and
// a closing summary — the same event kinds a live subscriber saw.
func (s *Server) replayObsEvents(w http.ResponseWriter, rec *obs.JobRecord) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	var st JobStatus
	if err := json.Unmarshal(rec.Status, &st); err != nil {
		st = JobStatus{ID: rec.ID, State: JobDone}
	}
	enc := func(ev JobEvent) bool {
		raw, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", raw); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for i := range rec.Events {
		ev := rec.Events[i]
		if !enc(JobEvent{JobID: rec.ID, Kind: EventStage, State: st.State, Cell: ev.Cell,
			Completed: st.Completed, Total: st.Total, Stage: &ev}) {
			return
		}
	}
	if idx := witnessIndexOf(rec.ID, st.Reports); len(idx.Witnesses) > 0 {
		byCell := map[int][]WitnessInfo{}
		cells := []int{}
		for _, info := range idx.Witnesses {
			if _, seen := byCell[info.Cell]; !seen {
				cells = append(cells, info.Cell)
			}
			byCell[info.Cell] = append(byCell[info.Cell], info)
		}
		for _, cell := range cells {
			if !enc(JobEvent{JobID: rec.ID, Kind: EventWitness, State: st.State, Cell: cell,
				Completed: st.Completed, Total: st.Total, Witnesses: byCell[cell]}) {
				return
			}
		}
	}
	enc(JobEvent{JobID: rec.ID, Kind: EventSummary, State: st.State, Cell: -1,
		Completed: st.Completed, Total: st.Total, Fuzz: st.Fuzz})
}
