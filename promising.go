// Package promising is the public entry point of the Promising-ARM/RISC-V
// reproduction: a simpler and faster operational concurrency model for
// ARMv8 and RISC-V (Pulte, Pichon-Pharabod, Kang, Lee, Hur; PLDI 2019),
// together with an exhaustive and interactive exploration tool, the unified
// axiomatic reference model, a Flat-style microarchitectural baseline, and
// litmus-test infrastructure.
//
// Quick start:
//
//	test, _ := promising.ParseTest(src)          // litmus text format
//	verdict, _ := promising.Run(test, promising.BackendPromising, promising.Options())
//	fmt.Println(verdict)
//
// The deeper APIs live in the internal packages and are re-exported here
// where a library user needs them: lang (the calculus), core (the model),
// explore (the explorers), axiomatic, flat, litmus and workloads.
package promising

import (
	"context"
	"fmt"
	"time"

	"promising/internal/backends"
	"promising/internal/core"
	"promising/internal/explore"
	"promising/internal/fuzz"
	"promising/internal/lang"
	"promising/internal/litmus"
	"promising/internal/obs"
	"promising/internal/server"
)

// Re-exported core types.
type (
	// Test is a litmus test: program + condition + expectation.
	Test = litmus.Test
	// Verdict is the outcome of running a test under a backend.
	Verdict = litmus.Verdict
	// Report is one (test, backend) cell of a RunAll batch.
	Report = litmus.Report
	// RunAllOptions tunes a batched RunAll sweep.
	RunAllOptions = litmus.RunAllOptions
	// Result is an exhaustive exploration result.
	Result = explore.Result
	// ExploreStats is a run's engine instrumentation (Result.Stats):
	// interned states and certification-cache hit/miss/size counters.
	ExploreStats = explore.ExploreStats
	// CertCache is an exploration-scoped certification cache; see
	// ExploreOptions.CertCache for sharing one across explorations of the
	// same compiled program.
	CertCache = core.CertCache
	// Session is an interactive exploration session.
	Session = explore.Session
	// Program is a parallel program in the paper's calculus.
	Program = lang.Program
	// Arch selects ARMv8 or RISC-V semantics.
	Arch = lang.Arch
)

// Architectures.
const (
	ARM   = lang.ARM
	RISCV = lang.RISCV
)

// Backend names an exhaustive exploration backend.
type Backend string

// Backends. BackendPromising is the paper's promise-first explorer (§7);
// BackendNaive interleaves every transition of the same Promising machine;
// BackendAxiomatic is the unified Fig. 6 model (the herd stand-in);
// BackendFlat is the microarchitectural baseline.
const (
	BackendPromising Backend = "promising"
	BackendNaive     Backend = "naive"
	BackendAxiomatic Backend = "axiomatic"
	BackendFlat      Backend = "flat"
)

// Runner returns the litmus.Runner for a backend (the shared registry in
// internal/backends, which the model-checking service resolves through
// too).
func (b Backend) Runner() (litmus.Runner, error) {
	r, err := backends.Resolve(string(b))
	if err != nil {
		return nil, fmt.Errorf("promising: %v", err)
	}
	return r, nil
}

// Resumer returns the backend's litmus.Resumer, which continues a
// checkpointed exploration from its Snapshot. All four backends support
// checkpoint/resume.
func (b Backend) Resumer() (litmus.Resumer, error) {
	r, err := backends.ResolveResumer(string(b))
	if err != nil {
		return nil, fmt.Errorf("promising: %v", err)
	}
	return r, nil
}

// Options returns the default exploration options (per-step certification
// enabled, no witness collection, no limits).
func Options() explore.Options { return explore.DefaultOptions() }

// OptionsWithTimeout returns default options with a wall-clock budget.
func OptionsWithTimeout(d time.Duration) explore.Options {
	o := explore.DefaultOptions()
	o.Deadline = time.Now().Add(d)
	return o
}

// OptionsWithContext returns default options bound to ctx: exploration
// aborts promptly (Result.TimedOut) when ctx is canceled or its deadline
// passes. All four backends honor the cancellation mid-exploration.
func OptionsWithContext(ctx context.Context) explore.Options {
	o := explore.DefaultOptions()
	o.Ctx = ctx
	return o
}

// ParallelOptions returns default options with the exploration engine's
// worker count set to j (j <= 0 selects GOMAXPROCS). The outcome set is
// identical at every worker count; see explore.Options.Parallelism.
func ParallelOptions(j int) explore.Options {
	o := explore.DefaultOptions()
	if j <= 0 {
		j = -1
	}
	o.Parallelism = j
	return o
}

// ReductionMode selects which certified state-space reductions an
// exploration applies (Options.Reductions): thread-symmetry
// canonicalization and independence pruning. Both are on by default and
// preserve the outcome set exactly; see the explore package.
type ReductionMode = explore.ReductionMode

// Reduction modes.
const (
	// ReduceOn enables every reduction the backend supports (default).
	ReduceOn = explore.ReduceOn
	// ReduceOff disables all reductions.
	ReduceOff = explore.ReduceOff
	// ReduceSymmetry enables only thread-symmetry canonicalization.
	ReduceSymmetry = explore.ReduceSymmetry
	// ReducePruning enables only independence pruning.
	ReducePruning = explore.ReducePruning
)

// ParseReductionMode parses a -reductions flag value (on, off, symmetry,
// pruning).
func ParseReductionMode(s string) (ReductionMode, error) { return explore.ParseReductionMode(s) }

// ParseTest parses the litmus text format (see internal/litmus.Parse for
// the grammar).
func ParseTest(src string) (*Test, error) { return litmus.Parse(src) }

// Run executes a test exhaustively under the chosen backend.
func Run(t *Test, backend Backend, opts explore.Options) (*Verdict, error) {
	r, err := backend.Runner()
	if err != nil {
		return nil, err
	}
	return litmus.Run(t, r, opts)
}

// ---------------------------------------------------------------------
// Checkpoint/resume and shard scale-out (explore.Snapshot).

// Re-exported checkpoint types.
type (
	// Snapshot is a versioned, deterministic serialization of an
	// in-progress exploration: pending frontier, dedup set, accumulated
	// outcomes, semantics epoch. Resume continues it byte-identically;
	// Split(n) deals its frontier into shards for scale-out.
	Snapshot = explore.Snapshot
	// CheckpointController requests a cooperative checkpoint of a running
	// exploration (ExploreOptions.Checkpoint).
	CheckpointController = explore.Checkpoint
)

// NewCheckpoint returns a controller that checkpoints a running
// exploration when Request is called; set it as Options.Checkpoint.
func NewCheckpoint() *CheckpointController { return explore.NewCheckpoint() }

// NewCheckpointAfter returns a controller that checkpoints automatically
// once the exploration has counted n states.
func NewCheckpointAfter(n int) *CheckpointController { return explore.NewCheckpointAfter(n) }

// UnmarshalSnapshot parses a serialized Snapshot, validating its format
// version and semantics epoch.
func UnmarshalSnapshot(raw []byte) (*Snapshot, error) { return explore.UnmarshalSnapshot(raw) }

// RunFrom resumes a checkpointed exploration of a test (the verdict's
// Result.Snapshot, or one read back with UnmarshalSnapshot) and runs it
// to a verdict. The combined run is byte-identical to an uninterrupted
// one: same outcome set, same state count.
func RunFrom(t *Test, backend Backend, snap *Snapshot, opts explore.Options) (*Verdict, error) {
	r, err := backend.Resumer()
	if err != nil {
		return nil, err
	}
	return litmus.RunFrom(t, r, snap, opts)
}

// RunSharded explores a test by frontier sharding: widen, checkpoint,
// Split(shards), explore every shard concurrently in-process, and merge
// deterministically. The merged outcome set equals the unsharded one.
func RunSharded(t *Test, backend Backend, shards int, opts explore.Options) (*Verdict, error) {
	run, err := backend.Runner()
	if err != nil {
		return nil, err
	}
	resume, err := backend.Resumer()
	if err != nil {
		return nil, err
	}
	return litmus.RunSharded(t, run, resume, shards, opts)
}

// MergeShards merges independently explored shard results with the
// parent snapshot's accumulated partial result.
func MergeShards(parent *Snapshot, shardResults []*Result) *Result {
	return explore.MergeShards(parent, shardResults)
}

// ApplyDelta folds a delta snapshot (emitted by a resumed leg under
// ExploreOptions.DeltaSnapshot) onto the full snapshot it chains from,
// returning the equivalent full snapshot — byte-identical to the one a
// full-snapshot resume of the same leg would have produced. Deltas make
// checkpoint and transfer cost O(new states) instead of O(all states).
func ApplyDelta(base, delta *Snapshot) (*Snapshot, error) { return explore.ApplyDelta(base, delta) }

// RunAll runs every test under every backend with bounded concurrency
// (litmus.RunAll): cross-test parallelism from o.Concurrency, per-test
// parallelism from o.Explore.Parallelism. Reports come back in
// deterministic order, tests crossed with backends.
func RunAll(tests []*Test, backends []Backend, o RunAllOptions) ([]Report, error) {
	named := make([]litmus.NamedRunner, len(backends))
	for i, b := range backends {
		r, err := b.Runner()
		if err != nil {
			return nil, err
		}
		named[i] = litmus.NamedRunner{Name: string(b), Run: r}
	}
	return litmus.RunAll(tests, named, o), nil
}

// ---------------------------------------------------------------------
// Herd interop: the .litmus importer and the conformance sweep
// (cmd/litmus -import, the CI conformance gate and the nightly full
// sweep all run through these).

// Re-exported conformance types.
type (
	// HerdSource is one named herd .litmus source for RunConformance.
	HerdSource = litmus.HerdSource
	// ConformanceResult is a whole conformance sweep in archival form.
	ConformanceResult = litmus.ConformanceResult
	// ConformanceTest is one imported test's sweep row.
	ConformanceTest = litmus.ConformanceTest
	// HerdUnsupportedError marks well-formed herd sources outside the
	// importer's AArch64 subset; ImportHerd wraps the reason.
	HerdUnsupportedError = litmus.UnsupportedError
)

// ImportHerd translates a herd-format AArch64 .litmus source into a Test.
// Sources outside the supported subset return a *HerdUnsupportedError
// explaining what is missing; anything else is a hard parse error.
func ImportHerd(src string) (*Test, error) { return litmus.ImportHerd(src) }

// RunConformance imports every source and runs the imported tests under
// every backend, cross-checking import health, cross-backend agreement
// and drift against pinned verdicts ("allowed"/"forbidden" by test name;
// nil disables drift checking).
func RunConformance(srcs []HerdSource, backends []Backend, expected map[string]string, o RunAllOptions) (*ConformanceResult, error) {
	named := make([]litmus.NamedRunner, len(backends))
	for i, b := range backends {
		r, err := b.Runner()
		if err != nil {
			return nil, err
		}
		named[i] = litmus.NamedRunner{Name: string(b), Run: r}
	}
	return litmus.RunConformance(srcs, named, expected, o), nil
}

// ExpectedVerdicts parses a verdict pin file (expected.json): a JSON
// object mapping test name to "allowed" or "forbidden".
func ExpectedVerdicts(data []byte) (map[string]string, error) { return litmus.ExpectedVerdicts(data) }

// Interactive starts an interactive stepping session for a test's program.
func Interactive(t *Test) (*Session, error) {
	cp, err := lang.Compile(t.Prog)
	if err != nil {
		return nil, err
	}
	return explore.NewSession(cp), nil
}

// Catalog returns the built-in canonical litmus tests with architectural
// verdicts.
func Catalog() []*Test { return litmus.Catalog() }

// ---------------------------------------------------------------------
// Test generation and the differential fuzzing subsystem (internal/fuzz;
// CLI: cmd/fuzz, service endpoint: POST /v1/fuzz).

// Re-exported generation and fuzzing types.
type (
	// GenConfig tunes the seeded random test generator.
	GenConfig = litmus.GenConfig
	// GenProfile selects the generator's instruction features; named
	// presets (classic, fences, xcl, deps, full) come from GenProfileByName.
	GenProfile = litmus.GenProfile
	// FuzzConfig tunes a differential fuzzing campaign.
	FuzzConfig = fuzz.Config
	// FuzzSummary is a finished campaign: progress counters and findings.
	FuzzSummary = fuzz.Summary
	// FuzzFinding is one detected backend disagreement or crash, with its
	// shrunk reproducer.
	FuzzFinding = fuzz.Finding
	// FuzzProgress is a campaign progress snapshot.
	FuzzProgress = fuzz.Progress
	// FuzzCorpus is the persistent, content-addressed campaign corpus.
	FuzzCorpus = fuzz.Corpus
)

// GenProfiles lists the named generator profiles in canonical order.
func GenProfiles() []string { return litmus.Profiles() }

// GenProfileByName resolves a named generator profile (classic, fences,
// xcl, deps, full).
func GenProfileByName(name string) (GenProfile, error) { return litmus.ProfileByName(name) }

// GenerateTest builds a seeded random litmus test; the same config always
// yields the same test.
func GenerateTest(cfg GenConfig) *Test { return litmus.Generate(cfg) }

// FormatTest renders a test in the litmus text format accepted by
// ParseTest (including an observe directive for generated tests), the
// corpus persistence format.
func FormatTest(t *Test) string { return litmus.Format(t) }

// Fuzz runs a differential fuzzing campaign: seeded generation plus
// corpus-guided mutation, every candidate run through the backends with
// promise-first as the oracle, disagreements delta-debugged to minimal
// reproducers. The error covers campaign infrastructure only; model
// disagreements are Findings in the summary.
func Fuzz(ctx context.Context, cfg FuzzConfig) (*FuzzSummary, error) { return fuzz.Run(ctx, cfg) }

// OpenFuzzCorpus opens (or creates) a fuzz corpus directory ("" for a
// memory-only corpus).
func OpenFuzzCorpus(dir string) (*FuzzCorpus, error) { return fuzz.OpenCorpus(dir) }

// ReplayReport is a whole-corpus replay: every stored test re-run
// differentially, regressions flagged.
type ReplayReport = fuzz.ReplayReport

// ReplayCorpus re-runs every corpus entry under the named backends
// (oracle first; nil selects promising, naive, axiomatic), reporting
// current disagreements and outcome drift against recorded verdicts. This
// is cmd/litmus -replay: shrunk counterexamples become permanent
// regression tests.
func ReplayCorpus(ctx context.Context, corpus *FuzzCorpus, backends []string, timeout time.Duration) (*ReplayReport, error) {
	return fuzz.Replay(ctx, corpus, backends, timeout)
}

// FormatOutcomes renders a verdict's outcome set, one final state per line.
func FormatOutcomes(v *Verdict) string {
	return litmus.FormatOutcomes(v.Spec, v.Result, v.Test.Prog)
}

// ---------------------------------------------------------------------
// Observability (internal/obs): in-flight stats sampling and stage-event
// tracing. The daemon streams both over SSE and renders them at GET /ui.

// Re-exported observability types.
type (
	// StatsSnapshot is one in-flight sample of a running exploration:
	// visited states, frontier depth, interned states, cache hit counters
	// and a smoothed states/sec rate (ExploreOptions.Sampler publishes
	// them on a fixed cadence with no hot-path cost when inactive).
	StatsSnapshot = obs.StatsSnapshot
	// StageEvent is one pipeline stage transition (compile, explore,
	// checkpoint, certify-summary, merge, ...) on a Trace.
	StageEvent = obs.StageEvent
	// StageSummary aggregates a job's stage events per stage name.
	StageSummary = obs.StageSummary
	// Sampler publishes StatsSnapshots from a running engine; set it as
	// ExploreOptions.Sampler.
	Sampler = obs.Sampler
	// Tracer collects StageEvents on a bounded ring; derive per-cell
	// Traces with Scope and set them as ExploreOptions.Trace.
	Tracer = obs.Tracer
)

// NewSampler returns a stats sampler publishing on the given cadence
// (0 selects the 250ms default).
func NewSampler(interval time.Duration) *Sampler { return obs.NewSampler(interval) }

// NewTracer returns a stage-event tracer with a bounded ring of cap
// events (0 selects the default); onEmit, if non-nil, observes every
// event as it is recorded.
func NewTracer(cap int, onEmit func(StageEvent)) *Tracer { return obs.NewTracer(cap, onEmit) }

// ---------------------------------------------------------------------
// The model-checking service (internal/server, daemon: cmd/promised).

// Re-exported service types. TestReport is the JSON verdict shape shared
// by the HTTP API and cmd/litmus -json.
type (
	// ServerConfig tunes the model-checking service.
	ServerConfig = server.Config
	// Server is the model-checking service itself.
	Server = server.Server
	// Client is an HTTP client for a running service.
	Client = server.Client
	// CheckRequest is the body of POST /v1/check.
	CheckRequest = server.CheckRequest
	// CheckOptions tunes one exploration over the wire.
	CheckOptions = server.CheckOptions
	// BatchRequest is the body of POST /v1/batch.
	BatchRequest = server.BatchRequest
	// TestSpec names one test of a batch: inline source or catalog name.
	TestSpec = server.TestSpec
	// TestReport is one (test, backend) verdict in wire form.
	TestReport = server.TestReport
	// JobStatus is a batch job's progress snapshot.
	JobStatus = server.JobStatus
	// JobState is a job's lifecycle state (running, done, canceled).
	JobState = server.JobState
	// ShardReport is a shard exploration's result in mergeable form.
	ShardReport = server.ShardReport
	// ClusterRequest is the body of POST /v1/cluster: one test explored
	// across a peer set under a coordinating daemon, with cross-peer
	// dedup, work-stealing rebalance and dead-peer retry.
	ClusterRequest = server.ClusterRequest
	// ClusterOptions tunes the cluster coordinator loop.
	ClusterOptions = server.ClusterOptions
	// ShardState is one row of a cluster job's live shard map
	// (JobStatus.Shards).
	ShardState = server.ShardState
)

// Job states.
const (
	JobRunning  = server.JobRunning
	JobDone     = server.JobDone
	JobCanceled = server.JobCanceled
)

// NewServer builds a model-checking service; mount Handler() yourself or
// run ListenAndServe.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// Serve runs the model-checking daemon until ctx is canceled: litmus
// tests in, cached verdicts out. This is cmd/promised's whole body.
func Serve(ctx context.Context, cfg ServerConfig) error {
	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	return s.ListenAndServe(ctx)
}

// NewClient returns a client for the service at baseURL
// (e.g. "http://127.0.0.1:8419").
func NewClient(baseURL string) *Client { return server.NewClient(baseURL, nil) }

// ReportJSON converts a batch cell into the service's wire form (used by
// cmd/litmus -json so CLI and server output share one shape).
func ReportJSON(r Report) TestReport { return server.ReportJSON(r) }
