// Package server is the model-checking service: a long-running HTTP
// daemon (cmd/promised) that accepts litmus tests over JSON, runs them on
// a bounded worker pool backed by the parallel exploration engine, caches
// verdicts content-addressed on canonicalized test source × backend ×
// options, and exposes job control for batches — including streaming
// per-test progress and context-cancellation of in-flight explorations.
//
// Endpoints (v1):
//
//	POST   /v1/check            one test, synchronous, cache-aware
//	POST   /v1/batch            many tests × backends → job id
//	POST   /v1/shards           explore one frontier shard of a snapshot
//	POST   /v1/fuzz             differential fuzzing campaign → job id
//	GET    /v1/jobs/{id}        job status + completed cell reports
//	DELETE /v1/jobs/{id}        cancel: aborts in-flight explorations
//	GET    /v1/jobs/{id}/events per-cell/campaign progress as SSE
//	GET    /v1/jobs/{id}/witnesses           witness index of a witness job
//	GET    /v1/jobs/{id}/witnesses/{outcome} one outcome's full witness trace
//	GET    /v1/catalog          the built-in canonical litmus tests
//	GET    /v1/stats            the /metrics counters + job list as JSON
//	GET    /v1/bench            committed BENCH_*.json benchmark baselines
//	GET    /healthz             liveness + uptime
//	GET    /metrics             Prometheus-style counters
//	GET    /ui                  the embedded observatory dashboard
package server

import (
	"encoding/json"
	"sort"
	"strings"

	"promising/internal/explore"
	"promising/internal/fuzz"
	"promising/internal/litmus"
	"promising/internal/obs"
)

// CheckOptions tunes one exploration over the wire. Zero values select the
// server's defaults.
type CheckOptions struct {
	// Parallelism is the exploration engine's worker count for this test
	// (0 = server default, negative = GOMAXPROCS).
	Parallelism int `json:"parallelism,omitempty"`
	// MaxStates aborts after this many distinct states (0 = unlimited).
	MaxStates int `json:"max_states,omitempty"`
	// TimeoutMS is the per-test wall-clock budget in milliseconds
	// (0 = server default; clamped to the server's maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Certify disables per-step certification when set to false
	// (default true; see explore.Options.Certify).
	Certify *bool `json:"certify,omitempty"`
	// Reductions selects the certified state-space reductions: on (the
	// default), off, symmetry or pruning (explore.ParseReductionMode).
	Reductions string `json:"reductions,omitempty"`
	// Witnesses records one minimized, replay-validated witness trace per
	// observed outcome (explore.Options.CollectWitnesses). It forces
	// reductions off and makes the cells refuse checkpoints
	// (TestReport.CheckpointRefused); witnesses ride on the cell reports
	// and are served through GET /v1/jobs/{id}/witnesses.
	Witnesses bool `json:"witnesses,omitempty"`
}

// TestSpec names one test: inline litmus source, or a catalog test name.
type TestSpec struct {
	Source  string `json:"source,omitempty"`
	Catalog string `json:"catalog,omitempty"`
}

// CheckRequest is the body of POST /v1/check.
type CheckRequest struct {
	TestSpec
	// Backend is one of promising, naive, axiomatic, flat
	// (default promising).
	Backend string       `json:"backend,omitempty"`
	Options CheckOptions `json:"options,omitzero"`
}

// BatchRequest is the body of POST /v1/batch: Tests × Backends cells.
type BatchRequest struct {
	Tests    []TestSpec   `json:"tests"`
	Backends []string     `json:"backends,omitempty"` // default [promising]
	Options  CheckOptions `json:"options,omitzero"`
}

// BatchResponse acknowledges a batch or fuzz job. For fuzz jobs Cells is
// the iteration budget (0 = purely time-boxed).
type BatchResponse struct {
	JobID string `json:"job_id"`
	Cells int    `json:"cells"`
}

// TestReport is one (test, backend) verdict in wire form. cmd/litmus
// -json emits the same shape, so CI pipelines parse one format whether
// they ran the CLI or the service.
type TestReport struct {
	Test    string `json:"test"`
	Arch    string `json:"arch,omitempty"`
	Backend string `json:"backend"`
	// Status is pass, fail, timeout, aborted, error (litmus.Status) or
	// canceled (the cell's job was canceled before it started).
	Status  string `json:"status"`
	Allowed bool   `json:"allowed"`
	Expect  string `json:"expect,omitempty"`
	// Outcomes lists the observed final states, one formatted line each,
	// sorted.
	Outcomes      []string `json:"outcomes,omitempty"`
	States        int      `json:"states"`
	DeadEnds      int      `json:"dead_ends,omitempty"`
	BoundExceeded bool     `json:"bound_exceeded,omitempty"`
	// ElapsedUS is the exploration's own cost in microseconds; cached
	// responses keep the original exploration's cost and set Cached.
	ElapsedUS int64  `json:"elapsed_us"`
	Cached    bool   `json:"cached,omitempty"`
	Error     string `json:"error,omitempty"`
	// Stats carries the exploration's engine instrumentation (interned
	// states, certification-cache performance); omitted when the cell
	// never ran.
	Stats *ExploreStatsJSON `json:"stats,omitempty"`
	// CheckpointRefused reports that the exploration was asked to
	// checkpoint but refused (witness collection: traces do not survive a
	// snapshot) — the explicit surface of why a witness cell leaves no
	// snapshots behind.
	CheckpointRefused bool `json:"checkpoint_refused,omitempty"`
	// Witnesses holds one annotated witness trace per observed outcome
	// when the cell ran with CheckOptions.Witnesses. They ride on the
	// report (and through the verdict cache, so cached witness cells keep
	// their traces); the witness endpoints index into them.
	Witnesses []litmus.WitnessTrace `json:"witnesses,omitempty"`
}

// ExploreStatsJSON is explore.ExploreStats in wire form.
type ExploreStatsJSON struct {
	// Interned counts distinct canonical state encodings interned by the
	// run's dedup set.
	Interned int `json:"interned,omitempty"`
	// CertHits/CertMisses count exploration-scoped certification-cache
	// lookups; CertEntries is the cache's final size.
	CertHits    int64 `json:"cert_hits,omitempty"`
	CertMisses  int64 `json:"cert_misses,omitempty"`
	CertEntries int   `json:"cert_entries,omitempty"`
	// SymmetryClasses/SymmetryHits/PrunedStates are the state-space
	// reduction counters (explore.ExploreStats).
	SymmetryClasses int   `json:"symmetry_classes,omitempty"`
	SymmetryHits    int64 `json:"symmetry_hits,omitempty"`
	PrunedStates    int64 `json:"pruned_states,omitempty"`
}

// StatusCanceled marks a batch cell whose job was canceled before the
// cell ever started exploring (cells canceled mid-exploration surface as
// litmus.StatusTimeout: the context abort is indistinguishable from a
// deadline abort at the engine level).
const StatusCanceled = "canceled"

// ReportJSON converts a batch cell into wire form.
func ReportJSON(r litmus.Report) TestReport {
	tr := TestReport{Backend: r.Backend, Status: string(r.Status())}
	if r.Test != nil {
		tr.Test = r.Test.Name()
		tr.Arch = r.Test.Prog.Arch.String()
		tr.Expect = r.Test.Expect.String()
	}
	if r.Err != nil {
		tr.Error = r.Err.Error()
	}
	if v := r.Verdict; v != nil {
		tr.Allowed = v.Allowed
		tr.States = v.Result.States
		tr.DeadEnds = v.Result.DeadEnds
		tr.BoundExceeded = v.Result.BoundExceeded
		tr.CheckpointRefused = v.Result.CheckpointRefused
		tr.ElapsedUS = v.Elapsed.Microseconds()
		if out := litmus.FormatOutcomes(v.Spec, v.Result, v.Test.Prog); out != "" {
			tr.Outcomes = strings.Split(out, "\n")
		}
		if s := v.Result.Stats; s != (explore.ExploreStats{}) {
			tr.Stats = &ExploreStatsJSON{
				Interned:        s.Interned,
				CertHits:        s.CertHits,
				CertMisses:      s.CertMisses,
				CertEntries:     s.CertEntries,
				SymmetryClasses: s.SymmetryClasses,
				SymmetryHits:    s.SymmetryHits,
				PrunedStates:    s.PrunedStates,
			}
		}
	}
	return tr
}

// ShardReport is a shard exploration's result in mergeable form: raw
// outcome values rather than formatted lines, so the coordinator can
// union them losslessly across shards.
type ShardReport struct {
	Outcomes      []explore.SnapOutcome `json:"outcomes"`
	States        int                   `json:"states"`
	DeadEnds      int                   `json:"dead_ends,omitempty"`
	BoundExceeded bool                  `json:"bound_exceeded,omitempty"`
	// TimedOut/Aborted mark an incomplete shard: the merged outcome set
	// is then a lower bound, not the exhaustive set.
	TimedOut  bool              `json:"timed_out,omitempty"`
	Aborted   bool              `json:"aborted,omitempty"`
	ElapsedUS int64             `json:"elapsed_us"`
	Stats     *ExploreStatsJSON `json:"stats,omitempty"`
}

// Result converts the report back into an explore.Result for
// explore.MergeShards.
func (sr *ShardReport) Result() *explore.Result {
	res := &explore.Result{
		Outcomes:      make(map[string]explore.Outcome, len(sr.Outcomes)),
		Witnesses:     map[string]explore.Witness{},
		States:        sr.States,
		DeadEnds:      sr.DeadEnds,
		BoundExceeded: sr.BoundExceeded,
		TimedOut:      sr.TimedOut,
		Aborted:       sr.Aborted,
	}
	for _, so := range sr.Outcomes {
		o := explore.Outcome{Regs: so.Regs, Mem: so.Mem}
		res.Outcomes[o.Key()] = o
	}
	if sr.Stats != nil {
		res.Stats = explore.ExploreStats{
			Interned:        sr.Stats.Interned,
			CertHits:        sr.Stats.CertHits,
			CertMisses:      sr.Stats.CertMisses,
			CertEntries:     sr.Stats.CertEntries,
			SymmetryClasses: sr.Stats.SymmetryClasses,
			SymmetryHits:    sr.Stats.SymmetryHits,
			PrunedStates:    sr.Stats.PrunedStates,
		}
	}
	return res
}

// shardReportOf projects a shard verdict onto the wire, outcomes in
// deterministic (key) order.
func shardReportOf(res *explore.Result, elapsedUS int64) ShardReport {
	sr := ShardReport{
		States:        res.States,
		DeadEnds:      res.DeadEnds,
		BoundExceeded: res.BoundExceeded,
		TimedOut:      res.TimedOut,
		Aborted:       res.Aborted,
		ElapsedUS:     elapsedUS,
	}
	keys := make([]string, 0, len(res.Outcomes))
	for k := range res.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		o := res.Outcomes[k]
		sr.Outcomes = append(sr.Outcomes, explore.SnapOutcome{Regs: o.Regs, Mem: o.Mem})
	}
	if st := res.Stats; st != (explore.ExploreStats{}) {
		sr.Stats = &ExploreStatsJSON{
			Interned:        st.Interned,
			CertHits:        st.CertHits,
			CertMisses:      st.CertMisses,
			CertEntries:     st.CertEntries,
			SymmetryClasses: st.SymmetryClasses,
			SymmetryHits:    st.SymmetryHits,
			PrunedStates:    st.PrunedStates,
		}
	}
	return sr
}

// FuzzRequest is the body of POST /v1/fuzz: a time- or iteration-boxed
// differential fuzzing campaign, run as a cancelable job on the shared
// worker pool.
type FuzzRequest struct {
	// Seed is the campaign base seed (same seed, same fresh candidates).
	Seed int64 `json:"seed,omitempty"`
	// Iterations bounds the candidate count (default 1000, capped by the
	// server's MaxFuzzIterations).
	Iterations int `json:"iterations,omitempty"`
	// TimeBudgetMS time-boxes the campaign (capped by the server's
	// MaxTimeout).
	TimeBudgetMS int64 `json:"time_budget_ms,omitempty"`
	// Profile is a named generator profile: classic, fences, xcl, deps,
	// full (default).
	Profile string `json:"profile,omitempty"`
	// Arch is arm, riscv or both (default).
	Arch string `json:"arch,omitempty"`
	// Backends lists the backends, oracle first (default
	// promising, naive, axiomatic).
	Backends []string `json:"backends,omitempty"`
	// Shrink delta-debugs findings to minimal reproducers (default true).
	Shrink *bool `json:"shrink,omitempty"`
	// Threads/MaxInstrs/Locs are generator size knobs (clamped to 4/6/4).
	Threads   int `json:"threads,omitempty"`
	MaxInstrs int `json:"max_instrs,omitempty"`
	Locs      int `json:"locs,omitempty"`
	// MaxFindings stops the campaign early (0 = run the whole budget).
	MaxFindings int `json:"max_findings,omitempty"`
}

// FuzzStatus is a fuzz job's progress (in JobStatus.Fuzz and streamed in
// JobEvent.Fuzz): iteration counters, corpus size, distinct-outcome
// coverage and disagreements, plus the findings on terminal snapshots.
type FuzzStatus struct {
	fuzz.Progress
	// Findings is populated once the campaign finishes (it is the part
	// clients act on; streaming partial findings would race the shrinker).
	// The wire key is finding_list: "findings" is the embedded Progress's
	// *count*, which an identically-named key here would shadow out of
	// every serialized snapshot (fuzz.Summary makes the same split).
	Findings []fuzz.Finding `json:"finding_list,omitempty"`
	// Error reports a campaign infrastructure failure.
	Error string `json:"error,omitempty"`
}

// JobState is the lifecycle of a batch job.
type JobState string

// Job states.
const (
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobCanceled JobState = "canceled"
)

// JobStatus is the body of GET /v1/jobs/{id}.
type JobStatus struct {
	ID string `json:"id"`
	// Kind is "batch", "fuzz" or "cluster".
	Kind  string   `json:"kind,omitempty"`
	State JobState `json:"state"`
	// Total is the cell count for batch jobs and the iteration budget for
	// fuzz jobs — 0 for a purely time-boxed campaign (iteration count
	// unbounded), in which case Completed alone tracks progress.
	Total     int `json:"total"`
	Completed int `json:"completed"`
	CacheHits int `json:"cache_hits"`
	// Reports holds one entry per cell, indexed test-major (cell
	// i*len(backends)+j, litmus.RunAll's deterministic layout); a null
	// entry is a cell that has not completed yet. Nil for fuzz jobs.
	Reports []*TestReport `json:"reports,omitempty"`
	// Fuzz is the campaign progress (fuzz jobs only); its Findings are
	// populated once the job is terminal.
	Fuzz      *FuzzStatus `json:"fuzz,omitempty"`
	ElapsedMS int64       `json:"elapsed_ms"`
	// ResumedFromCheckpoint marks a job the daemon re-enqueued from its
	// state dir after a restart; CheckpointAgeMS is how old the newest
	// recovered cell checkpoint was at that moment (0 when the job was
	// recovered before any cell had checkpointed).
	ResumedFromCheckpoint bool  `json:"resumed_from_checkpoint,omitempty"`
	CheckpointAgeMS       int64 `json:"checkpoint_age_ms,omitempty"`
	// Trace is the job's per-stage tracing summary (counts and span
	// durations per stage name), aggregated over every event the job ever
	// emitted — ring overflow on the live event stream never loses totals.
	Trace []obs.StageSummary `json:"trace,omitempty"`
	// Stats is the in-flight exploration snapshot accumulated across the
	// job's cells (states, frontier sizes, cache counters, states/sec).
	// Present only while at least one subscriber made the cells sample.
	Stats *obs.StatsSnapshot `json:"stats,omitempty"`
	// Shards is a cluster job's live shard map: one row per dispatched
	// attempt with its peer, provenance (initial/retry/steal) and sampled
	// throughput.
	Shards []ShardState `json:"shards,omitempty"`
}

// JobEvent kinds (JobEvent.Kind).
const (
	// EventCell is a batch-cell completion (Report set).
	EventCell = "cell"
	// EventFuzz is a fuzz-campaign progress snapshot (Fuzz set).
	EventFuzz = "fuzz"
	// EventStage is a typed stage event from the job's tracer (Stage set).
	EventStage = "stage"
	// EventStats is an in-flight exploration stats sample (Stats set).
	EventStats = "stats"
	// EventShards is a cluster job's shard-map update (Shards set).
	EventShards = "shards"
	// EventWitness announces the witness traces of a just-completed
	// witness cell (Witnesses set: the cell's index entries; full traces
	// come from GET /v1/jobs/{id}/witnesses/{outcome}).
	EventWitness = "witness"
	// EventSummary is the stream-ending summary.
	EventSummary = "summary"
)

// JobEvent is one Server-Sent Event on GET /v1/jobs/{id}/events: a cell
// completion, a stage event, an in-flight stats sample, a fuzz progress
// snapshot, or the stream-ending summary (Kind "summary", Cell == -1).
// A final event with Dropped set means the subscriber fell behind the
// job's event rate and events were lost — the job may still be running,
// and the client should fall back to polling GET /v1/jobs/{id} (or
// re-subscribing, which replays completed cells).
type JobEvent struct {
	JobID string `json:"job_id"`
	// Kind discriminates the event: cell, fuzz, stage, stats, summary
	// (empty in pre-observatory streams = cell/fuzz by payload field).
	Kind      string      `json:"kind,omitempty"`
	State     JobState    `json:"state"`
	Cell      int         `json:"cell"`
	Completed int         `json:"completed"`
	Total     int         `json:"total"`
	Report    *TestReport `json:"report,omitempty"`
	// Fuzz carries a campaign progress snapshot (fuzz jobs; Cell is -1 on
	// progress events, and the stream-ending summary carries the final
	// snapshot with findings).
	Fuzz *FuzzStatus `json:"fuzz,omitempty"`
	// Stage is the stage event payload (Kind "stage").
	Stage *obs.StageEvent `json:"stage_event,omitempty"`
	// Stats is the sampled in-flight snapshot payload (Kind "stats");
	// Cell identifies the sampling cell.
	Stats *obs.StatsSnapshot `json:"stats,omitempty"`
	// Shards is the cluster shard-map payload (Kind "shards").
	Shards []ShardState `json:"shards,omitempty"`
	// Witnesses is the witness-announcement payload (Kind "witness"): the
	// completing cell's witness index entries.
	Witnesses []WitnessInfo `json:"witnesses,omitempty"`
	Dropped   bool          `json:"dropped,omitempty"`
}

// WitnessInfo is one row of a job's witness index: which outcome of which
// cell has a trace, and whether it went through the minimizer and the
// replay validator.
type WitnessInfo struct {
	Cell    int    `json:"cell"`
	Test    string `json:"test"`
	Backend string `json:"backend"`
	// Outcome is the formatted outcome line; it is also the key of
	// GET /v1/jobs/{id}/witnesses/{outcome} (URL-escaped).
	Outcome string `json:"outcome"`
	// Steps is the minimized machine trace's length (0 for native
	// fallbacks, whose Native lines are counted separately).
	Steps  int `json:"steps"`
	Native int `json:"native,omitempty"`
	// Minimized/Validated mirror litmus.WitnessTrace.
	Minimized bool `json:"minimized"`
	Validated bool `json:"validated"`
}

// WitnessIndex is the body of GET /v1/jobs/{id}/witnesses.
type WitnessIndex struct {
	JobID     string        `json:"job_id"`
	Witnesses []WitnessInfo `json:"witnesses"`
}

// WitnessDetail is the body of GET /v1/jobs/{id}/witnesses/{outcome}: one
// outcome's full annotated trace.
type WitnessDetail struct {
	JobID string              `json:"job_id"`
	Cell  int                 `json:"cell"`
	Trace litmus.WitnessTrace `json:"trace"`
}

// witnessInfos projects one cell report's witness traces onto index rows.
func witnessInfos(cell int, tr *TestReport) []WitnessInfo {
	if tr == nil || len(tr.Witnesses) == 0 {
		return nil
	}
	out := make([]WitnessInfo, 0, len(tr.Witnesses))
	for _, wt := range tr.Witnesses {
		out = append(out, WitnessInfo{
			Cell: cell, Test: wt.Test, Backend: wt.Backend, Outcome: wt.Outcome,
			Steps: len(wt.Steps), Native: len(wt.Native),
			Minimized: wt.Minimized, Validated: wt.Validated,
		})
	}
	return out
}

// witnessIndexOf assembles the witness index over a job's completed cell
// reports, cells in order. The same function feeds the live endpoint and
// the durable obs record, so the two serve identical documents.
func witnessIndexOf(jobID string, reports []*TestReport) WitnessIndex {
	idx := WitnessIndex{JobID: jobID, Witnesses: []WitnessInfo{}}
	for cell, tr := range reports {
		idx.Witnesses = append(idx.Witnesses, witnessInfos(cell, tr)...)
	}
	return idx
}

// StatsResponse is the body of GET /v1/stats: the same counters and
// gauges as GET /metrics in JSON form, plus the pool shape and the
// current job list — the dashboard's polling endpoint.
type StatsResponse struct {
	// Counters maps each /metrics series name to its current value.
	Counters map[string]int64 `json:"counters"`
	// Workers is the exploration worker-pool capacity; Parallelism the
	// default engine worker count per exploration.
	Workers     int   `json:"workers"`
	Parallelism int   `json:"parallelism"`
	UptimeMS    int64 `json:"uptime_ms"`
	// Jobs lists the jobs the daemon remembers, oldest first.
	Jobs []JobSummary `json:"jobs,omitempty"`
}

// JobSummary is one row of StatsResponse.Jobs.
type JobSummary struct {
	ID        string   `json:"id"`
	Kind      string   `json:"kind"`
	State     JobState `json:"state"`
	Total     int      `json:"total"`
	Completed int      `json:"completed"`
	ElapsedMS int64    `json:"elapsed_ms"`
}

// BenchFile is one committed benchmark baseline in GET /v1/bench: the
// file name and its raw JSON payload (cmd/bench's BENCH_*.json shape).
type BenchFile struct {
	Name string          `json:"name"`
	Data json.RawMessage `json:"data"`
}

// CatalogInfo describes one catalog test in GET /v1/catalog.
type CatalogInfo struct {
	Name   string `json:"name"`
	Arch   string `json:"arch"`
	Expect string `json:"expect"`
	Source string `json:"source,omitempty"`
}

// Health is the body of GET /healthz.
type Health struct {
	Status     string `json:"status"`
	UptimeMS   int64  `json:"uptime_ms"`
	ActiveJobs int    `json:"active_jobs"`
	Backends   string `json:"backends"`
}

// apiError is the JSON error envelope for non-2xx responses.
type apiError struct {
	Error string `json:"error"`
}
