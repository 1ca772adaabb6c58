// Package explore implements the exhaustive and interactive exploration
// tools of §7: the promise-first explorer (built on Theorem 7.1: enumerate
// final memories by interleaving only promise transitions, then run each
// thread independently), a naive full-interleaving explorer used for
// validation and ablation benchmarks, and an interactive stepper.
//
// Both explorers (and the flat and axiomatic backends in their own
// packages) run on the shared parallel engine in engine.go: a
// work-stealing worker pool over a Frontier of pending states, with
// deduplication through a hash-sharded seenSet and deterministic merging
// of worker-local Results. Options.Parallelism selects the worker count.
package explore

import (
	"context"
	"encoding/binary"
	"time"

	"promising/internal/core"
	"promising/internal/lang"
	"promising/internal/obs"
)

// RegObs names one observed register.
type RegObs struct {
	TID  int
	Reg  lang.Reg
	Name string // display name, e.g. "1:r0"
}

// ObsSpec selects what a final state is projected to: registers of threads
// and final values of memory locations. Restricting observations keeps
// outcome sets small, mirroring litmus conditions.
type ObsSpec struct {
	Regs []RegObs
	Locs []lang.Loc
}

// Outcome is one observed final state; Regs and Mem are parallel to the
// spec's Regs and Locs.
type Outcome struct {
	Regs []lang.Val
	Mem  []lang.Val
}

// Key returns a canonical encoding for use as a map key.
func (o Outcome) Key() string {
	var b []byte
	for _, v := range o.Regs {
		b = binary.AppendVarint(b, v)
	}
	b = binary.AppendVarint(b, int64(len(o.Regs)))
	for _, v := range o.Mem {
		b = binary.AppendVarint(b, v)
	}
	return string(b)
}

// RegVal returns the observed value of the i'th observed register.
func (o Outcome) RegVal(i int) lang.Val { return o.Regs[i] }

// observe projects a final machine state.
func observe(spec *ObsSpec, m *core.Machine) Outcome {
	var o Outcome
	for _, ro := range spec.Regs {
		o.Regs = append(o.Regs, m.Threads[ro.TID].TS.Regs[ro.Reg].Val)
	}
	for _, l := range spec.Locs {
		o.Mem = append(o.Mem, m.Mem.LastWriteTo(l))
	}
	return o
}

// Witness is a transition sequence leading to an outcome. Machine
// backends (promise-first, naive) fill Labels with typed machine steps,
// which the witness layer (witness.go) minimizes and replay-validates;
// backends without a machine trace (flat, axiomatic) fill Native with
// their own rendering of the reaching interleaving/execution, served as
// an unminimized, unvalidated fallback.
type Witness struct {
	Labels []core.Label
	Native []string
}

// Options tunes exploration.
type Options struct {
	// Certify enables per-step certification in the naive explorer
	// (the Promising machine). Disabling it yields the Global-Promising
	// machine of §D, with invalid executions discarded at the end; used to
	// test Theorem 6.2. The promise-first explorer ignores this flag (its
	// phase structure bakes certification in).
	Certify bool
	// CollectWitnesses records one witness trace per outcome.
	CollectWitnesses bool
	// MaxStates aborts exploration after this many distinct states
	// (0 = unlimited). With Parallelism > 1 the bound is enforced against
	// the global state count, so the cut-off point is approximate.
	MaxStates int
	// Deadline aborts exploration at the given time (zero = none).
	Deadline time.Time
	// Ctx, when non-nil, aborts exploration as soon as the context is
	// cancelled or its deadline passes. This is the engine-wide
	// cancellation point: every backend's workers poll it between states,
	// so a server-side job can be deadlined or killed mid-exploration.
	Ctx context.Context
	// Parallelism is the engine worker count: 0 or 1 explores
	// sequentially, n > 1 uses n workers, negative values use GOMAXPROCS.
	// The outcome set, States and DeadEnds are identical at every setting;
	// only witness traces (any valid trace per outcome) may differ.
	Parallelism int
	// CertCache, when non-nil, is the exploration-scoped certification
	// cache the naive explorer consults and fills; nil makes each run
	// create its own. The cache is keyed on interned thread/memory state
	// handles of one compiled program, so a caller-supplied cache must
	// only ever see explorations of the same compiled program. Outcome
	// sets are identical with any cache state (entries are exhaustive
	// search results, never budget-truncated). Promise-first ignores it:
	// its certification walks are call-scoped.
	CertCache *core.CertCache
	// CertCacheOff disables the naive explorer's certification cache:
	// every certification runs as a one-shot search with a call-local
	// memo, the uncached reference of the differential suite and the
	// ablation benchmarks. It has no effect on promise-first.
	CertCacheOff bool
	// Checkpoint, when non-nil, lets the caller stop the exploration
	// cooperatively at a safe point (Checkpoint.Request, or automatically
	// at NewCheckpointAfter's state budget): instead of dropping pending
	// work like an abort, the run drains it into Result.Snapshot, from
	// which Resume continues byte-identically. Refused when
	// CollectWitnesses is set (witness traces do not survive a snapshot);
	// the refusal is reported through Result.CheckpointRefused.
	Checkpoint *Checkpoint
	// Reductions selects the state-space reductions (reduce.go): the zero
	// value ReduceOn applies thread-symmetry canonicalization and
	// independence pruning wherever the backend supports them.
	// CollectWitnesses forces reductions off so every interleaving stays
	// reachable for trace collection. Outcome sets, States and DeadEnds
	// are identical at every setting.
	Reductions ReductionMode
	// Sampler, when non-nil, receives periodic in-flight StatsSnapshots
	// of the run, published from the engine's per-state pollStride path
	// (one nil check when unset; one gate load while nobody subscribes).
	// Purely observational: results, snapshots and resume identity are
	// unaffected, and the field is excluded from snapshot validation.
	Sampler *obs.Sampler
	// StatsProbe, when non-nil, fills the backend-local counters of a
	// snapshot being sampled (interned states, certification-cache and
	// reduction counters — state that lives outside the engine). Backends
	// install it themselves before handing Options to the engine; callers
	// leave it nil.
	StatsProbe func(*obs.StatsSnapshot)
	// Trace, when non-nil, receives the run's typed stage events
	// (compile, explore legs, checkpoints, certification summaries).
	// Purely observational, like Sampler.
	Trace *obs.Trace
	// DeltaSnapshot makes a resumed run emit its checkpoint in delta form
	// (Snapshot.Delta: only the seen-set entries added this leg, against
	// the resumed snapshot as base) instead of a full snapshot — O(new
	// states) instead of O(states). Callers that set it own re-assembling
	// the full snapshot with ApplyDelta before the next resume. Fresh
	// (non-resumed) runs and backends without a seen-set ignore the flag
	// and emit full snapshots. Purely a serialization choice: resuming
	// from the applied delta is byte-identical to resuming from the full
	// snapshot the leg would otherwise have emitted.
	DeltaSnapshot bool
	// Remote, when non-nil, is the cross-shard deduplication hook
	// (distributed exploration): backends with a seen-set report the
	// thread families they claim at each discovered state at its
	// child-push site and may skip expanding families another shard's
	// attempt was granted. Resume-path frontier roots are never reported
	// or dropped — a shard always explores the work it was dealt. Dedup
	// through this hook is a pure work-saving: a missed or late verdict
	// costs re-exploration, never outcomes (see the server package's
	// claim protocol for the liveness argument).
	Remote RemoteSeen
}

// RemoteSeen is the cross-shard deduplication hook of a distributed
// exploration (Options.Remote). Both methods are called from engine
// workers concurrently and must not block on the network — the intended
// implementation batches Discovered claims to the owning peer and
// answers ShouldDrop from asynchronously arriving verdicts.
//
// Claims are per thread family, in the state's canonical frame
// (CanonMask), which is what keeps cross-shard dedup sound under
// independence pruning: a shard may skip expanding a family only when
// another live attempt was explicitly granted that (state, family)
// claim, and the grantee claimed the family because it was awake at one
// of its own arrivals — so the grantee (or, after revocation, its retry
// successor) expands it. Whole-state claims would instead delegate to a
// claimant that may have slept the family at every one of its arrivals
// and never expands it: the sleep-set "ignoring problem" re-introduced
// across shards. Runs without per-family claims (no pruning) pass
// AllFamilies, degenerating to first-claimant-wins per state.
type RemoteSeen interface {
	// Discovered reports the families newly claimed at a locally
	// discovered state: key is the state's canonical encoding (valid
	// only for the duration of the call — copy to retain), h its handle
	// in the local seen-set, mask the canonical family set this arrival
	// claimed (AllFamilies when the run does not prune). It returns
	// the subset of mask already granted to another live attempt: the
	// caller must not expand those families here (their claimants do),
	// and drops the state entirely when nothing of mask remains.
	Discovered(key []byte, h core.Handle, mask uint32) uint32
	// ShouldDrop reports whether asynchronous claim verdicts have since
	// denied every family in mask (the popped entry's canonical
	// to-expand set): true means other live attempts were granted all of
	// the entry's families and it is dropped unprocessed. A partial
	// denial never drops — the entry re-expands the denied families
	// redundantly, which costs work, never outcomes.
	ShouldDrop(h core.Handle, mask uint32) bool
}

// AllFamilies is the Discovered/ShouldDrop mask of a run without
// per-family claims: the whole state is claimed as one unit.
const AllFamilies = ^uint32(0)

// DefaultOptions returns the standard configuration (certification on).
func DefaultOptions() Options { return Options{Certify: true} }

// NewSharedCertCache returns an empty certification cache for
// Options.CertCache, letting a caller share certification work across
// several explorations of the same compiled program (e.g. repeated runs
// of one test under different budgets).
func NewSharedCertCache() *core.CertCache { return core.NewCertCache() }

// certCache resolves the exploration's certification cache: the configured
// one, a fresh per-run cache, or nil when disabled.
func (o *Options) certCache() *core.CertCache {
	switch {
	case o.CertCacheOff:
		return nil
	case o.CertCache != nil:
		return o.CertCache
	default:
		return core.NewCertCache()
	}
}

func (o *Options) expired() bool {
	if o.Ctx != nil && o.Ctx.Err() != nil {
		return true
	}
	return !o.Deadline.IsZero() && time.Now().After(o.Deadline)
}

// Expired reports whether the configured context has been cancelled or the
// deadline has passed; exported for backends living outside this package
// (axiomatic, flat).
func (o *Options) Expired() bool { return o.expired() }

// Result is the outcome of exhaustive exploration.
type Result struct {
	// Outcomes maps Outcome.Key to the outcome.
	Outcomes map[string]Outcome
	// Witnesses maps outcome keys to a witness trace (when collected).
	Witnesses map[string]Witness
	// States counts distinct explored states (machine states for the naive
	// explorer; memories plus per-thread states for promise-first).
	States int
	// DeadEnds counts non-final states with no enabled transitions (ARM
	// store-exclusive deadlocks, §4.3) or, for promise-first, final
	// memories some thread cannot complete under.
	DeadEnds int
	// BoundExceeded reports that some execution ran past the loop bound,
	// so the outcome set may be incomplete.
	BoundExceeded bool
	// Aborted reports that MaxStates, Deadline or context cancellation
	// stopped the search early.
	Aborted bool
	// TimedOut reports that the abort came from the wall-clock budget
	// (Deadline) or context cancellation rather than MaxStates; it implies
	// Aborted. Batch runners use it to distinguish a timeout from a
	// genuinely diverging outcome set.
	TimedOut bool
	// Stats carries the run's engine instrumentation (interned states,
	// certification-cache performance).
	Stats ExploreStats
	// Snapshot is set when a cooperative checkpoint (Options.Checkpoint)
	// stopped the run with work still pending: the serialized exploration
	// state from which Resume continues byte-identically. It is nil when
	// the run finished, was aborted, or the backend does not support
	// checkpointing under the given options (witness collection).
	Snapshot *Snapshot
	// CheckpointRefused reports that the caller supplied a Checkpoint but
	// the run could not honour it (witness collection: traces do not
	// survive a snapshot), so the exploration ran uncheckpointable.
	// Surfaced through litmus reports and job JSON so users see why a
	// witness job has no snapshots.
	CheckpointRefused bool
}

// ExploreStats is the engine-level instrumentation of one exploration,
// surfaced through litmus reports and the daemon's /metrics.
type ExploreStats struct {
	// Interned counts the distinct canonical state encodings interned by
	// the run's dedup set: machine states for the naive and flat
	// explorers, phase-1 memories for promise-first.
	Interned int
	// CertHits and CertMisses count lookups in the naive explorer's
	// certification cache (zero with CertCacheOff, for promise-first,
	// whose certification is call-scoped, and for backends that do not
	// certify).
	CertHits   int64
	CertMisses int64
	// CertEntries is the number of cached certification search results at
	// the end of the run (zero wherever CertHits and CertMisses are).
	CertEntries int
	// SymmetryClasses counts the nontrivial thread-symmetry classes of the
	// explored program (zero when symmetry reduction was off or the
	// program has no interchangeable threads).
	SymmetryClasses int
	// SymmetryHits counts state encodings whose canonical thread order
	// moved a thread, i.e. whose canonical key differs from the concrete
	// one (the interned key is then another orbit member's encoding).
	// Fresh and repeated arrivals both count.
	SymmetryHits int64
	// PrunedStates counts thread-family expansions suppressed by
	// independence pruning (sleep sets). Pruning skips redundant
	// transition orderings, not states, so States is unaffected.
	PrunedStates int64
}

// CertHitRate returns CertHits/(CertHits+CertMisses), or 0 when the cache
// saw no lookups.
func (s ExploreStats) CertHitRate() float64 {
	if total := s.CertHits + s.CertMisses; total > 0 {
		return float64(s.CertHits) / float64(total)
	}
	return 0
}

func newResult() *Result {
	return &Result{Outcomes: make(map[string]Outcome), Witnesses: make(map[string]Witness)}
}

// Has reports whether the result contains the given observed values.
func (r *Result) Has(o Outcome) bool {
	_, ok := r.Outcomes[o.Key()]
	return ok
}

// Add records an outcome with an optional witness; the first witness per
// outcome wins. Exported for backends outside this package (flat,
// axiomatic) recording their native fallback witnesses.
func (r *Result) Add(o Outcome, w *Witness) { r.add(o, w) }

// add records an outcome with an optional witness.
func (r *Result) add(o Outcome, w *Witness) {
	k := o.Key()
	if _, ok := r.Outcomes[k]; !ok {
		r.Outcomes[k] = o
		if w != nil {
			r.Witnesses[k] = *w
		}
	}
}

// SameOutcomes reports whether two results contain exactly the same
// outcome set (used by the differential tests).
func SameOutcomes(a, b *Result) bool {
	if len(a.Outcomes) != len(b.Outcomes) {
		return false
	}
	for k := range a.Outcomes {
		if _, ok := b.Outcomes[k]; !ok {
			return false
		}
	}
	return true
}
