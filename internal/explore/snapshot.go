package explore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"promising/internal/core"
	"promising/internal/lang"
)

// Checkpoint/resume and shard scale-out.
//
// A Snapshot is a paused exploration: the pending frontier (drained from
// every worker stack at a safe point between two Process calls), the
// dedup set's contents, the outcomes and counters accumulated so far, and
// enough identity (format version, semantics epoch, backend, certify
// flag, test hash) to refuse resumption under different semantics.
// Resuming rebuilds the worker stacks and the seenSet and continues the
// run; because deduplication guarantees every state is processed exactly
// once across all legs, the union of a snapshot's accumulated result with
// its resumed leg is byte-identical (outcome sets, States, DeadEnds) to
// an uninterrupted run.
//
// Sharding rides on the same representation: Split(n) deals the frontier
// into n disjoint shards that each keep the full seen-set, so shards can
// be explored independently (in-process, or as shard jobs on peer
// daemons via POST /v1/shards/jobs) and merged with the engine's deterministic merge
// rules. Shard-local seen-sets diverge after the split, so a state
// reachable from two shards is re-explored in both — that costs work,
// never soundness: outcome sets are unions and the merged set equals the
// unsharded one. Only the States/DeadEnds counters of a sharded run may
// exceed the unsharded counts (by exactly the cross-shard revisits).

// SnapshotVersion is the serialization format version; Resume refuses
// snapshots from other versions. Version 2 holds the sort-based
// symmetry-canonical seen-set keys (reduce.go); a version-1 seen set
// holds the older least-over-all-permutations keys, which the current
// explorers never produce, so resuming one would revisit and
// double-count its states.
const SnapshotVersion = 2

// Backend tags stamped into snapshots. They equal the registry names in
// internal/backends (which this package cannot import — the registry
// imports it).
const (
	snapPromising = "promising"
	snapNaive     = "naive"
)

// SnapOutcome is one accumulated outcome in wire form (Outcome without
// the map key, which is recomputed on load).
type SnapOutcome struct {
	Regs []lang.Val `json:"regs,omitempty"`
	Mem  []lang.Val `json:"mem,omitempty"`
}

// Snapshot is a versioned, deterministic serialization of an in-progress
// exploration. Marshal canonicalizes (frontier and seen-set sorted
// lexicographically, outcomes by key), so equal snapshots have equal
// bytes.
type Snapshot struct {
	Version int    `json:"version"`
	Epoch   string `json:"epoch"`
	Backend string `json:"backend"`
	// Test is the content hash of the litmus test this exploration
	// belongs to (litmus.Test.Hash), stamped by the litmus layer; ""
	// for snapshots taken below it.
	Test string `json:"test,omitempty"`
	// Certify records Options.Certify at checkpoint time; resuming under
	// a different setting would change the explored state space.
	Certify bool `json:"certify"`
	// Reductions records the effective reduction configuration of the run
	// (Options.EffectiveReductions): "symmetry", "pruning" or
	// "symmetry+pruning"; empty means none. A reduced and an unreduced
	// run intern different key sets and carry different sleep state, so
	// Validate refuses to resume across configurations.
	Reductions string `json:"reductions,omitempty"`
	// Frontier holds the canonical encodings of the pending states, in
	// the backend's own frontier-state encoding (machine states for
	// naive, phase-1 memories for promising, flat machine keys for flat,
	// joint-trace index prefixes for axiomatic).
	Frontier [][]byte `json:"frontier"`
	// FrontierAux carries per-entry reduction state (packAux: sleep set,
	// claimed families, fresh flag) parallel to Frontier; empty when the
	// run had no pruning. Entries with equal state encodings but
	// different aux words are distinct pending work items.
	FrontierAux []uint64 `json:"frontier_aux,omitempty"`
	// Seen holds the dedup set's contents (every canonical encoding
	// interned so far, frontier included); nil for backends without a
	// seen-set (axiomatic).
	Seen [][]byte `json:"seen,omitempty"`
	// Outcomes, States, DeadEnds and BoundExceeded are the partial
	// result accumulated before the checkpoint.
	Outcomes      []SnapOutcome `json:"outcomes"`
	States        int           `json:"states"`
	DeadEnds      int           `json:"dead_ends,omitempty"`
	BoundExceeded bool          `json:"bound_exceeded,omitempty"`

	// Delta marks the snapshot as a delta leg: Seen holds only the
	// entries added since the base snapshot (the one this leg resumed
	// from), while Frontier, FrontierAux, Outcomes and the counters are
	// complete as always — they are the leg's full current state, not
	// increments. A delta cannot be resumed directly; ApplyDelta folds it
	// onto its base to reconstruct the full snapshot. Emitted only under
	// Options.DeltaSnapshot.
	Delta bool `json:"delta,omitempty"`
	// Leg numbers the checkpoint legs of a delta-mode run (the initial
	// full snapshot is leg 0, each resumed checkpoint increments it);
	// ApplyDelta requires delta.Leg == base.Leg+1, so out-of-order or
	// skipped deltas are refused instead of silently corrupting the seen
	// set. Zero outside delta mode.
	Leg int `json:"leg,omitempty"`
	// BaseSeen is the base snapshot's seen-set size at the moment the
	// delta leg resumed — the high-water cursor its Seen entries start
	// after. ApplyDelta cross-checks it against len(base.Seen).
	BaseSeen int `json:"base_seen,omitempty"`

	// canon records that the byte-sets and outcomes are already in
	// canonical (sorted) order, so canonicalize is a one-shot: Marshal on
	// an already-canonical snapshot performs no writes, which lets Split
	// shards share one Seen backing array and still be marshaled from
	// concurrent goroutines. Callers that mutate a snapshot's exported
	// fields by hand own re-canonicalization.
	canon bool
}

// newSnapshot assembles a snapshot from a checkpointed run's partial
// result. frontier and seen are the backend's canonical encodings; aux,
// when non-nil, is parallel to frontier (packAux words); res must already
// include any prior snapshot's accumulated counters (the resume path
// merges before re-snapshotting).
func newSnapshot(backend string, opts *Options, res *Result, frontier, seen [][]byte, aux []uint64) *Snapshot {
	s := &Snapshot{
		Version:       SnapshotVersion,
		Epoch:         core.SemanticsEpoch,
		Backend:       backend,
		Certify:       opts.Certify,
		Frontier:      frontier,
		FrontierAux:   aux,
		Seen:          seen,
		States:        res.States,
		DeadEnds:      res.DeadEnds,
		BoundExceeded: res.BoundExceeded,
	}
	if stamp := opts.EffectiveReductions(backend); stamp != "none" {
		s.Reductions = stamp
	}
	for _, o := range res.Outcomes {
		s.Outcomes = append(s.Outcomes, SnapOutcome{Regs: o.Regs, Mem: o.Mem})
	}
	s.canonicalize()
	return s
}

// canonicalize sorts the byte sets and outcomes so serialization is a
// deterministic function of the snapshot's contents (checkpoints taken
// under different worker schedules at the same logical point still differ
// — which states are pending depends on the schedule — but any given
// snapshot always serializes to the same bytes).
func (s *Snapshot) canonicalize() {
	if s.canon {
		return
	}
	if len(s.FrontierAux) != len(s.Frontier) {
		// Aux words are only meaningful parallel to the frontier; a
		// mismatched slice (hand-edited snapshot) is dropped, which resume
		// treats as the conservative expand-everything default.
		s.FrontierAux = nil
	}
	if s.FrontierAux != nil {
		// Co-sort the frontier and its aux words, breaking ties on the aux
		// value: duplicate state encodings with different sleep state are
		// legitimate distinct entries and must still order deterministically.
		idx := make([]int, len(s.Frontier))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			if c := bytes.Compare(s.Frontier[idx[a]], s.Frontier[idx[b]]); c != 0 {
				return c < 0
			}
			return s.FrontierAux[idx[a]] < s.FrontierAux[idx[b]]
		})
		nf := make([][]byte, len(idx))
		na := make([]uint64, len(idx))
		for i, j := range idx {
			nf[i] = s.Frontier[j]
			na[i] = s.FrontierAux[j]
		}
		s.Frontier, s.FrontierAux = nf, na
	} else {
		sortBytes(s.Frontier)
	}
	sortBytes(s.Seen)
	sort.Slice(s.Outcomes, func(i, j int) bool {
		return s.Outcomes[i].key() < s.Outcomes[j].key()
	})
	s.canon = true
}

func sortBytes(bs [][]byte) {
	sort.Slice(bs, func(i, j int) bool { return bytes.Compare(bs[i], bs[j]) < 0 })
}

func (o SnapOutcome) key() string { return Outcome{Regs: o.Regs, Mem: o.Mem}.Key() }

// Marshal serializes the snapshot deterministically.
func (s *Snapshot) Marshal() ([]byte, error) {
	s.canonicalize()
	return json.Marshal(s)
}

// UnmarshalSnapshot parses a snapshot and validates its format version
// and semantics epoch (contents are validated lazily, on resume, against
// the program being resumed).
func UnmarshalSnapshot(raw []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("explore: bad snapshot: %v", err)
	}
	if err := s.checkHeader(); err != nil {
		return nil, err
	}
	return &s, nil
}

func (s *Snapshot) checkHeader() error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("explore: snapshot version %d, want %d", s.Version, SnapshotVersion)
	}
	if s.Epoch != core.SemanticsEpoch {
		return fmt.Errorf("explore: snapshot from semantics epoch %q, current is %q", s.Epoch, core.SemanticsEpoch)
	}
	return nil
}

// Validate checks that the snapshot may be resumed under the given
// backend name and options.
func (s *Snapshot) Validate(backend string, opts *Options) error {
	if err := s.checkHeader(); err != nil {
		return err
	}
	if s.Backend != backend {
		return fmt.Errorf("explore: snapshot is for backend %q, not %q", s.Backend, backend)
	}
	if s.Certify != opts.Certify {
		return fmt.Errorf("explore: snapshot taken with certify=%t, resume requested certify=%t", s.Certify, opts.Certify)
	}
	if opts.CollectWitnesses {
		return fmt.Errorf("explore: cannot resume with witness collection (traces do not survive a snapshot)")
	}
	if want := opts.EffectiveReductions(backend); s.reductions() != want {
		return fmt.Errorf("explore: snapshot taken with reductions=%s, resume would apply %s", s.reductions(), want)
	}
	if s.Delta {
		return fmt.Errorf("explore: cannot resume from a delta snapshot (leg %d); ApplyDelta it onto its base first", s.Leg)
	}
	return nil
}

// reductions returns the stamped reduction configuration, mapping the
// omitted empty value back to "none".
func (s *Snapshot) reductions() string {
	if s.Reductions == "" {
		return "none"
	}
	return s.Reductions
}

// mergeInto folds the snapshot's accumulated partial result into res
// (outcome union, counters add), completing a resumed leg into the full
// logical run.
func (s *Snapshot) mergeInto(res *Result) {
	for _, o := range s.Outcomes {
		res.add(Outcome{Regs: o.Regs, Mem: o.Mem}, nil)
	}
	res.States += s.States
	res.DeadEnds += s.DeadEnds
	res.BoundExceeded = res.BoundExceeded || s.BoundExceeded
}

// NewSnapshotFor assembles a snapshot on behalf of an out-of-package
// backend that does not run the interleaving driver (axiomatic); the
// driver and promise-first use newSnapshot directly. aux may be nil when
// the backend ran without pruning.
func NewSnapshotFor(backend string, opts *Options, res *Result, frontier, seen [][]byte, aux []uint64) *Snapshot {
	return newSnapshot(backend, opts, res, frontier, seen, aux)
}

// newDeltaSnapshot assembles the delta form of a resumed leg's checkpoint:
// identical to newSnapshot except that Seen carries only the entries the
// leg added past the imported base (ss.ExportDelta) and the delta header
// fields chain it to prev, the snapshot the leg resumed from.
func newDeltaSnapshot(backend string, opts *Options, res *Result, frontier [][]byte, ss *seenSet, aux []uint64, prev *Snapshot) *Snapshot {
	s := newSnapshot(backend, opts, res, frontier, ss.ExportDelta(), aux)
	s.Test = prev.Test
	s.Delta = true
	s.Leg = prev.Leg + 1
	s.BaseSeen = ss.Base()
	return s
}

// ApplyDelta reconstructs the full snapshot a delta leg stands for:
// base's seen-set extended with the delta's new entries, under the
// delta's frontier, outcomes and counters. The result equals, byte for
// byte once marshaled, the full snapshot the leg would have emitted
// without Options.DeltaSnapshot. base is not mutated. Header identity
// (backend, epoch, test, certify, reductions) must match, the legs must
// chain (delta.Leg == base.Leg+1) and the delta's recorded cursor must
// equal the base's seen-set size; any mismatch is an error rather than a
// silently corrupted seen set.
func ApplyDelta(base, delta *Snapshot) (*Snapshot, error) {
	if base == nil || delta == nil {
		return nil, fmt.Errorf("explore: ApplyDelta on nil snapshot")
	}
	if base.Delta {
		return nil, fmt.Errorf("explore: ApplyDelta base is itself a delta (leg %d)", base.Leg)
	}
	if !delta.Delta {
		return nil, fmt.Errorf("explore: ApplyDelta on a non-delta snapshot")
	}
	if err := delta.checkHeader(); err != nil {
		return nil, err
	}
	if base.Backend != delta.Backend || base.Test != delta.Test ||
		base.Certify != delta.Certify || base.reductions() != delta.reductions() {
		return nil, fmt.Errorf("explore: delta leg %d does not belong to its base (backend/test/certify/reductions mismatch)", delta.Leg)
	}
	if delta.Leg != base.Leg+1 {
		return nil, fmt.Errorf("explore: delta leg %d cannot apply to base leg %d (want leg %d)", delta.Leg, base.Leg, base.Leg+1)
	}
	if delta.BaseSeen != len(base.Seen) {
		return nil, fmt.Errorf("explore: delta cursor %d does not match base seen-set size %d", delta.BaseSeen, len(base.Seen))
	}
	seen := make([][]byte, 0, len(base.Seen)+len(delta.Seen))
	seen = append(seen, base.Seen...)
	seen = append(seen, delta.Seen...)
	return &Snapshot{
		Version:       delta.Version,
		Epoch:         delta.Epoch,
		Backend:       delta.Backend,
		Test:          delta.Test,
		Certify:       delta.Certify,
		Reductions:    delta.Reductions,
		Frontier:      delta.Frontier,
		FrontierAux:   delta.FrontierAux,
		Seen:          seen,
		Outcomes:      delta.Outcomes,
		States:        delta.States,
		DeadEnds:      delta.DeadEnds,
		BoundExceeded: delta.BoundExceeded,
		Leg:           delta.Leg,
		// Seen is base-sorted followed by delta-sorted — not globally
		// sorted; Marshal/Resume re-canonicalize lazily.
	}, nil
}

// MergeSnapshotInto folds snap's accumulated partial result into res —
// the step that completes a resumed leg into the full logical run —
// exported for the out-of-package backends.
func MergeSnapshotInto(snap *Snapshot, res *Result) { snap.mergeInto(res) }

// Split deals the frontier into n disjoint shards, each carrying the full
// seen-set and an empty accumulated result (the parent snapshot keeps the
// accumulated outcomes; MergeShards folds them back in exactly once).
// Shards may be explored independently — in-process, or shipped to peer
// daemons via POST /v1/shards/jobs — and some may be empty when the frontier
// has fewer than n states.
func (s *Snapshot) Split(n int) []*Snapshot {
	if n < 1 {
		n = 1
	}
	s.canonicalize()
	shards := make([]*Snapshot, n)
	for i := range shards {
		shards[i] = &Snapshot{
			Version:    s.Version,
			Epoch:      s.Epoch,
			Backend:    s.Backend,
			Test:       s.Test,
			Certify:    s.Certify,
			Reductions: s.Reductions,
			Seen:       s.Seen,
			// Canonical by construction: Seen is the parent's sorted
			// slice (shared, and never written again thanks to canon),
			// the round-robin deal below preserves the parent frontier's
			// sorted order, and the outcome set is empty. This is what
			// makes concurrent shard Marshals write-free.
			canon: true,
		}
	}
	for i, fb := range s.Frontier {
		sh := shards[i%n]
		sh.Frontier = append(sh.Frontier, fb)
		if s.FrontierAux != nil {
			sh.FrontierAux = append(sh.FrontierAux, s.FrontierAux[i])
		}
	}
	return shards
}

// MergeShards merges independently explored shard results with the parent
// snapshot's accumulated partial result: outcome sets union, counters
// sum, abort flags or. The merged outcome set equals the unsharded one
// (soundness does not depend on shard-local seen-sets); States/DeadEnds
// may exceed the unsharded counts by the cross-shard revisits.
func MergeShards(parent *Snapshot, shardResults []*Result) *Result {
	res := newResult()
	for _, r := range shardResults {
		if r != nil {
			res.merge(r)
			res.Stats.Interned += r.Stats.Interned
			res.Stats.CertHits += r.Stats.CertHits
			res.Stats.CertMisses += r.Stats.CertMisses
			res.Stats.CertEntries += r.Stats.CertEntries
			res.Stats.SymmetryHits += r.Stats.SymmetryHits
			res.Stats.PrunedStates += r.Stats.PrunedStates
			// Every shard explores the same program, so the class count is
			// a property, not an accumulator.
			if r.Stats.SymmetryClasses > res.Stats.SymmetryClasses {
				res.Stats.SymmetryClasses = r.Stats.SymmetryClasses
			}
		}
	}
	parent.mergeInto(res)
	return res
}

// Resume continues a checkpointed exploration of one of this package's
// machine explorers (promise-first or naive). The compiled program and
// spec must be the ones the snapshot was taken from; flat and axiomatic
// snapshots resume through their own packages (internal/backends routes
// all four by name).
func Resume(cp *lang.CompiledProgram, spec *ObsSpec, snap *Snapshot, opts Options) (*Result, error) {
	switch snap.Backend {
	case snapPromising:
		return ResumePromiseFirst(cp, spec, snap, opts)
	case snapNaive:
		return ResumeNaive(cp, spec, snap, opts)
	default:
		return nil, fmt.Errorf("explore: cannot resume backend %q here (use its own package)", snap.Backend)
	}
}
