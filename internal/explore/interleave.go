package explore

import (
	"fmt"
	"sync/atomic"

	"promising/internal/core"
	"promising/internal/lang"
)

// Interleaving is the reduced interleaving search shared by the naive
// Promising machine (naive.go) and the Flat baseline (internal/flat):
// every interleaving of every thread's steps from the initial machine,
// each distinct state expanded once. The driver owns everything that does
// not depend on the machine:
//
//   - deduplication on the (thread-symmetry canonical) key through the
//     run's seen set, and independence pruning through sleep sets and the
//     per-state family claims the seen set holds (reduce.go);
//   - cross-shard deduplication through Options.Remote;
//   - checkpoint/resume: frontier entries travel as the backend's
//     encoding plus an aux word, and resumed legs re-import the seen set
//     and pre-claim their entries' families in it;
//   - witness collection, which forces reductions off and refuses
//     checkpoints (label traces do not survive a snapshot;
//     Result.CheckpointRefused reports the refusal);
//   - stats, outcome closure under symmetry, and full or delta
//     snapshots.
//
// M is the backend's machine type and L the label its steps carry into
// witness traces. The hooks are called concurrently from the engine's
// workers and must not share mutable state.
type Interleaving[M, L any] struct {
	// Backend is the snapshot backend tag (the registry name).
	Backend string
	// Init returns the initial machine.
	Init func() M
	// Key appends m's deduplication key to b: its encoding, or with sym
	// its symmetry-canonical form. It returns the canonicalizing thread
	// order (nil = identity) and whether canonicalization moved a thread.
	Key func(b []byte, m M, sym *Symmetry) ([]byte, []int, bool)
	// Decode inverts Key with a nil sym: frontier entries travel in
	// snapshots as that plain encoding.
	Decode func(b []byte) (M, error)
	// Bound reports that some thread ran past the loop bound.
	Bound func(m M) bool
	// Final reports a completed machine, which Observe projects onto the
	// observation spec.
	Final   func(m M) bool
	Observe func(m M) Outcome
	// Successors calls emit once per step of thread tid from m, in a
	// fixed order, with the child machine, the step's label and the
	// families among cand that the step wakes: those with a step that
	// does not commute with it, which therefore may not sleep in the
	// child. cand is empty without pruning. Successors reports whether
	// tid's family may itself sleep in the children of later threads'
	// steps (false when some step of tid commutes with nothing).
	Successors func(m M, tid int, cand uint32, emit func(child M, label L, wake uint32)) (sleepable bool)
	// Witness renders the label trace of a path to a final machine.
	Witness func(trace []L) Witness
	// Certs, when non-nil, is the run's certification cache; its
	// counters join the run's stats.
	Certs *core.CertCache
}

// ivEntry is one frontier state of the driver: a machine plus the label
// trace that reached it (materialised only when collecting witnesses) and
// its reduction state.
type ivEntry[M, L any] struct {
	m     M
	trace []L
	// sleep is the arrival sleep set: thread families whose every step
	// from this state is covered by a sibling ordering (reduce.go).
	sleep uint32
	// todo is the set of families this entry expands: the families newly
	// claimed in the canonical state's seen-set entry.
	todo uint32
	// ctodo is todo in the canonical frame (AllFamilies without pruning),
	// compared against Options.Remote's late denial verdicts at
	// process time: the entry drops only when every family it would
	// expand was granted to another shard's attempt.
	ctodo uint32
	// fresh marks the arrival that counts the state in States and may
	// count it as a dead end.
	fresh bool
	// h is the canonical state's seen-set handle, consulted against
	// Options.Remote at process time; 0 (never issued by the interner)
	// marks a root entry, which is never remote-dropped.
	h core.Handle
}

// ivRun is the state one Run shares across the engine's workers.
type ivRun[M, L any] struct {
	iv       *Interleaving[M, L]
	opts     *Options
	nThreads int
	seen     *seenSet
	sym      *Symmetry
	// claims reports independence pruning: arrivals claim families in
	// the seen set (seenSet.Arrive) instead of just adding the state.
	claims  bool
	allMask uint32
	symHits atomic.Int64
	pruned  atomic.Int64
}

// ivWorker is one engine worker's expansion scratch, kept in its
// Ctx.scratch: emit is bound once per worker, so handing it to the
// Successors hook allocates nothing per state.
type ivWorker[M, L any] struct {
	r *ivRun[M, L]
	c *Ctx[ivEntry[M, L]]
	// trace is the expanding entry's trace; cand the families its
	// current thread's children may sleep; had records that the thread
	// emitted a step.
	trace []L
	cand  uint32
	had   bool
	emit  func(M, L, uint32)
}

// Run explores from the initial machine, or resumes snap (already
// validated against the backend and opts) byte-identically: snapshot
// outcomes and counters merge with the resumed leg's, and the imported
// seen set guarantees no state is processed twice across legs.
func (iv *Interleaving[M, L]) Run(cp *lang.CompiledProgram, spec *ObsSpec, opts Options, snap *Snapshot) (*Result, error) {
	refusedCkpt := opts.CollectWitnesses && opts.Checkpoint != nil
	if opts.CollectWitnesses {
		opts.Checkpoint = nil
	}
	r := &ivRun[M, L]{iv: iv, opts: &opts, nThreads: len(cp.Threads), seen: newSeenSet()}
	if opts.Reductions.Symmetry() && !opts.CollectWitnesses {
		r.sym = NewSymmetry(cp, spec)
	}
	if opts.Reductions.Pruning() && !opts.CollectWitnesses && r.nThreads <= MaxReductionThreads {
		r.claims = true
		r.allMask = uint32(1)<<r.nThreads - 1
	}
	ccStart := iv.Certs.Stats()

	var roots []ivEntry[M, L]
	visited := 0
	if snap == nil {
		m0 := iv.Init()
		_, _, todo, _, _ := r.addState(m0, false, r.allMask)
		roots = append(roots, ivEntry[M, L]{m: m0, todo: todo, fresh: true})
	} else {
		r.seen.Import(snap.Seen)
		useAux := len(snap.FrontierAux) == len(snap.Frontier)
		for i, fb := range snap.Frontier {
			m, err := iv.Decode(fb)
			if err != nil {
				return nil, err
			}
			e := ivEntry[M, L]{m: m, fresh: true}
			if useAux {
				e.sleep, e.todo, e.fresh = unpackAux(snap.FrontierAux[i])
			}
			if r.claims {
				// Pre-claim the entry's families (claims do not survive a
				// snapshot) so this leg's re-arrivals at the same state do
				// not re-expand them.
				if !useAux {
					e.todo = r.allMask
				}
				r.addState(m, false, e.todo)
			}
			roots = append(roots, e)
		}
		visited = snap.States
	}

	eng := Engine[ivEntry[M, L]]{Process: r.process}
	opts.StatsProbe = statsProbe(opts.StatsProbe, r.seen, iv.Certs, ccStart, &r.symHits, &r.pruned)
	endSpan := opts.Trace.Span("explore")
	res, pending := eng.ResumeRun(roots, &opts, visited)
	endSpan(fmt.Sprintf("%s leg: %d states, %d outcomes", iv.Backend, res.States, len(res.Outcomes)))
	res.CheckpointRefused = refusedCkpt
	res.Stats = statsOf(r.seen, iv.Certs, ccStart)
	res.Stats.SymmetryClasses = r.sym.Classes()
	res.Stats.SymmetryHits = r.symHits.Load()
	res.Stats.PrunedStates = r.pruned.Load()
	emitCertSummary(opts.Trace, res.Stats)
	if snap != nil {
		snap.mergeInto(res)
	}
	// Close the outcome set under the class permutations (reduce.go) so
	// the reduced run reports exactly the unreduced outcome set; closing
	// before snapshotting keeps persisted outcomes closed too (closure is
	// idempotent, so the next leg's re-close is a no-op).
	r.sym.CloseOutcomes(res)
	if len(pending) > 0 {
		frontier := make([][]byte, len(pending))
		var aux []uint64
		if r.claims {
			aux = make([]uint64, len(pending))
		}
		for i, e := range pending {
			frontier[i], _, _ = iv.Key(nil, e.m, nil)
			if aux != nil {
				aux[i] = packAux(e.sleep, e.todo, e.fresh)
			}
		}
		if opts.DeltaSnapshot && snap != nil {
			res.Snapshot = newDeltaSnapshot(iv.Backend, &opts, res, frontier, r.seen, aux, snap)
		} else {
			res.Snapshot = newSnapshot(iv.Backend, &opts, res, frontier, r.seen.Export(), aux)
			if snap != nil {
				res.Snapshot.Leg = snap.Leg + 1
			}
		}
	}
	return res, nil
}

// addState interns m's canonical key and returns its handle, whether this
// arrival counts the state and the families left to expand there, in
// concrete (todo) and canonical (ctodo) form. Under pruning the arrival
// claims the families in want (concrete) in the state's seen-set entry
// and is counted by the first claim (seenSet.Arrive); without, ctodo is
// AllFamilies and the arrival that adds the state counts it. For child
// states (as opposed to roots, which are never remote-deduplicated) the
// remote dedup hook then sees the arrival and may deny families another
// shard's attempt was already granted; drop reports that nothing is left
// to expand, so the child is not pushed.
func (r *ivRun[M, L]) addState(m M, child bool, want uint32) (h core.Handle, count bool, todo, ctodo uint32, drop bool) {
	b, order, hit := r.iv.Key(core.GetEncBuf(), m, r.sym)
	if hit {
		r.symHits.Add(1)
	}
	remote := r.opts.Remote
	if !child {
		remote = nil
	}
	if r.claims {
		// Claim locally before consulting the remote hook: families the
		// remote denies stay claimed locally — their expansion is delegated
		// to the live attempt that was granted them (see the server
		// package's claim protocol), so later local re-arrivals must not
		// re-claim them either.
		h, ctodo, count = r.seen.Arrive(b, CanonMask(want, order))
		if ctodo != 0 && remote != nil {
			ctodo &^= remote.Discovered(b, h, ctodo)
		}
		todo = concreteMask(ctodo, order)
		drop = todo == 0
	} else {
		h, count = r.seen.Add(b)
		ctodo = AllFamilies
		drop = !count || remote != nil && remote.Discovered(b, h, AllFamilies) == AllFamilies
	}
	core.PutEncBuf(b)
	return
}

// process expands one entry: the engine's Process callback.
func (r *ivRun[M, L]) process(e ivEntry[M, L], c *Ctx[ivEntry[M, L]]) {
	// Late cross-shard claim verdicts covering every family this entry
	// would expand drop it unprocessed: the attempts granted those
	// families expand them instead (a partial denial expands
	// redundantly, which is sound).
	if e.h != 0 && r.opts.Remote != nil && r.opts.Remote.ShouldDrop(e.h, e.ctodo) {
		return
	}
	// Only the counting arrival at a state counts it; re-claimed arrivals
	// (pruning expanding newly awake families) visit for free.
	n := 0
	if e.fresh {
		n = 1
	}
	if !c.Visit(n) {
		return
	}
	iv := r.iv
	if iv.Bound(e.m) {
		c.Res.BoundExceeded = true
		return
	}
	// A final state may still have successors (e.g. further promises);
	// record it as an outcome regardless.
	final := iv.Final(e.m)
	if final {
		if r.opts.CollectWitnesses {
			w := iv.Witness(e.trace)
			c.Res.add(iv.Observe(e.m), &w)
		} else {
			c.Res.add(iv.Observe(e.m), nil)
		}
	}
	w, _ := c.scratch.(*ivWorker[M, L])
	if w == nil {
		w = &ivWorker[M, L]{r: r, c: c}
		w.emit = w.child
		c.scratch = w
	}
	w.trace = e.trace
	// sleepable accumulates the families iterated before the current one
	// that the children of its steps may sleep: enabled here, and
	// sleepable by the hook's verdict.
	var sleepable uint32
	anySucc := false
	for tid := 0; tid < r.nThreads; tid++ {
		bit := uint32(1) << tid
		if r.claims && e.todo&bit == 0 {
			if e.sleep&bit != 0 {
				r.pruned.Add(1)
			}
			continue
		}
		w.cand, w.had = 0, false
		if r.claims {
			w.cand = (e.sleep | sleepable) &^ bit
		}
		if iv.Successors(e.m, tid, w.cand, w.emit) && w.had {
			sleepable |= bit
		}
		anySucc = anySucc || w.had
	}
	// Dead ends are counted once per state (the counting arrival) and only
	// when the state truly has no successors: a slept family is always
	// enabled, so an entry with a non-empty sleep set is never at a dead
	// end.
	if !final && !anySucc && e.fresh && e.sleep == 0 {
		c.Res.DeadEnds++
	}
}

// child is the emit callback of the Successors hook: it deduplicates
// one child and pushes it unless nothing is left to expand there.
func (w *ivWorker[M, L]) child(m M, label L, wake uint32) {
	w.had = true
	r := w.r
	sleep := w.cand &^ wake
	h, fresh, todo, ctodo, drop := r.addState(m, true, r.allMask&^sleep)
	if drop {
		return
	}
	var trace []L
	if r.opts.CollectWitnesses {
		trace = append(append([]L(nil), w.trace...), label)
	}
	w.c.Push(ivEntry[M, L]{m: m, trace: trace, sleep: sleep, todo: todo, ctodo: ctodo, fresh: fresh, h: h})
}
