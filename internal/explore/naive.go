package explore

import (
	"fmt"
	"sync/atomic"

	"promising/internal/core"
	"promising/internal/lang"
	"promising/internal/obs"
)

// naiveEntry is one frontier state of the naive explorer: a machine plus
// the transition trace that reached it (traces are only materialised when
// collecting witnesses) and, under independence pruning, the entry's
// reduction state.
type naiveEntry struct {
	m     *core.Machine
	trace []core.Label
	// sleep is the arrival sleep set: thread families whose every step
	// from this state is covered by a sibling ordering (reduce.go). Only
	// enabled, promise-free families are ever slept.
	sleep uint32
	// todo is the set of families this entry expands — the newly claimed
	// bits from the canonical state's claim table.
	todo uint32
	// ctodo is todo in the canonical frame (AllFamilies without a claim
	// table), compared against Options.Remote's late denial verdicts at
	// process time: the entry drops only when every family it would
	// expand was granted to another shard's attempt.
	ctodo uint32
	// fresh marks the first-ever arrival at the canonical state (the one
	// that counts it in States and may count a dead end).
	fresh bool
	// h is the canonical state's seen-set handle, consulted against
	// Options.Remote at process time; 0 (never issued by the interner)
	// marks a root entry, which is never remote-dropped.
	h core.Handle
}

// Naive explores all interleavings of all machine transitions (reads,
// fulfils, exclusive failures and promises), deduplicating states. It is the
// reference explorer: slower than promise-first (the ablation Table 2-style
// benchmarks quantify by how much) but a direct transcription of the
// machine-step relation, which makes it the oracle for Theorems 6.2 and 7.1.
//
// The interleaving search parallelises over the engine directly: machine
// states are independent work items, and the global SeenSet guarantees each
// distinct state is expanded exactly once under any worker schedule. All
// workers share one exploration-scoped certification cache — the same
// thread configuration ⟨T, M⟩ recurs across every global state differing
// only in the other threads, so per-step certification amortises to cache
// lookups across the run.
//
// Both reductions of reduce.go apply here (unless configured off): states
// are deduplicated on their thread-symmetry-canonical encoding, and
// independence pruning sleeps thread families across commuting steps. A
// non-promise step only mutates the acting thread (memory is shared
// untouched), so any two non-promise steps of different threads commute
// — same child state either order, and neither changes what the other
// thread can do (certification included: it depends only on the thread
// and the unchanged memory). Promise steps append to memory and are
// conservatively dependent on everything: a family with any promise step
// is never slept, and a promise child wakes all families.
func Naive(cp *lang.CompiledProgram, spec *ObsSpec, opts Options) *Result {
	res, _ := naiveRun(cp, spec, opts, nil)
	return res
}

// ResumeNaive continues a checkpointed naive exploration from its
// snapshot, byte-identically: snapshot outcomes and counters merge with
// the resumed leg's, and the imported seen-set guarantees no state is
// processed twice across legs.
func ResumeNaive(cp *lang.CompiledProgram, spec *ObsSpec, snap *Snapshot, opts Options) (*Result, error) {
	if err := snap.Validate(snapNaive, &opts); err != nil {
		return nil, err
	}
	return naiveRun(cp, spec, opts, snap)
}

func naiveRun(cp *lang.CompiledProgram, spec *ObsSpec, opts Options, snap *Snapshot) (*Result, error) {
	refusedCkpt := opts.CollectWitnesses && opts.Checkpoint != nil
	if opts.CollectWitnesses {
		// Witness traces cannot be serialized into a snapshot; run
		// uncheckpointable rather than produce a lossy one. The refusal is
		// surfaced through Result.CheckpointRefused.
		opts.Checkpoint = nil
	}
	nThreads := len(cp.Threads)
	var sym *Symmetry
	if opts.Reductions.Symmetry() && !opts.CollectWitnesses {
		sym = NewSymmetry(cp, spec)
	}
	var claims *ClaimTable
	var allMask uint32
	if opts.Reductions.Pruning() && !opts.CollectWitnesses && nThreads <= MaxReductionThreads {
		claims = NewClaimTable()
		allMask = uint32(1)<<nThreads - 1
	}
	var symHits, pruned atomic.Int64

	seen := NewSeenSet()
	cc := opts.certCache()
	ccStart := cc.Stats()
	// addState interns the state's canonical encoding (symmetry-reduced
	// when a symmetry structure exists) and returns its handle, whether
	// this arrival counts the state (fresh; decided by the claim when
	// claims are kept, see ClaimTable.Arrive) and the canonicalizing
	// thread order (nil = identity). For child
	// states (successors, as opposed to roots, which are never
	// remote-deduplicated) it additionally claims the arrival's awake
	// families in the local claim table, reports the newly claimed set to
	// the remote dedup hook — which may deny families another shard's
	// attempt was already granted — and returns the remaining to-expand
	// set in concrete (todo) and canonical (ctodo) form, plus whether the
	// child is dropped instead of pushed (nothing left to expand here).
	addState := func(m *core.Machine, child bool, sleep uint32) (h core.Handle, fresh bool, order []int, todo, ctodo uint32, drop bool) {
		b, order, hit := appendNaiveKey(core.GetEncBuf(), m, sym)
		if hit {
			symHits.Add(1)
		}
		switch {
		case child && claims != nil:
			// Claim locally before consulting the remote hook: families the
			// remote denies stay claimed in the local table — their
			// expansion is delegated to the live attempt that was granted
			// them (see the server package's claim protocol), so later
			// local re-arrivals must not re-claim them either.
			h, ctodo, fresh = claims.Arrive(seen, b, CanonMask(allMask&^sleep, order))
			if ctodo != 0 && opts.Remote != nil {
				ctodo &^= opts.Remote.Discovered(b, h, ctodo)
			}
			todo = ConcreteMask(ctodo, order)
			drop = todo == 0
		case child:
			h, fresh = seen.Add(b)
			ctodo = AllFamilies
			drop = !fresh || opts.Remote != nil && opts.Remote.Discovered(b, h, AllFamilies) == AllFamilies
		default:
			h, fresh = seen.Add(b)
		}
		core.PutEncBuf(b)
		return
	}

	var roots []naiveEntry
	if snap == nil {
		m0 := core.NewMachine(cp)
		h, _, order, _, _, _ := addState(m0, false, 0)
		root := naiveEntry{m: m0, fresh: true}
		if claims != nil {
			root.todo = ConcreteMask(claims.Claim(h, CanonMask(allMask, order)), order)
		}
		roots = []naiveEntry{root}
	} else {
		seen.Import(snap.Seen)
		useAux := len(snap.FrontierAux) == len(snap.Frontier)
		for i, fb := range snap.Frontier {
			m, err := core.DecodeMachine(cp, fb)
			if err != nil {
				return nil, err
			}
			e := naiveEntry{m: m, fresh: true}
			if useAux {
				e.sleep, e.todo, e.fresh = UnpackAux(snap.FrontierAux[i])
			}
			if claims != nil {
				// Pre-claim the entry's families (the claim table does not
				// survive a snapshot) so this leg's re-arrivals at the same
				// state do not re-expand them.
				h, _, order, _, _, _ := addState(m, false, 0)
				if !useAux {
					e.todo = allMask
				}
				claims.Claim(h, CanonMask(e.todo, order))
			}
			roots = append(roots, e)
		}
	}

	eng := Engine[naiveEntry]{Process: func(e naiveEntry, c *Ctx[naiveEntry]) {
		// Late cross-shard claim verdicts covering every family this entry
		// would expand drop it unprocessed: the attempts granted those
		// families expand them instead (roots carry h=0 and are never
		// dropped; a partial denial expands redundantly, which is sound).
		if e.h != 0 && opts.Remote != nil && opts.Remote.ShouldDrop(e.h, e.ctodo) {
			return
		}
		// Only the first-ever arrival at a state counts it; re-claimed
		// arrivals (pruning expanding newly awake families) visit for free.
		n := 0
		if e.fresh {
			n = 1
		}
		if !c.Visit(n) {
			return
		}
		if e.m.BoundExceeded() {
			c.Res.BoundExceeded = true
			return
		}
		// A final state may still have successors (e.g. further promises);
		// record it as an outcome regardless.
		if e.m.Final() {
			var w *Witness
			if opts.CollectWitnesses {
				w = &Witness{Labels: e.trace}
			}
			c.Res.add(observe(spec, e.m), w)
		}
		// sleepable accumulates the families iterated before the current
		// one that a child of a commuting (non-promise) step may sleep:
		// enabled here and promise-free here, so every one of their steps
		// commutes with the taken step and remains covered by expanding
		// them from this state.
		var sleepable uint32
		anySucc := false
		for tid := 0; tid < nThreads; tid++ {
			bit := uint32(1) << tid
			if claims != nil && e.todo&bit == 0 {
				if e.sleep&bit != 0 {
					pruned.Add(1)
				}
				continue
			}
			succs := e.m.ThreadSuccessorsCached(tid, opts.Certify, cc)
			if len(succs) > 0 {
				anySucc = true
			}
			quiet := true
			for _, s := range succs {
				if s.Label.Kind == core.StepPromise {
					quiet = false
					break
				}
			}
			for _, s := range succs {
				var childSleep uint32
				if claims != nil && s.Label.Kind != core.StepPromise {
					childSleep = (e.sleep | sleepable) &^ bit
				}
				var trace []core.Label
				if opts.CollectWitnesses {
					trace = append(append([]core.Label(nil), e.trace...), s.Label)
				}
				h, fresh, _, todo, ctodo, drop := addState(s.M, true, childSleep)
				if drop {
					continue
				}
				c.Push(naiveEntry{m: s.M, trace: trace, sleep: childSleep, todo: todo, ctodo: ctodo, fresh: fresh, h: h})
			}
			if claims != nil && quiet && len(succs) > 0 {
				sleepable |= bit
			}
		}
		// Dead ends are counted once per state (the fresh arrival) and
		// only when the state truly has no successors: a slept family is
		// always enabled, so an entry with a non-empty sleep set is never
		// at a dead end.
		if !e.m.Final() && !anySucc && e.fresh && e.sleep == 0 {
			c.Res.DeadEnds++
		}
	}}
	visited := 0
	if snap != nil {
		visited = snap.States
	}
	opts.StatsProbe = statsProbe(opts.StatsProbe, seen, cc, ccStart, &symHits, &pruned)
	endSpan := opts.Trace.Span("explore")
	res, pending := eng.ResumeRun(roots, &opts, visited)
	endSpan(fmt.Sprintf("naive leg: %d states, %d outcomes", res.States, len(res.Outcomes)))
	res.CheckpointRefused = refusedCkpt
	res.Stats = statsOf(seen, cc, ccStart)
	res.Stats.SymmetryClasses = sym.Classes()
	res.Stats.SymmetryHits = symHits.Load()
	res.Stats.PrunedStates = pruned.Load()
	emitCertSummary(opts.Trace, res.Stats)
	if snap != nil {
		snap.mergeInto(res)
	}
	// Close the outcome set under the class permutations (reduce.go) so
	// the reduced run reports exactly the unreduced outcome set; closing
	// before snapshotting keeps persisted outcomes closed too (closure is
	// idempotent, so the next leg's re-close is a no-op).
	sym.CloseOutcomes(res)
	if len(pending) > 0 {
		frontier := make([][]byte, len(pending))
		var aux []uint64
		if claims != nil {
			aux = make([]uint64, len(pending))
		}
		for i, e := range pending {
			frontier[i] = e.m.AppendState(nil)
			if aux != nil {
				aux[i] = PackAux(e.sleep, e.todo, e.fresh)
			}
		}
		if opts.DeltaSnapshot && snap != nil {
			res.Snapshot = newDeltaSnapshot(snapNaive, &opts, res, frontier, seen, aux, snap)
		} else {
			res.Snapshot = newSnapshot(snapNaive, &opts, res, frontier, seen.Export(), aux)
			if snap != nil {
				res.Snapshot.Leg = snap.Leg + 1
			}
		}
	}
	return res, nil
}

// statsOf assembles a run's ExploreStats from its dedup set and
// certification cache (either may be nil). Hit/miss counters are reported
// relative to start, so a cache shared across runs (Options.CertCache)
// yields per-run stats rather than cache-lifetime totals; CertEntries is
// the cache's current size.
func statsOf(seen *SeenSet, cc *core.CertCache, start core.CertStats) ExploreStats {
	var st ExploreStats
	if seen != nil {
		st.Interned = seen.Len()
	}
	cs := cc.Stats()
	st.CertHits = cs.Hits - start.Hits
	st.CertMisses = cs.Misses - start.Misses
	st.CertEntries = cs.Entries
	return st
}

// statsProbe builds the Options.StatsProbe closure for the certifying
// machine explorers: the backend-local counters a mid-run StatsSnapshot
// carries, read from the same structures statsOf reads at the end (all
// concurrent-safe: the interner's length is an atomic, the cert cache
// locks its shards, the reduction counters are atomics). symHits and
// pruned may be nil for backends without that counter. prev, when
// non-nil, is a caller-installed probe (the server's shard-job dedup
// counters) chained in front of the backend's own.
func statsProbe(prev func(*obs.StatsSnapshot), seen *SeenSet, cc *core.CertCache, start core.CertStats, symHits, pruned *atomic.Int64) func(*obs.StatsSnapshot) {
	return func(snap *obs.StatsSnapshot) {
		if prev != nil {
			prev(snap)
		}
		if seen != nil {
			snap.Interned = seen.Len()
		}
		cs := cc.Stats()
		snap.CertHits = cs.Hits - start.Hits
		snap.CertMisses = cs.Misses - start.Misses
		if symHits != nil {
			snap.SymmetryHits = symHits.Load()
		}
		if pruned != nil {
			snap.PrunedStates = pruned.Load()
		}
	}
}

// emitCertSummary emits the "certify-summary" stage event of a
// certifying run (skipped when the run did no cache lookups).
func emitCertSummary(tr *obs.Trace, st ExploreStats) {
	if tr == nil || st.CertHits+st.CertMisses == 0 {
		return
	}
	tr.Emit("certify-summary", fmt.Sprintf("hits=%d misses=%d entries=%d hit-rate=%.1f%%",
		st.CertHits, st.CertMisses, st.CertEntries, 100*st.CertHitRate()))
}

// appendNaiveKey appends m's dedup key to b: the machine encoding, or
// with sy its symmetry-canonical form, whose class members are ordered by
// their thread encoding and owned timestamps (reduce.go). It returns the
// canonicalizing order (nil = identity) and whether it moved a thread.
func appendNaiveKey(b []byte, m *core.Machine, sy *Symmetry) ([]byte, []int, bool) {
	if sy == nil {
		return m.AppendState(b), nil, false
	}
	var at [64]int
	b, tidAt := core.EncodeMemoryOwners(b, m.Mem, at[:0])
	var ends [MaxReductionThreads]int
	tb := core.GetEncBuf()
	for t, th := range m.Threads {
		tb = core.EncodeThread(tb, th)
		ends[t] = len(tb)
	}
	b, order, hit := sy.CanonicalState(b, tidAt, tb, ends[:len(m.Threads)])
	core.PutEncBuf(tb)
	return b, order, hit
}
