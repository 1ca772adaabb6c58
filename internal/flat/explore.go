package flat

import (
	"fmt"
	"sync/atomic"

	"promising/internal/core"
	"promising/internal/explore"
	"promising/internal/lang"
	"promising/internal/obs"
)

// entry is one frontier state: a machine plus its reduction state (see
// explore/reduce.go and the matching fields of the naive explorer).
type entry struct {
	m     *machine
	sleep uint32 // arrival sleep set: families covered by a sibling ordering
	todo  uint32 // families claimed for expansion at this entry
	// ctodo is todo in the canonical frame (AllFamilies without a claim
	// table), compared against Options.Remote's late denial verdicts: the
	// entry drops only when every family it would expand was granted to
	// another shard's attempt.
	ctodo uint32
	fresh bool // first-ever arrival at the canonical state
	// h is the canonical state's seen-set handle, consulted against
	// Options.Remote at process time; 0 marks a root (never dropped).
	h core.Handle
	// steps is the micro-step rendering of the path that reached this
	// entry, materialised only under CollectWitnesses: done states record
	// it as the outcome's native witness fallback.
	steps []string
}

// Explore runs the flat model exhaustively over all micro-step
// interleavings, deduplicating states. It satisfies the litmus.Runner
// signature and runs on the shared parallel engine (machine states are
// independent work items; Options.Parallelism selects the worker count).
// Options.Certify is ignored (the flat model has no certification).
// CollectWitnesses records, per outcome, the micro-step interleaving that
// first reached it as a native witness (explore.Witness.Native) — the
// unminimized fallback of the witness layer, since flat steps are not
// promising-machine labels and cannot go through the replay validator. It
// also forces reductions off, keeping the effective-reduction stamp
// consistent across backends, and refuses checkpoints (traces do not
// survive a snapshot; Result.CheckpointRefused reports the refusal).
//
// Both reductions apply here: states deduplicate on their thread-symmetry
// canonical key, and independence pruning sleeps thread families across
// steps with disjoint memory footprints (machine.dependsOn). A flat
// micro-step touches at most one location — loads satisfying from memory
// read it, stores performing write it — and every other step is
// thread-local, so the footprint test is a single-address comparison
// against each family's pending accesses.
func Explore(cp *lang.CompiledProgram, spec *explore.ObsSpec, opts explore.Options) *explore.Result {
	res, _ := run(cp, spec, opts, nil)
	return res
}

func run(cp *lang.CompiledProgram, spec *explore.ObsSpec, opts explore.Options, snap *explore.Snapshot) (*explore.Result, error) {
	refusedCkpt := opts.CollectWitnesses && opts.Checkpoint != nil
	if opts.CollectWitnesses {
		opts.Checkpoint = nil // witness traces do not survive a snapshot
	}
	nThreads := len(cp.Threads)
	var sym *explore.Symmetry
	if opts.Reductions.Symmetry() && !opts.CollectWitnesses {
		sym = explore.NewSymmetry(cp, spec)
	}
	var claims *explore.ClaimTable
	var allMask uint32
	if opts.Reductions.Pruning() && !opts.CollectWitnesses && nThreads <= explore.MaxReductionThreads {
		claims = explore.NewClaimTable()
		allMask = uint32(1)<<nThreads - 1
	}
	var symHits, pruned atomic.Int64

	seen := explore.NewSeenSet()
	// addState mirrors the naive explorer's: intern the canonical key and,
	// for child states, claim the arrival's awake families locally, report
	// the newly claimed set to the remote dedup hook (which may deny
	// families another shard's attempt was already granted — denied
	// families stay claimed locally, delegated to their live claimants)
	// and return the remaining to-expand set plus the drop decision.
	addState := func(m *machine, child bool, sleep uint32) (h core.Handle, fresh bool, order []int, todo, ctodo uint32, drop bool) {
		b := core.GetEncBuf()
		if sym != nil {
			var hit bool
			b, order, hit = m.appendSymKey(b, sym)
			if hit {
				symHits.Add(1)
			}
		} else {
			b = m.appendKey(b)
		}
		h, fresh = seen.Add(b)
		if child {
			if claims != nil {
				ctodo = claims.Claim(h, explore.CanonMask(allMask&^sleep, order))
				if ctodo != 0 && opts.Remote != nil {
					ctodo &^= opts.Remote.Discovered(b, h, ctodo)
				}
				todo = explore.ConcreteMask(ctodo, order)
				drop = todo == 0
			} else {
				ctodo = explore.AllFamilies
				if !fresh {
					drop = true
				} else if opts.Remote != nil && opts.Remote.Discovered(b, h, explore.AllFamilies) == explore.AllFamilies {
					drop = true
				}
			}
		}
		core.PutEncBuf(b)
		return
	}

	var roots []entry
	visited := 0
	if snap == nil {
		m0 := newMachine(cp)
		m0.desc = opts.CollectWitnesses
		h, _, order, _, _, _ := addState(m0, false, 0)
		root := entry{m: m0, fresh: true}
		if claims != nil {
			root.todo = explore.ConcreteMask(claims.Claim(h, explore.CanonMask(allMask, order)), order)
		}
		roots = []entry{root}
	} else {
		seen.Import(snap.Seen)
		useAux := len(snap.FrontierAux) == len(snap.Frontier)
		for i, fb := range snap.Frontier {
			m, err := decodeMachine(cp, fb)
			if err != nil {
				return nil, err
			}
			e := entry{m: m, fresh: true}
			if useAux {
				e.sleep, e.todo, e.fresh = explore.UnpackAux(snap.FrontierAux[i])
			}
			if claims != nil {
				// Pre-claim the entry's families (the claim table does not
				// survive a snapshot) so this leg's re-arrivals at the same
				// state do not re-expand them.
				h, _, order, _, _, _ := addState(m, false, 0)
				if !useAux {
					e.todo = allMask
				}
				claims.Claim(h, explore.CanonMask(e.todo, order))
			}
			roots = append(roots, e)
		}
		visited = snap.States
	}

	eng := explore.Engine[entry]{Process: func(e entry, c *explore.Ctx[entry]) {
		// Late cross-shard claim verdicts covering every family this entry
		// would expand drop it unprocessed: the attempts granted those
		// families expand them instead (a partial denial expands
		// redundantly, which is sound).
		if e.h != 0 && opts.Remote != nil && opts.Remote.ShouldDrop(e.h, e.ctodo) {
			return
		}
		n := 0
		if e.fresh {
			n = 1
		}
		if !c.Visit(n) {
			return
		}
		for _, t := range e.m.threads {
			if t.bound {
				c.Res.BoundExceeded = true
				return
			}
		}
		var sleepable uint32
		any := false
		for tid := 0; tid < nThreads; tid++ {
			bit := uint32(1) << tid
			if claims != nil && e.todo&bit == 0 {
				if e.sleep&bit != 0 {
					pruned.Add(1)
				}
				continue
			}
			had := false
			e.m.threadSuccessors(tid, func(s *machine) {
				had = true
				var childSleep uint32
				if claims != nil {
					childSleep = (e.sleep | sleepable) &^ bit
					if childSleep != 0 && (s.stepRead || s.stepWrite) {
						for j := 0; j < nThreads; j++ {
							if childSleep&(1<<j) != 0 && e.m.dependsOn(j, s.stepAddr, s.stepRead, s.stepWrite) {
								childSleep &^= 1 << j
							}
						}
					}
				}
				h, fresh, _, todo, ctodo, drop := addState(s, true, childSleep)
				if drop {
					return
				}
				var steps []string
				if opts.CollectWitnesses && s.stepDesc != "" {
					steps = append(append([]string(nil), e.steps...), s.stepDesc)
				}
				c.Push(entry{m: s, sleep: childSleep, todo: todo, ctodo: ctodo, fresh: fresh, h: h, steps: steps})
			})
			if had {
				any = true
				// Only families whose every step commutes with a later
				// sibling's taken step may sleep in that sibling's child;
				// the per-step dependsOn filter above enforces that, so
				// enabledness is the only insertion condition here.
				sleepable |= bit
			}
		}
		if !any {
			if e.m.done() {
				o := observe(cp, spec, e.m)
				if opts.CollectWitnesses {
					c.Res.Add(o, &explore.Witness{Native: e.steps})
				} else {
					c.Res.Outcomes[o.Key()] = o
				}
			} else if e.fresh && e.sleep == 0 {
				// Stuck: mis-speculation residue, lost reservations, or a
				// genuine exclusive deadlock. A slept family is always
				// enabled, so sleep != 0 means the state has successors and
				// is not a dead end; counted once, at the fresh arrival.
				c.Res.DeadEnds++
			}
		}
	}}
	prevProbe := opts.StatsProbe
	opts.StatsProbe = func(snap *obs.StatsSnapshot) {
		if prevProbe != nil {
			prevProbe(snap)
		}
		snap.Interned = seen.Len()
		snap.SymmetryHits = symHits.Load()
		snap.PrunedStates = pruned.Load()
	}
	endSpan := opts.Trace.Span("explore")
	res, pending := eng.ResumeRun(roots, &opts, visited)
	endSpan(fmt.Sprintf("flat leg: %d states, %d outcomes", res.States, len(res.Outcomes)))
	res.CheckpointRefused = refusedCkpt
	res.Stats.Interned = seen.Len()
	res.Stats.SymmetryClasses = sym.Classes()
	res.Stats.SymmetryHits = symHits.Load()
	res.Stats.PrunedStates = pruned.Load()
	if snap != nil {
		explore.MergeSnapshotInto(snap, res)
	}
	sym.CloseOutcomes(res)
	if len(pending) > 0 {
		frontier := make([][]byte, len(pending))
		var aux []uint64
		if claims != nil {
			aux = make([]uint64, len(pending))
		}
		for i, e := range pending {
			frontier[i] = e.m.appendKey(nil)
			if aux != nil {
				aux[i] = explore.PackAux(e.sleep, e.todo, e.fresh)
			}
		}
		if opts.DeltaSnapshot && snap != nil {
			res.Snapshot = explore.NewDeltaSnapshotFor(snapBackend, &opts, res, frontier, seen, aux, snap)
		} else {
			res.Snapshot = explore.NewSnapshotFor(snapBackend, &opts, res, frontier, seen.Export(), aux)
			if snap != nil {
				res.Snapshot.Leg = snap.Leg + 1
			}
		}
	}
	return res, nil
}

// observe projects a completed machine onto the observation spec.
func observe(cp *lang.CompiledProgram, spec *explore.ObsSpec, m *machine) explore.Outcome {
	var o explore.Outcome
	for _, ro := range spec.Regs {
		t := m.threads[ro.TID]
		w := t.lastWriter[ro.Reg]
		if w < 0 {
			o.Regs = append(o.Regs, 0)
		} else {
			o.Regs = append(o.Regs, t.provValue(w))
		}
	}
	for _, l := range spec.Locs {
		o.Mem = append(o.Mem, m.mem.current(l))
	}
	return o
}
