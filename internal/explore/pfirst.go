package explore

import (
	"fmt"
	"sync/atomic"

	"promising/internal/core"
	"promising/internal/lang"
)

// PromiseFirst is the optimised exhaustive explorer of §7, justified by
// Theorem 7.1: every trace can be reordered into a prefix of promise
// transitions followed by non-promise transitions only.
//
// Phase 1 enumerates the reachable "final memories" by interleaving only
// promise transitions. In promise-only states no thread has executed any
// instruction, so a state is fully determined by the memory contents
// (each message is an outstanding promise of its originating thread), and
// deduplication is on memories.
//
// Phase 2 fixes a memory and runs each thread to completion independently
// (threads no longer interact: non-promise transitions never change the
// memory). The outcome set under that memory is the cross product of the
// per-thread observations.
//
// Both phases run on the parallel engine: phase-1 memories are the frontier
// states (deduplicated through a shared seenSet), and each worker runs the
// embarrassingly parallel phase 2 of the memories it pops, so the heavy
// per-memory completion work scales with Options.Parallelism.
//
// Per (memory, thread), one call-scoped core.CertifyAndComplete walk does
// both phases' work: a thread's phase-2 completions are exactly the
// certification search states that never perform a new write, so the walk
// that finds the candidate promises (find_and_certify, §B) also yields the
// completions — with their step labels when witnesses are collected.
// Because phase-1 memories are deduplicated, no search state recurs across
// calls, so promise-first shares no certification cache:
// Options.CertCache and CertCacheOff do not affect it, and its CertHits,
// CertMisses and CertEntries read 0.
func PromiseFirst(cp *lang.CompiledProgram, spec *ObsSpec, opts Options) *Result {
	res, _ := pfRun(cp, spec, opts, nil)
	return res
}

// ResumePromiseFirst continues a checkpointed promise-first exploration
// from its snapshot, byte-identically: the frontier holds phase-1
// memories, so each pending memory is decoded, re-interned and handed
// back to the engine, with the imported seen-set preventing any memory
// from being processed twice across legs.
func ResumePromiseFirst(cp *lang.CompiledProgram, spec *ObsSpec, snap *Snapshot, opts Options) (*Result, error) {
	if err := snap.Validate(snapPromising, &opts); err != nil {
		return nil, err
	}
	return pfRun(cp, spec, opts, snap)
}

func pfRun(cp *lang.CompiledProgram, spec *ObsSpec, opts Options, snap *Snapshot) (*Result, error) {
	refusedCkpt := opts.CollectWitnesses && opts.Checkpoint != nil
	if opts.CollectWitnesses {
		opts.Checkpoint = nil // witness traces do not survive a snapshot
	}
	e := &pfExplorer{
		cp:   cp,
		spec: spec,
		opts: opts,
		seen: newSeenSet(),
	}
	if opts.Reductions.Symmetry() && !opts.CollectWitnesses {
		// Thread-symmetry reduction: phase-1 memories are deduplicated on
		// their canonical encoding (class members sorted by the
		// timestamps they own; every thread is still initial, so its
		// encoding never breaks a tie), so only one representative per
		// memory orbit is completed and expanded; CloseOutcomes restores
		// the collapsed orbit images at the end. Pruning does not apply — phase 1 interleaves only
		// promise steps, which are never independent (each appends to the
		// shared memory).
		e.sym = NewSymmetry(cp, spec)
	}
	e.envs = make([]core.Env, len(cp.Threads))
	e.obs = make([][]lang.Reg, len(cp.Threads))
	for tid := range cp.Threads {
		e.envs[tid] = core.Env{
			Arch:   cp.Arch,
			Code:   &cp.Threads[tid],
			TID:    tid,
			Shared: cp.IsShared,
		}
		e.obs[tid] = regsOf(spec, tid)
	}
	var roots []memState
	visited := 0
	if snap == nil {
		m0 := core.NewMemory(cp.Init)
		e.addMem(m0, false)
		roots = []memState{{mem: m0}}
	} else {
		e.seen.Import(snap.Seen)
		for _, fb := range snap.Frontier {
			mem, err := core.DecodeMemory(cp.Init, fb)
			if err != nil {
				return nil, err
			}
			roots = append(roots, memState{mem: mem})
		}
		visited = snap.States
	}
	eng := Engine[memState]{Process: e.process}
	opts.StatsProbe = statsProbe(opts.StatsProbe, e.seen, nil, core.CertStats{}, &e.symHits, nil)
	endSpan := opts.Trace.Span("explore")
	res, pending := eng.ResumeRun(roots, &opts, visited)
	endSpan(fmt.Sprintf("promising leg: %d states, %d outcomes", res.States, len(res.Outcomes)))
	res.CheckpointRefused = refusedCkpt
	res.Stats = statsOf(e.seen, nil, core.CertStats{})
	res.Stats.SymmetryClasses = e.sym.Classes()
	res.Stats.SymmetryHits = e.symHits.Load()
	if snap != nil {
		snap.mergeInto(res)
	}
	e.sym.CloseOutcomes(res)
	if len(pending) > 0 {
		frontier := make([][]byte, len(pending))
		for i, ms := range pending {
			frontier[i] = core.EncodeMemory(nil, ms.mem, 0)
		}
		if opts.DeltaSnapshot && snap != nil {
			res.Snapshot = newDeltaSnapshot(snapPromising, &opts, res, frontier, e.seen, nil, snap)
		} else {
			res.Snapshot = newSnapshot(snapPromising, &opts, res, frontier, e.seen.Export(), nil)
			if snap != nil {
				res.Snapshot.Leg = snap.Leg + 1
			}
		}
	}
	return res, nil
}

type pfExplorer struct {
	cp   *lang.CompiledProgram
	spec *ObsSpec
	opts Options
	seen *seenSet
	envs []core.Env   // immutable, shared by all workers
	obs  [][]lang.Reg // per-thread observed registers, in spec order
	// sym is the thread-symmetry structure (nil when the reduction is off
	// or the program has no interchangeable threads); symHits counts
	// collapsed permuted memories.
	sym     *Symmetry
	symHits atomic.Int64
}

// addMem interns a phase-1 memory (on its symmetry-canonical encoding
// when the reduction applies), reporting its seen-set handle and whether
// it was new. child marks memories discovered as promise successors; a
// fresh child is reported to Options.Remote with the whole-state
// AllFamilies claim (phase 1 has no independence pruning, so per-family
// granularity is moot here), and a fully denied claim (already granted
// to another shard's attempt) makes addMem report not-fresh so the
// caller skips the push.
func (e *pfExplorer) addMem(mem *core.Memory, child bool) (core.Handle, bool) {
	b := core.GetEncBuf()
	if e.sym != nil {
		var hit bool
		b, hit = e.sym.CanonicalMemory(b, mem)
		if hit {
			e.symHits.Add(1)
		}
	} else {
		b = core.EncodeMemory(b, mem, 0)
	}
	h, fresh := e.seen.Add(b)
	if child && fresh && e.opts.Remote != nil && e.opts.Remote.Discovered(b, h, AllFamilies) == AllFamilies {
		fresh = false
	}
	core.PutEncBuf(b)
	return h, fresh
}

// memState is a phase-1 state: a memory reachable by promises only.
type memState struct {
	mem     *core.Memory
	promise []core.Label // phase-1 trace, kept only when collecting witnesses
	// hseen is the memory's seen-set handle, consulted against
	// Options.Remote at process time; 0 marks a root (never dropped).
	hseen core.Handle
}

// process handles one phase-1 memory: complete it (phase 2), then expand
// its certified promise successors (phase 1), from one unified
// core.CertifyAndComplete walk per thread. States counts the memory plus
// every newly memoised completion-plane state of the walks. Counting stops
// after the first thread that cannot complete (its own walk is still
// counted): the memory then contributes no outcomes, so later threads run
// promises-only through an uncached FindAndCertify and record no finals.
func (e *pfExplorer) process(ms memState, c *Ctx[memState]) {
	// A late cross-shard claim verdict drops the memory unprocessed: the
	// claiming shard completes and expands it instead.
	if ms.hseen != 0 && e.opts.Remote != nil && e.opts.Remote.ShouldDrop(ms.hseen, AllFamilies) {
		return
	}
	if !c.Visit(1) {
		return
	}
	perThread := make([][]core.Completion, len(e.cp.Threads))
	proms := make([][]core.Msg, len(e.cp.Threads))
	complete := true
	visit := func() bool { return c.Visit(1) }
	for tid := range e.cp.Threads {
		th := e.initialThread(tid, ms.mem)
		if !complete {
			proms[tid] = (*core.CertCache)(nil).FindAndCertify(e.env(tid), th, ms.mem)
			continue
		}
		r := core.CertifyAndComplete(e.env(tid), th, ms.mem, e.obs[tid], visit, e.opts.CollectWitnesses)
		if r.Aborted {
			return
		}
		proms[tid] = r.Promises
		if r.FinalsBound {
			c.Res.BoundExceeded = true
		}
		if len(r.Finals) == 0 {
			// This thread cannot run to completion under this memory. This
			// is normal for intermediate phase-1 memories (writes not yet
			// promised live in some extension); such memories simply
			// contribute no outcomes. DeadEnds is a naive-machine notion
			// and is not counted here.
			complete = false
		} else {
			perThread[tid] = dedupFinals(r.Finals)
		}
	}
	if complete {
		memVals := make([]lang.Val, len(e.spec.Locs))
		for i, l := range e.spec.Locs {
			memVals[i] = ms.mem.LastWriteTo(l)
		}
		e.product(ms, perThread, memVals, c)
	}

	// Expand phase 1: certified promises of each thread.
	for tid, ws := range proms {
		for _, w := range ws {
			mem := ms.mem.Clone()
			t := mem.Append(core.Msg{Loc: w.Loc, Val: w.Val, TID: tid})
			h, fresh := e.addMem(mem, true)
			if !fresh {
				continue
			}
			next := memState{mem: mem, hseen: h}
			if e.opts.CollectWitnesses {
				next.promise = append(append([]core.Label(nil), ms.promise...),
					core.Label{Kind: core.StepPromise, TID: tid, Loc: w.Loc, Val: w.Val, TS: t})
			}
			c.Push(next)
		}
	}
}

// env returns the stepping environment for thread tid.
func (e *pfExplorer) env(tid int) *core.Env { return &e.envs[tid] }

// initialThread builds thread tid's state at the start of phase 2 under
// mem: fresh registers, promise set = all of its messages in mem.
func (e *pfExplorer) initialThread(tid int, mem *core.Memory) *core.Thread {
	th := core.NewThread(&e.cp.Threads[tid])
	for i, w := range mem.Msgs() {
		if w.TID == tid {
			th.TS.Prom = th.TS.Prom.Add(i + 1)
		}
	}
	core.Advance(e.env(tid), th)
	return th
}

// product enumerates the cross product of per-thread final observations.
func (e *pfExplorer) product(ms memState, perThread [][]core.Completion, memVals []lang.Val, ctx *Ctx[memState]) {
	pick := make([]int, len(perThread))
	for {
		o := Outcome{Mem: memVals}
		var labels []core.Label
		if e.opts.CollectWitnesses {
			labels = append(labels, ms.promise...)
		}
		// Assemble observed registers in spec order.
		o.Regs = make([]lang.Val, len(e.spec.Regs))
		idx := make([]int, len(perThread))
		for i, ro := range e.spec.Regs {
			tf := perThread[ro.TID][pick[ro.TID]]
			o.Regs[i] = tf.Vals[idx[ro.TID]]
			idx[ro.TID]++
		}
		if e.opts.CollectWitnesses {
			for tid := range perThread {
				labels = append(labels, perThread[tid][pick[tid]].Trace...)
			}
			ctx.Res.add(o, &Witness{Labels: labels})
		} else {
			ctx.Res.add(o, nil)
		}
		// Next combination.
		i := 0
		for ; i < len(pick); i++ {
			pick[i]++
			if pick[i] < len(perThread[i]) {
				break
			}
			pick[i] = 0
		}
		if i == len(pick) {
			return
		}
	}
}

// regsOf lists the spec's observed registers belonging to thread tid, in
// spec order.
func regsOf(spec *ObsSpec, tid int) []lang.Reg {
	var out []lang.Reg
	for _, ro := range spec.Regs {
		if ro.TID == tid {
			out = append(out, ro.Reg)
		}
	}
	return out
}

// dedupFinals keeps the first completion per observation, in place.
func dedupFinals(fs []core.Completion) []core.Completion {
	seen := make(map[string]bool, len(fs))
	out := fs[:0]
	for _, f := range fs {
		k := Outcome{Regs: f.Vals}.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, f)
	}
	return out
}
