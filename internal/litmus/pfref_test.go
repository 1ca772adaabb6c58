package litmus

import (
	"promising/internal/core"
	"promising/internal/explore"
	"promising/internal/lang"
)

// PromiseFirstReference is a sequential promise-first explorer with the
// seed's two-pass structure, kept as an independent reference for
// explore.PromiseFirst's unified certify+complete walk. Per phase-1 memory
// it runs a separate phase-2 completer per thread, then expands phase 1
// through uncached find_and_certify searches. It counts the states
// PromiseFirst counts without reductions: one per phase-1 memory plus one
// per distinct thread state a completer expands, stopping after the first
// thread that cannot complete. Budgets, witnesses and reductions are not
// supported.
func PromiseFirstReference(cp *lang.CompiledProgram, spec *explore.ObsSpec, _ explore.Options) *explore.Result {
	res := &explore.Result{Outcomes: map[string]explore.Outcome{}, Witnesses: map[string]explore.Witness{}}
	envs := make([]core.Env, len(cp.Threads))
	for tid := range cp.Threads {
		envs[tid] = core.Env{Arch: cp.Arch, Code: &cp.Threads[tid], TID: tid, Shared: cp.IsShared}
	}
	initial := func(tid int, mem *core.Memory) *core.Thread {
		th := core.NewThread(&cp.Threads[tid])
		for i, w := range mem.Msgs() {
			if w.TID == tid {
				th.TS.Prom = th.TS.Prom.Add(i + 1)
			}
		}
		core.Advance(&envs[tid], th)
		return th
	}
	m0 := core.NewMemory(cp.Init)
	seen := map[string]bool{string(core.EncodeMemory(nil, m0, 0)): true}
	work := []*core.Memory{m0}
	for len(work) > 0 {
		mem := work[len(work)-1]
		work = work[:len(work)-1]
		res.States++

		// Phase 2: complete every thread under mem.
		perThread := make([][][]lang.Val, len(cp.Threads))
		complete := true
		for tid := range cp.Threads {
			c := &refCompleter{env: &envs[tid], mem: mem, obs: refRegsOf(spec, tid), res: res, memo: map[string][][]lang.Val{}}
			if perThread[tid] = c.search(initial(tid, mem)); len(perThread[tid]) == 0 {
				complete = false
				break
			}
		}
		if complete {
			refProduct(spec, mem, perThread, res)
		}

		// Phase 1: certified promises of each thread.
		for tid := range cp.Threads {
			for _, w := range (*core.CertCache)(nil).FindAndCertify(&envs[tid], initial(tid, mem), mem) {
				next := mem.Clone()
				next.Append(core.Msg{Loc: w.Loc, Val: w.Val, TID: tid})
				if k := string(core.EncodeMemory(nil, next, 0)); !seen[k] {
					seen[k] = true
					work = append(work, next)
				}
			}
		}
	}
	res.Stats.Interned = len(seen)
	return res
}

// refCompleter enumerates the complete executions of one thread alone
// under a fixed memory with no new writes: every store must fulfil a
// phase-1 promise.
type refCompleter struct {
	env  *core.Env
	mem  *core.Memory
	obs  []lang.Reg
	res  *explore.Result
	memo map[string][][]lang.Val
}

func (c *refCompleter) search(th *core.Thread) [][]lang.Val {
	if th.TS.BoundExceeded {
		c.res.BoundExceeded = true
		return nil
	}
	if th.Done() {
		if len(th.TS.Prom) > 0 {
			return nil
		}
		vals := make([]lang.Val, len(c.obs))
		for i, r := range c.obs {
			vals[i] = th.TS.Regs[r].Val
		}
		return [][]lang.Val{vals}
	}
	key := string(core.EncodeThread(nil, th))
	if fs, ok := c.memo[key]; ok {
		return fs
	}
	c.res.States++

	id := th.Cont[len(th.Cont)-1]
	n := &c.env.Code.Nodes[id]
	var out [][]lang.Val
	step := func(apply func(child *core.Thread)) {
		child := th.Clone()
		apply(child)
		core.Advance(c.env, child)
		out = append(out, c.search(child)...)
	}
	switch n.Kind {
	case lang.NLoad:
		for _, rc := range core.ReadChoices(c.env, th, id, c.mem) {
			step(func(ch *core.Thread) { core.ApplyRead(c.env, ch, id, c.mem, rc.TS) })
		}
	case lang.NStore:
		for _, t := range core.FulfilChoices(c.env, th, id, c.mem) {
			step(func(ch *core.Thread) { core.ApplyFulfil(c.env, ch, id, c.mem, t) })
		}
		if n.Xcl {
			step(func(ch *core.Thread) { core.ApplyXclFail(c.env, ch, id) })
		}
	case lang.NRMW:
		for _, rc := range core.ReadChoices(c.env, th, id, c.mem) {
			if _, writes := core.RMWWriteVal(th.TS, n, rc.Val); !writes {
				step(func(ch *core.Thread) { core.ApplyRMWNoWrite(c.env, ch, id, c.mem, rc.TS) })
				continue
			}
			for _, tw := range core.RMWFulfilChoices(c.env, th, id, c.mem, rc.TS) {
				step(func(ch *core.Thread) { core.ApplyRMW(c.env, ch, id, c.mem, rc.TS, tw) })
			}
		}
	default:
		panic("litmus: thread stopped on a non-memory node")
	}
	c.memo[key] = out
	return out
}

// refProduct records the cross product of the per-thread observations
// under mem.
func refProduct(spec *explore.ObsSpec, mem *core.Memory, perThread [][][]lang.Val, res *explore.Result) {
	memVals := make([]lang.Val, len(spec.Locs))
	for i, l := range spec.Locs {
		memVals[i] = mem.LastWriteTo(l)
	}
	pick := make([]int, len(perThread))
	for {
		o := explore.Outcome{Regs: make([]lang.Val, len(spec.Regs)), Mem: memVals}
		idx := make([]int, len(perThread))
		for i, ro := range spec.Regs {
			o.Regs[i] = perThread[ro.TID][pick[ro.TID]][idx[ro.TID]]
			idx[ro.TID]++
		}
		res.Outcomes[o.Key()] = o
		i := 0
		for ; i < len(pick); i++ {
			if pick[i]++; pick[i] < len(perThread[i]) {
				break
			}
			pick[i] = 0
		}
		if i == len(pick) {
			return
		}
	}
}

func refRegsOf(spec *explore.ObsSpec, tid int) []lang.Reg {
	var out []lang.Reg
	for _, ro := range spec.Regs {
		if ro.TID == tid {
			out = append(out, ro.Reg)
		}
	}
	return out
}
