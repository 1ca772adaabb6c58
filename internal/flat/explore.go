package flat

import (
	"promising/internal/explore"
	"promising/internal/lang"
)

// Explore runs the flat model exhaustively over all micro-step
// interleavings, deduplicating states. It satisfies the litmus.Runner
// signature and runs the interleaving driver the naive explorer also
// runs (explore.Interleaving), which owns deduplication, reductions,
// checkpoint/resume and stats; run supplies only the flat machine's
// hooks. Options.Certify is ignored (the flat model has no
// certification).
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
// steps with disjoint memory footprints. A flat micro-step touches at
// most one location — loads satisfying from memory read it, stores
// performing write it — and every other step is thread-local, so the
// successor hook's dependence test (machine.dependsOn) is a
// single-address comparison against each candidate family's pending
// accesses.
func Explore(cp *lang.CompiledProgram, spec *explore.ObsSpec, opts explore.Options) *explore.Result {
	res, _ := run(cp, spec, opts, nil)
	return res
}

// run runs the interleaving driver over flat machines, with step
// descriptions as the witness trace.
func run(cp *lang.CompiledProgram, spec *explore.ObsSpec, opts explore.Options, snap *explore.Snapshot) (*explore.Result, error) {
	nThreads := len(cp.Threads)
	iv := explore.Interleaving[*machine, string]{
		Backend: snapBackend,
		Init: func() *machine {
			m := newMachine(cp)
			m.desc = opts.CollectWitnesses
			return m
		},
		Key: func(b []byte, m *machine, sym *explore.Symmetry) ([]byte, []int, bool) {
			if sym == nil {
				return m.appendKey(b), nil, false
			}
			return m.appendSymKey(b, sym)
		},
		Decode:  func(b []byte) (*machine, error) { return decodeMachine(cp, b) },
		Bound:   (*machine).boundExceeded,
		Final:   (*machine).done,
		Observe: func(m *machine) explore.Outcome { return observe(spec, m) },
		Successors: func(m *machine, tid int, cand uint32, emit func(*machine, string, uint32)) bool {
			m.threadSuccessors(tid, func(s *machine) {
				var wake uint32
				if cand != 0 && (s.stepRead || s.stepWrite) {
					for j := 0; j < nThreads; j++ {
						if cand&(1<<j) != 0 && m.dependsOn(j, s.stepAddr, s.stepRead, s.stepWrite) {
							wake |= 1 << j
						}
					}
				}
				emit(s, s.stepDesc, wake)
			})
			// The per-step dependsOn test above keeps every dependent
			// family awake, so any enabled family may sleep in later
			// siblings' children.
			return true
		},
		Witness: func(steps []string) explore.Witness { return explore.Witness{Native: steps} },
	}
	return iv.Run(cp, spec, opts, snap)
}

// observe projects a completed machine onto the observation spec.
func observe(spec *explore.ObsSpec, m *machine) explore.Outcome {
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
