package explore

import (
	"fmt"
	"sync/atomic"

	"promising/internal/core"
	"promising/internal/lang"
	"promising/internal/obs"
)

// Naive explores all interleavings of all machine transitions (reads,
// fulfils, exclusive failures and promises), deduplicating states. It is the
// reference explorer: slower than promise-first (the ablation Table 2-style
// benchmarks quantify by how much) but a direct transcription of the
// machine-step relation, which makes it the oracle for Theorems 6.2 and 7.1.
//
// The search is the shared interleaving driver (Interleaving, in
// interleave.go), which owns deduplication, the reductions of reduce.go,
// checkpoint/resume and stats; naiveRun supplies only the machine hooks.
// All workers share one exploration-scoped certification cache — the
// same thread configuration ⟨T, M⟩ recurs across every global state
// differing only in the other threads, so per-step certification
// amortises to cache lookups across the run.
//
// The successor hook states naive's dependence relation. A non-promise
// step only mutates the acting thread (memory is shared untouched), so
// any two non-promise steps of different threads commute — same child
// state either order, and neither changes what the other thread can do
// (certification included: it depends only on the thread and the
// unchanged memory). Promise steps append to memory and are
// conservatively dependent on everything: a family with any promise step
// is never slept, and a promise child wakes all families.
func Naive(cp *lang.CompiledProgram, spec *ObsSpec, opts Options) *Result {
	res, _ := naiveRun(cp, spec, opts, nil)
	return res
}

// ResumeNaive continues a checkpointed naive exploration from its
// snapshot, byte-identically (see Interleaving.Run).
func ResumeNaive(cp *lang.CompiledProgram, spec *ObsSpec, snap *Snapshot, opts Options) (*Result, error) {
	if err := snap.Validate(snapNaive, &opts); err != nil {
		return nil, err
	}
	return naiveRun(cp, spec, opts, snap)
}

// naiveRun runs the interleaving driver over core.Machine states, with
// transition labels as the witness trace.
func naiveRun(cp *lang.CompiledProgram, spec *ObsSpec, opts Options, snap *Snapshot) (*Result, error) {
	cc := opts.certCache()
	iv := Interleaving[*core.Machine, core.Label]{
		Backend: snapNaive,
		Init:    func() *core.Machine { return core.NewMachine(cp) },
		Key:     appendNaiveKey,
		Decode:  func(b []byte) (*core.Machine, error) { return core.DecodeMachine(cp, b) },
		Bound:   (*core.Machine).BoundExceeded,
		Final:   (*core.Machine).Final,
		Observe: func(m *core.Machine) Outcome { return observe(spec, m) },
		Successors: func(m *core.Machine, tid int, cand uint32, emit func(*core.Machine, core.Label, uint32)) bool {
			quiet := true
			for _, s := range m.ThreadSuccessorsCached(tid, opts.Certify, cc) {
				var wake uint32
				if s.Label.Kind == core.StepPromise {
					wake, quiet = cand, false
				}
				emit(s.M, s.Label, wake)
			}
			return quiet
		},
		Witness: func(trace []core.Label) Witness { return Witness{Labels: trace} },
		Certs:   cc,
	}
	return iv.Run(cp, spec, opts, snap)
}

// statsOf assembles a run's ExploreStats from its dedup set and
// certification cache (either may be nil). Hit/miss counters are reported
// relative to start, so a cache shared across runs (Options.CertCache)
// yields per-run stats rather than cache-lifetime totals; CertEntries is
// the cache's current size.
func statsOf(seen *seenSet, cc *core.CertCache, start core.CertStats) ExploreStats {
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
func statsProbe(prev func(*obs.StatsSnapshot), seen *seenSet, cc *core.CertCache, start core.CertStats, symHits, pruned *atomic.Int64) func(*obs.StatsSnapshot) {
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
