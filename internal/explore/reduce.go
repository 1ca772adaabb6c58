package explore

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"

	"promising/internal/core"
	"promising/internal/lang"
)

// State-space reductions: thread-symmetry canonicalization and
// independence (sleep-set) pruning. Both are on by default and preserve
// the outcome set exactly; the differential suite certifies this by
// comparing reduced and unreduced runs byte-for-byte.
//
// Thread symmetry: threads compiled to structurally identical code, whose
// observed registers coincide, are interchangeable — the initial state is
// invariant under permuting them, and every transition rule treats thread
// ids opaquely (a message's TID is only ever compared against the acting
// thread's own id), so any permutation of a symmetry class maps reachable
// states to reachable states and outcomes to outcomes (Ip & Dill 1996;
// Emerson & Sistla 1996). Exploration therefore dedups on one canonical
// representative per permutation orbit. Since the interner/seenSet is the
// single dedup choke point, every backend inherits the reduction by
// canonicalizing the key it interns. Outcome sets are made
// permutation-closed at the end of the run (the image of a reachable
// outcome under a class permutation is reachable, by the same symmetry),
// which is what makes reduced and unreduced outcome sets byte-identical.
//
// The representative is found by sorting, not by enumerating
// permutations. A message's TID is the only thread-indexed datum in a
// state (thread encodings hold timestamps and history positions, which
// permutations preserve), so each thread has a permutation-invariant
// signature: its encoding plus the positions of the messages it owns.
// Each class is stable-sorted by (encoding, first owned position, none
// first) — the same order as comparing whole owned-position lists, which
// are disjoint and so differ in their first element — the memory's TIDs
// are relabeled to the sorted slots and the thread encodings appended in
// slot order. Every orbit member yields the same key, and a key is the
// encoding of a permuted state, so equal keys mean one orbit: the form
// is exact in O(n log n) per state, with no cap on class size.
//
// Ties. Two class members tie only when their encodings are equal and
// neither owns a message (no two threads own one position). Ties are
// broken by concrete tid, so the order, and the CanonMask frame built on
// it, is a deterministic function of the concrete state. Any tie-break
// would be sound: the order relabels the concrete state onto the
// canonical one (an isomorphism), so a family claimed at canonical slot
// k means the same expansion from every orbit member, and swapping tied
// members is an automorphism of the canonical state. That keeps the
// per-family claims in the seen set and in the cluster's cross-shard
// claim protocol comparable across the representatives of one orbit.
//
// Independence pruning (sleep sets, Godefroid): when the step taken at a
// state commutes with every step of some other thread family, exploring
// that family's steps both before and after the taken step reaches the
// same states twice. Each entry of the interleaving driver
// (interleave.go, shared by naive and flat) carries a "sleep set" of
// families known to be exhaustively covered by a sibling ordering; slept
// families are not expanded. The driver keeps the sleep sets and claims;
// each backend's successor hook supplies only its dependence relation,
// as the candidate families each step wakes. Each canonical state's
// seen-set entry (seenSet.Arrive) records, in the canonical frame, which
// families have been claimed for expansion there, so re-arrivals at any
// orbit representative expand only newly awake families. Sleep sets prune
// transitions, never states: every reachable state is still visited, so
// States/DeadEnds and the outcome set are identical with pruning on or
// off.

// ReductionMode selects which state-space reductions an exploration
// applies. The zero value enables both (reductions are on by default);
// witness-collecting runs force ReduceOff so every interleaving stays
// reachable, and each backend applies only the reductions it supports
// (promise-first: symmetry only; axiomatic: none).
type ReductionMode int

const (
	// ReduceOn enables thread-symmetry canonicalization and independence
	// pruning (the default).
	ReduceOn ReductionMode = iota
	// ReduceOff disables both reductions (the pre-reduction behaviour).
	ReduceOff
	// ReduceSymmetry enables only thread-symmetry canonicalization.
	ReduceSymmetry
	// ReducePruning enables only independence pruning.
	ReducePruning
)

// String returns the flag spelling: on, off, symmetry or pruning.
func (m ReductionMode) String() string {
	switch m {
	case ReduceOff:
		return "off"
	case ReduceSymmetry:
		return "symmetry"
	case ReducePruning:
		return "pruning"
	default:
		return "on"
	}
}

// ParseReductionMode parses the -reductions flag value.
func ParseReductionMode(s string) (ReductionMode, error) {
	switch s {
	case "on", "":
		return ReduceOn, nil
	case "off":
		return ReduceOff, nil
	case "symmetry":
		return ReduceSymmetry, nil
	case "pruning":
		return ReducePruning, nil
	}
	return ReduceOff, fmt.Errorf("explore: bad reductions mode %q (want on, off, symmetry or pruning)", s)
}

// Symmetry reports whether the mode enables thread-symmetry
// canonicalization; Pruning likewise for independence pruning.
func (m ReductionMode) Symmetry() bool { return m == ReduceOn || m == ReduceSymmetry }

// Pruning reports whether the mode enables independence pruning.
func (m ReductionMode) Pruning() bool { return m == ReduceOn || m == ReducePruning }

// backendReductions reports which reductions the named snapshot backend
// can apply at all: the naive and flat explorers support both, the
// promise-first explorer canonicalizes its phase-1 memories (symmetry
// only — its phase structure has no interleaving to prune), and the
// axiomatic backend enumerates candidate executions rather than
// interleavings, so neither reduction applies.
func backendReductions(backend string) (sym, prune bool) {
	switch backend {
	case snapNaive, "flat":
		return true, true
	case snapPromising:
		return true, false
	default:
		return false, false
	}
}

// EffectiveReductions resolves the reduction configuration the named
// backend actually applies under these options, as the string stamped
// into snapshots: "none", "symmetry", "pruning" or "symmetry+pruning".
// Witness collection forces "none". The stamp depends only on (backend,
// options) — never on the test — so a resume under the same options
// always recomputes the stamp the snapshot carries.
func (o *Options) EffectiveReductions(backend string) string {
	bs, bp := backendReductions(backend)
	sym := bs && o.Reductions.Symmetry() && !o.CollectWitnesses
	prune := bp && o.Reductions.Pruning() && !o.CollectWitnesses
	switch {
	case sym && prune:
		return "symmetry+pruning"
	case sym:
		return "symmetry"
	case prune:
		return "pruning"
	default:
		return "none"
	}
}

// MaxReductionThreads bounds the thread count the bitmask-based pruning
// and the symmetry canonicalization handle; programs with more threads
// run unreduced. Aux words pack two 30-bit masks plus a flag, and every
// thread id stays a one-byte varint in the keys CanonicalState relabels.
const MaxReductionThreads = 30

// Symmetry is the thread-symmetry structure of one compiled program
// under an observation spec: the partition of interchangeable threads
// and the outcome remaps of the adjacent in-class transpositions, which
// generate every class permutation.
type Symmetry struct {
	n       int
	classes [][]int // nontrivial classes (>= 2 members), ascending tids
	swaps   [][]int // per adjacent in-class transposition: outcome reg index remap
}

type regKey struct {
	tid int
	reg lang.Reg
}

// NewSymmetry analyses cp and returns its symmetry structure, or nil when
// no two threads are interchangeable (or the program exceeds the thread
// cap). Two threads are classed together when their compiled code is
// structurally identical and the spec observes the same register set in
// both (so permuting them permutes outcome fields rather than inventing
// or dropping any).
func NewSymmetry(cp *lang.CompiledProgram, spec *ObsSpec) *Symmetry {
	n := len(cp.Threads)
	if n < 2 || n > MaxReductionThreads {
		return nil
	}
	regs := make([][]lang.Reg, n)
	for _, ro := range spec.Regs {
		if ro.TID < 0 || ro.TID >= n {
			return nil
		}
		regs[ro.TID] = append(regs[ro.TID], ro.Reg)
	}
	for _, rs := range regs {
		sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
	}
	classOf := make([]int, n)
	for i := range classOf {
		classOf[i] = -1
	}
	var classes [][]int
	for i := 0; i < n; i++ {
		if classOf[i] >= 0 {
			continue
		}
		cls := []int{i}
		classOf[i] = i
		for j := i + 1; j < n; j++ {
			if classOf[j] < 0 && sameRegs(regs[i], regs[j]) &&
				reflect.DeepEqual(cp.Threads[i], cp.Threads[j]) {
				classOf[j] = i
				cls = append(cls, j)
			}
		}
		if len(cls) >= 2 {
			classes = append(classes, cls)
		}
	}
	if len(classes) == 0 {
		return nil
	}
	sy := &Symmetry{n: n, classes: classes}
	idx := make(map[regKey]int, len(spec.Regs))
	for i, ro := range spec.Regs {
		idx[regKey{ro.TID, ro.Reg}] = i
	}
	for _, cls := range classes {
		for k := 0; k+1 < len(cls); k++ {
			swap := map[int]int{cls[k]: cls[k+1], cls[k+1]: cls[k]}
			m := make([]int, len(spec.Regs))
			for i, ro := range spec.Regs {
				tid, ok := swap[ro.TID]
				if !ok {
					tid = ro.TID
				}
				j, ok := idx[regKey{tid, ro.Reg}]
				if !ok {
					return nil // same-reg-set classing makes this unreachable
				}
				m[i] = j
			}
			sy.swaps = append(sy.swaps, m)
		}
	}
	return sy
}

func sameRegs(a, b []lang.Reg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Classes returns the number of nontrivial symmetry classes (the
// SymmetryClasses stat).
func (sy *Symmetry) Classes() int {
	if sy == nil {
		return 0
	}
	return len(sy.classes)
}

// CanonicalState canonicalizes a state key in place and completes it. On
// entry b ends with the memory section encoded under the concrete thread
// ids, and tidAt holds the offset in b of every message's one-byte varint
// thread id, in the encoder's thread-neutral message order (entry k is
// position k). Thread t's encoding is threads[ends[t-1]:ends[t]] (from 0
// for t = 0); nil ends means every thread is initial (promise-first phase
// 1). The classes are sorted as the header describes, the memory's
// thread ids rewritten to the sorted slots and the thread encodings
// appended in slot order — the section order of the unreduced keys. It
// returns the key, the order (order[slot] = concrete thread; nil =
// identity) and whether the order moved a thread, which is what
// SymmetryHits counts.
func (sy *Symmetry) CanonicalState(b []byte, tidAt []int, threads []byte, ends []int) ([]byte, []int, bool) {
	var first, order, tidMap [MaxReductionThreads]int
	for t := 0; t < sy.n; t++ {
		first[t], order[t] = -1, t
	}
	for k, off := range tidAt {
		if t := b[off] >> 1; first[t] < 0 {
			first[t] = k
		}
	}
	enc := func(t int) []byte {
		if t == 0 {
			return threads[:ends[0]]
		}
		return threads[ends[t-1]:ends[t]]
	}
	before := func(a, c int) bool {
		if ends != nil {
			if d := bytes.Compare(enc(a), enc(c)); d != 0 {
				return d < 0
			}
		}
		if first[a] != first[c] {
			return first[a] < first[c]
		}
		return a < c
	}
	moved := false
	var members [MaxReductionThreads]int
	for _, cls := range sy.classes {
		m := members[:len(cls)]
		copy(m, cls)
		for i := 1; i < len(m); i++ {
			for j := i; j > 0 && before(m[j], m[j-1]); j-- {
				m[j], m[j-1] = m[j-1], m[j]
			}
		}
		for i, t := range m {
			order[cls[i]] = t
			moved = moved || t != cls[i]
		}
	}
	if !moved {
		return append(b, threads...), nil, false
	}
	for slot := 0; slot < sy.n; slot++ {
		tidMap[order[slot]] = slot
	}
	for _, off := range tidAt {
		b[off] = byte(tidMap[b[off]>>1] << 1)
	}
	for slot := 0; slot < sy.n && ends != nil; slot++ {
		b = append(b, enc(order[slot])...)
	}
	return b, append([]int(nil), order[:sy.n]...), true
}

// CanonicalMemory appends the canonical encoding of a bare memory (the
// promise-first phase-1 state, where every thread is still initial and a
// class member's signature is its owned timestamps alone). The second
// result reports a symmetry hit.
func (sy *Symmetry) CanonicalMemory(b []byte, mem *core.Memory) ([]byte, bool) {
	var at [64]int
	b, tidAt := core.EncodeMemoryOwners(b, mem, at[:0])
	b, _, hit := sy.CanonicalState(b, tidAt, nil, nil)
	return b, hit
}

// CloseOutcomes closes the result's outcome set under the class
// permutations: the image of every recorded outcome under every class
// permutation is recorded too. Images of reachable outcomes are reachable
// (permutations are automorphisms of the transition system), so closure
// adds nothing an unreduced run would not find — and it restores exactly
// the orbit members a canonicalized run collapsed, making reduced and
// unreduced outcome sets byte-identical. The adjacent in-class
// transpositions generate the group, so a worklist closure under them
// reaches every image at a cost of (closed set size) x (generators).
// Observed memory locations are thread-neutral and pass through
// unchanged. Idempotent, so re-closing after a resume merge is safe.
func (sy *Symmetry) CloseOutcomes(res *Result) {
	if sy == nil {
		return
	}
	work := make([]Outcome, 0, len(res.Outcomes))
	for _, o := range res.Outcomes {
		work = append(work, o)
	}
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		for _, rm := range sy.swaps {
			regs := make([]lang.Val, len(o.Regs))
			for i := range regs {
				regs[i] = o.Regs[rm[i]]
			}
			img := Outcome{Regs: regs, Mem: o.Mem}
			k := img.Key()
			if _, ok := res.Outcomes[k]; !ok {
				res.Outcomes[k] = img
				work = append(work, img)
			}
		}
	}
}

// CanonMask converts a concrete thread bitmask into the canonical frame
// chosen by CanonicalState (canonical bit slot <- concrete bit
// order[slot]); nil order is the identity.
func CanonMask(mask uint32, order []int) uint32 {
	if order == nil || mask == 0 {
		return mask
	}
	var out uint32
	for slot, old := range order {
		if mask&(1<<old) != 0 {
			out |= 1 << slot
		}
	}
	return out
}

// concreteMask is the inverse of CanonMask for the same order.
func concreteMask(mask uint32, order []int) uint32 {
	if order == nil || mask == 0 {
		return mask
	}
	var out uint32
	for slot, old := range order {
		if mask&(1<<slot) != 0 {
			out |= 1 << old
		}
	}
	return out
}

// Frontier aux words carry a pending entry's reduction state across a
// snapshot: the arrival sleep set (bits 0-29), the claimed to-expand set
// (bits 30-59) and the first-ever-arrival flag (bit 60). A zero word —
// and a snapshot with no aux at all — decodes to the conservative
// "expand everything, not fresh" state only through unpackAux's caller
// defaulting; packAux/unpackAux themselves are exact inverses.

const auxMaskBits = 30

// packAux packs a frontier entry's reduction state into one aux word.
func packAux(sleep, todo uint32, fresh bool) uint64 {
	w := uint64(sleep&(1<<auxMaskBits-1)) | uint64(todo&(1<<auxMaskBits-1))<<auxMaskBits
	if fresh {
		w |= 1 << (2 * auxMaskBits)
	}
	return w
}

// unpackAux is the inverse of packAux.
func unpackAux(w uint64) (sleep, todo uint32, fresh bool) {
	sleep = uint32(w) & (1<<auxMaskBits - 1)
	todo = uint32(w>>auxMaskBits) & (1<<auxMaskBits - 1)
	fresh = w&(1<<(2*auxMaskBits)) != 0
	return
}
