// Package flat implements a simplified Flat-style operational baseline
// model (Pulte et al. 2018), the microarchitectural comparison point of the
// paper's §8 evaluation. In contrast to the Promising model it executes each
// instruction in several globally interleaved micro-steps (address/data
// resolution, satisfaction, propagation), satisfies loads out of order,
// speculates branches explicitly (exploring both fetch directions and
// pruning mis-speculations), and forwards values from unpropagated
// speculative stores — the mechanisms that make the baseline exhaustive
// search expensive.
//
// Restart-free simplifications (documented in DESIGN.md, validated against
// the Promising and Axiomatic models on the litmus suites):
//   - memory accesses wait for program-order-earlier accesses' addresses to
//     be known instead of satisfying speculatively and restarting;
//   - same-address accesses perform in program order, except that loads may
//     forward from the latest unpropagated same-address store (sound for
//     coherence: the store cannot propagate past them);
//   - a forwarded load exclusive anchors its reservation at the source
//     store's propagation point.
package flat

import (
	"encoding/binary"
	"fmt"
	"sort"

	"promising/internal/core"
	"promising/internal/explore"
	"promising/internal/lang"
)

// istate is an instruction instance's lifecycle state.
type istate uint8

const (
	iFetched istate = iota
	iPerformed
)

// inst is one fetched instruction instance.
type inst struct {
	node int32 // node index in the thread's code
	kind lang.NodeKind
	// dst is the output register: load destination, assign destination or
	// store-exclusive success register (-1 = none).
	dst lang.Reg

	// Static register providers, filled at fetch time: for every register
	// read by the address / data (or assign source) / condition expression
	// (in lang.ExprRegs order), the po-index of the latest earlier
	// instruction writing it (-1 = thread-initial zero).
	addrProv []int
	dataProv []int
	condProv []int

	// Speculation bookkeeping for branches: the pending arm nodes, whether
	// an arm has been fetched, and which direction was chosen.
	pendThen, pendElse int32
	fetchedKids        bool
	specTaken          bool

	state istate

	addrKnown bool
	addr      lang.Loc
	dataKnown bool
	data      lang.Val

	// Loads: the satisfied value and, when the load was satisfied by
	// forwarding, the po-index of the source store (-1 = from memory).
	val     lang.Val
	fwdFrom int
	// satisfied marks an rmw's read half performed (its value in val); the
	// write half performs separately, at propagation. Loads use state
	// instead (their single perform event is the satisfaction).
	satisfied bool
	// resIdx records a load exclusive's reservation when it read from
	// memory: the history index it read (-1 = the initial write). When the
	// load exclusive forwarded (fwdFrom >= 0) the reservation is anchored
	// at the source store instead.
	resIdx int
	// propIdx is a store's index in its location's propagation history,
	// set when it performs (-1 before).
	propIdx int

	// Store exclusives: decided reports the success choice was made,
	// succ its value. pair is the po-index of the paired load exclusive
	// (-1 = unpaired, must fail).
	decided bool
	succ    bool
	pair    int
}

// thread is one hardware thread.
type thread struct {
	insts []inst
	cont  []int32
	// lastWriter maps registers to the po-index of their latest fetched
	// writer (-1 = none); used to wire providers at fetch time.
	lastWriter []int
	// lastXcl is the po-index of the most recent fetched load exclusive,
	// reset by any fetched store exclusive.
	lastXcl int
	bound   bool
}

func (t *thread) clone() *thread {
	return &thread{
		insts:      append([]inst(nil), t.insts...),
		cont:       append([]int32(nil), t.cont...),
		lastWriter: append([]int(nil), t.lastWriter...),
		lastXcl:    t.lastXcl,
		bound:      t.bound,
	}
}

// memWrite is one propagated write.
type memWrite struct {
	val lang.Val
	tid int
}

// memory is the flat multicopy-atomic memory: per-location propagation
// histories.
type memory struct {
	hist map[lang.Loc][]memWrite
	// locs lists hist's locations in ascending order, the order the key
	// walks them. Clones share it; push replaces it, never mutates it.
	locs []lang.Loc
	init map[lang.Loc]lang.Val
}

func newMemory(init map[lang.Loc]lang.Val) *memory {
	return &memory{hist: map[lang.Loc][]memWrite{}, init: init}
}

func (m *memory) clone() *memory {
	out := &memory{hist: make(map[lang.Loc][]memWrite, len(m.hist)), locs: m.locs, init: m.init}
	for l, ws := range m.hist {
		out.hist[l] = append([]memWrite(nil), ws...)
	}
	return out
}

func (m *memory) current(l lang.Loc) lang.Val {
	ws := m.hist[l]
	if len(ws) == 0 {
		return m.init[l]
	}
	return ws[len(ws)-1].val
}

func (m *memory) push(l lang.Loc, v lang.Val, tid int) {
	if _, ok := m.hist[l]; !ok {
		i := sort.Search(len(m.locs), func(i int) bool { return m.locs[i] >= l })
		locs := make([]lang.Loc, 0, len(m.locs)+1)
		locs = append(append(append(locs, m.locs[:i]...), l), m.locs[i:]...)
		m.locs = locs
	}
	m.hist[l] = append(m.hist[l], memWrite{val: v, tid: tid})
}

// machine is a whole-system flat state.
type machine struct {
	cp      *lang.CompiledProgram
	threads []*thread
	mem     *memory

	// desc makes every transition stamp its successor with a one-line
	// human rendering (stepDesc), collected into the native witness
	// fallback. Inherited by clones; off outside witness collection.
	desc bool

	// Taken-step memory footprint, set on a successor by the transition
	// that produced it (zero for thread-local steps): independence pruning
	// compares it against the other threads' pending-access footprints.
	// Transient — clone() starts successors from a zero footprint, and the
	// fields are excluded from appendKey, as is stepDesc.
	stepAddr  lang.Loc
	stepRead  bool // the step read memory at stepAddr
	stepWrite bool // the step wrote memory at stepAddr
	stepDesc  string
}

func (m *machine) clone() *machine {
	out := &machine{cp: m.cp, mem: m.mem, desc: m.desc}
	out.threads = make([]*thread, len(m.threads))
	copy(out.threads, m.threads)
	return out
}

// note stamps the successor with its producing step's rendering (no-op
// unless witness collection enabled desc).
func (m *machine) note(format string, args ...any) {
	if m.desc {
		m.stepDesc = fmt.Sprintf(format, args...)
	}
}

// cloneThread returns a copy with thread tid (and optionally memory) fresh.
func (m *machine) cloneThread(tid int, withMem bool) *machine {
	out := m.clone()
	out.threads[tid] = m.threads[tid].clone()
	if withMem {
		out.mem = m.mem.clone()
	}
	return out
}

func newMachine(cp *lang.CompiledProgram) *machine {
	m := &machine{cp: cp, mem: newMemory(cp.Init)}
	for tid := range cp.Threads {
		th := &thread{
			cont:       []int32{cp.Threads[tid].Root},
			lastWriter: make([]int, cp.Threads[tid].NumRegs),
			lastXcl:    -1,
		}
		for i := range th.lastWriter {
			th.lastWriter[i] = -1
		}
		m.threads = append(m.threads, th)
		m.autoFetch(tid)
	}
	return m
}

// key canonically encodes the machine state for deduplication.
func (m *machine) key() string { return string(m.appendKey(nil)) }

func (m *machine) appendKey(b []byte) []byte {
	b, _ = m.appendMemKey(b, nil)
	for tid := range m.threads {
		b = m.appendThreadKey(b, tid)
	}
	return b
}

// appendMemKey appends the memory section of the machine key, walking
// the locations in ascending order. With a non-nil tidAt it also appends
// the offset in b of every write's one-byte thread id, in walk order. A
// write's tid is the only thread-indexed datum in the memory (propagation
// indices are positions within a location's history, which permutations
// preserve), so a write's ordinal in this walk is a thread-neutral
// position: the symmetry reduction signs each thread with the ordinals
// it owns and relabels the tids in place (explore.Symmetry.CanonicalState).
func (m *machine) appendMemKey(b []byte, tidAt []int) ([]byte, []int) {
	b = binary.AppendVarint(b, int64(len(m.mem.locs)))
	for _, l := range m.mem.locs {
		ws := m.mem.hist[l]
		b = binary.AppendVarint(b, l)
		b = binary.AppendVarint(b, int64(len(ws)))
		for _, w := range ws {
			b = binary.AppendVarint(b, w.val)
			if tidAt != nil {
				tidAt = append(tidAt, len(b))
			}
			b = binary.AppendVarint(b, int64(w.tid))
		}
	}
	return b, tidAt
}

// appendSymKey appends the machine's symmetry-canonical key: the memory
// section and the thread sections, class members ordered by their
// thread section and owned write ordinals. It returns the canonicalizing
// order (nil = identity) and whether it moved a thread.
func (m *machine) appendSymKey(b []byte, sy *explore.Symmetry) ([]byte, []int, bool) {
	var at [64]int
	b, tidAt := m.appendMemKey(b, at[:0])
	var ends [explore.MaxReductionThreads]int
	tb := core.GetEncBuf()
	for t := range m.threads {
		tb = m.appendThreadKey(tb, t)
		ends[t] = len(tb)
	}
	b, order, hit := sy.CanonicalState(b, tidAt, tb, ends[:len(m.threads)])
	core.PutEncBuf(tb)
	return b, order, hit
}

// appendThreadKey appends one thread's section of the machine key. All
// per-instruction indices (providers, forwarding sources, reservation and
// propagation indices, exclusive pairs) are thread-internal or positions
// in a location history, so the section is invariant under thread
// permutations — which is what lets the symmetry reduction reorder whole
// sections.
func (m *machine) appendThreadKey(b []byte, tid int) []byte {
	th := m.threads[tid]
	b = binary.AppendVarint(b, int64(len(th.cont)))
	for _, c := range th.cont {
		b = binary.AppendVarint(b, int64(c))
	}
	b = binary.AppendVarint(b, int64(len(th.insts)))
	for i := range th.insts {
		in := &th.insts[i]
		b = binary.AppendVarint(b, int64(in.node))
		b = append(b, byte(in.state), boolByte(in.addrKnown), boolByte(in.dataKnown),
			boolByte(in.decided), boolByte(in.succ), boolByte(in.specTaken),
			boolByte(in.fetchedKids), boolByte(in.satisfied))
		b = binary.AppendVarint(b, in.addr)
		b = binary.AppendVarint(b, in.data)
		b = binary.AppendVarint(b, in.val)
		b = binary.AppendVarint(b, int64(in.fwdFrom))
		b = binary.AppendVarint(b, int64(in.resIdx))
		b = binary.AppendVarint(b, int64(in.propIdx))
		b = binary.AppendVarint(b, int64(in.pair))
	}
	b = append(b, boolByte(th.bound))
	return b
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// exprProviders returns, for each register read by e (left to right), the
// po-index of its latest fetched writer.
func (t *thread) exprProviders(e lang.Expr) []int {
	var out []int
	for _, r := range lang.ExprRegs(e, nil) {
		out = append(out, t.lastWriter[r])
	}
	return out
}

// available reports whether provider instruction p's output value can be
// read: it has performed, or — the ARM store-exclusive relaxation (§C.1) —
// it is an ARM store exclusive whose success has been decided.
func (m *machine) available(t *thread, p int) bool {
	if p < 0 {
		return true
	}
	in := &t.insts[p]
	if in.state == iPerformed {
		return true
	}
	if in.kind == lang.NRMW {
		// An rmw's destination is the read's old value, final once the read
		// half satisfies (like a performed load exclusive, with the write
		// half still pending).
		return in.satisfied
	}
	return in.kind == lang.NStore && in.decided &&
		(m.cp.Arch == lang.ARM || !in.succ)
}

// ready reports whether every provider's value is available.
func (m *machine) ready(t *thread, provs []int) bool {
	for _, p := range provs {
		if !m.available(t, p) {
			return false
		}
	}
	return true
}

// provValue returns provider p's output value (0 for the thread-initial
// register file).
func (t *thread) provValue(p int) lang.Val {
	if p < 0 {
		return 0
	}
	in := &t.insts[p]
	switch in.kind {
	case lang.NLoad, lang.NAssign, lang.NRMW:
		return in.val
	case lang.NStore:
		if in.succ {
			return lang.VSucc
		}
		return lang.VFail
	default:
		panic(fmt.Sprintf("flat: instruction %d produces no value", p))
	}
}

// eval evaluates e against the providers captured at fetch time; provs must
// be the provider list built from the same expression.
func (t *thread) eval(e lang.Expr, provs []int) lang.Val {
	i := 0
	var rec func(lang.Expr) lang.Val
	rec = func(e lang.Expr) lang.Val {
		switch e := e.(type) {
		case lang.Const:
			return e.V
		case lang.RegRef:
			v := t.provValue(provs[i])
			i++
			return v
		case lang.BinOp:
			l := rec(e.L)
			r := rec(e.R)
			return e.Op.Apply(l, r)
		default:
			panic(fmt.Sprintf("flat: unknown expression %T", e))
		}
	}
	return rec(e)
}
