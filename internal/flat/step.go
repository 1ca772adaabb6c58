package flat

import (
	"fmt"

	"promising/internal/lang"
)

// autoFetch advances thread tid's fetch frontier deterministically: straight-
// line instructions are fetched eagerly (fetch itself is not a visible
// step), and fetching stops at a conditional whose condition is not yet
// available — continuing requires an explicit speculation or resolution
// transition.
func (m *machine) autoFetch(tid int) {
	t := m.threads[tid]
	code := &m.cp.Threads[tid]
	for len(t.cont) > 0 {
		id := t.cont[len(t.cont)-1]
		t.cont = t.cont[:len(t.cont)-1]
		n := &code.Nodes[id]
		switch n.Kind {
		case lang.NSkip:
		case lang.NSeq:
			t.cont = append(t.cont, n.S2, n.S1)
		case lang.NBoundFail:
			t.bound = true
			t.cont = t.cont[:0]
			return
		case lang.NAssign:
			t.insts = append(t.insts, inst{
				node: id, kind: n.Kind, dst: n.Dst,
				dataProv: t.exprProviders(n.E),
				fwdFrom:  -1, resIdx: -1, propIdx: -1, pair: -1,
			})
			t.lastWriter[n.Dst] = len(t.insts) - 1
		case lang.NFence, lang.NISB:
			t.insts = append(t.insts, inst{node: id, kind: n.Kind, dst: -1, fwdFrom: -1, resIdx: -1, propIdx: -1, pair: -1})
		case lang.NLoad:
			t.insts = append(t.insts, inst{
				node: id, kind: n.Kind, dst: n.Dst,
				addrProv: t.exprProviders(n.Addr),
				fwdFrom:  -1, resIdx: -1, propIdx: -1, pair: -1,
			})
			idx := len(t.insts) - 1
			t.lastWriter[n.Dst] = idx
			if n.Xcl {
				t.lastXcl = idx
			}
		case lang.NRMW:
			in := inst{
				node: id, kind: n.Kind, dst: n.Dst,
				addrProv: t.exprProviders(n.Addr),
				dataProv: t.exprProviders(n.Data),
				fwdFrom:  -1, resIdx: -1, propIdx: -1, pair: -1,
			}
			if n.Exp != nil {
				in.condProv = t.exprProviders(n.Exp)
			}
			t.insts = append(t.insts, in)
			t.lastWriter[n.Dst] = len(t.insts) - 1
		case lang.NStore:
			in := inst{
				node: id, kind: n.Kind, dst: -1,
				addrProv: t.exprProviders(n.Addr),
				dataProv: t.exprProviders(n.Data),
				fwdFrom:  -1, resIdx: -1, propIdx: -1, pair: -1,
			}
			if n.Xcl {
				in.dst = n.Dst
				in.pair = t.lastXcl
				t.lastXcl = -1
			}
			t.insts = append(t.insts, in)
			if n.Xcl {
				t.lastWriter[n.Dst] = len(t.insts) - 1
			}
		case lang.NIf:
			in := inst{
				node: id, kind: n.Kind, dst: -1,
				condProv: t.exprProviders(n.Cond),
				fwdFrom:  -1, resIdx: -1, propIdx: -1, pair: -1,
				pendThen: n.Then,
				pendElse: n.Else,
			}
			if m.ready(t, in.condProv) {
				// Condition available: resolve and fetch deterministically.
				in.state = iPerformed
				in.fetchedKids = true
				taken := t.eval(n.Cond, in.condProv) != 0
				in.specTaken = taken
				t.insts = append(t.insts, in)
				if taken {
					t.cont = append(t.cont, n.Then)
				} else {
					t.cont = append(t.cont, n.Else)
				}
				continue
			}
			t.insts = append(t.insts, in)
			return // fetch blocked: speculation is an explicit transition
		default:
			panic(fmt.Sprintf("flat: unknown node kind %d", n.Kind))
		}
	}
}

// succFn receives each successor machine state.
type succFn func(*machine)

// successors enumerates every enabled micro-transition.
func (m *machine) successors(emit succFn) {
	for tid := range m.threads {
		m.threadSuccessors(tid, emit)
	}
}

func (m *machine) threadSuccessors(tid int, emit succFn) {
	t := m.threads[tid]
	code := &m.cp.Threads[tid]
	for i := range t.insts {
		in := &t.insts[i]
		n := &code.Nodes[in.node]
		switch in.kind {
		case lang.NAssign:
			if in.state != iPerformed && m.ready(t, in.dataProv) {
				nm := m.cloneThread(tid, false)
				ni := &nm.threads[tid].insts[i]
				ni.val = t.eval(n.E, in.dataProv)
				ni.state = iPerformed
				nm.note("T%d: i%d assign r%d = %d", tid, i, in.dst, ni.val)
				emit(nm)
			}
		case lang.NIf:
			m.branchSuccessors(tid, i, emit)
		case lang.NFence:
			if in.state != iPerformed && m.fenceReady(tid, i) {
				nm := m.cloneThread(tid, false)
				nm.threads[tid].insts[i].state = iPerformed
				nm.note("T%d: i%d fence performs", tid, i)
				emit(nm)
			}
		case lang.NISB:
			if in.state != iPerformed && m.isbReady(tid, i) {
				nm := m.cloneThread(tid, false)
				nm.threads[tid].insts[i].state = iPerformed
				nm.note("T%d: i%d isb performs", tid, i)
				emit(nm)
			}
		case lang.NLoad:
			m.loadSuccessors(tid, i, emit)
		case lang.NStore:
			m.storeSuccessors(tid, i, emit)
		case lang.NRMW:
			m.rmwSuccessors(tid, i, emit)
		}
	}
}

func (m *machine) branchSuccessors(tid, i int, emit succFn) {
	t := m.threads[tid]
	in := &t.insts[i]
	code := &m.cp.Threads[tid]
	n := &code.Nodes[in.node]
	if !in.fetchedKids && in.state != iPerformed {
		// Speculative fetch: explore both directions.
		for _, taken := range []bool{true, false} {
			nm := m.cloneThread(tid, false)
			nt := nm.threads[tid]
			ni := &nt.insts[i]
			ni.fetchedKids = true
			ni.specTaken = taken
			if taken {
				nt.cont = append(nt.cont, in.pendThen)
			} else {
				nt.cont = append(nt.cont, in.pendElse)
			}
			nm.autoFetch(tid)
			nm.note("T%d: i%d speculate branch %s", tid, i, takenStr(taken))
			emit(nm)
		}
	}
	if in.state != iPerformed && m.ready(t, in.condProv) {
		actual := t.eval(n.Cond, in.condProv) != 0
		if in.fetchedKids {
			if actual != in.specTaken {
				return // mis-speculation: prune this path
			}
			nm := m.cloneThread(tid, false)
			nm.threads[tid].insts[i].state = iPerformed
			nm.note("T%d: i%d resolve branch %s (speculation confirmed)", tid, i, takenStr(actual))
			emit(nm)
			return
		}
		nm := m.cloneThread(tid, false)
		nt := nm.threads[tid]
		ni := &nt.insts[i]
		ni.state = iPerformed
		ni.fetchedKids = true
		ni.specTaken = actual
		if actual {
			nt.cont = append(nt.cont, in.pendThen)
		} else {
			nt.cont = append(nt.cont, in.pendElse)
		}
		nm.autoFetch(tid)
		nm.note("T%d: i%d resolve branch %s", tid, i, takenStr(actual))
		emit(nm)
	}
}

func takenStr(taken bool) string {
	if taken {
		return "taken"
	}
	return "not-taken"
}

// failedSX reports whether instruction j is a store exclusive that decided
// to fail (it will never access memory).
func (t *thread) failedSX(code *lang.Code, j int) bool {
	in := &t.insts[j]
	return in.kind == lang.NStore && code.Nodes[in.node].Xcl && in.decided && !in.succ
}

// fenceReady: every po-earlier access in the fence's K1 class has performed.
func (m *machine) fenceReady(tid, i int) bool {
	t := m.threads[tid]
	code := &m.cp.Threads[tid]
	n := &code.Nodes[t.insts[i].node]
	for j := 0; j < i; j++ {
		jn := &t.insts[j]
		switch jn.kind {
		case lang.NLoad:
			if n.K1.IncludesR() && jn.state != iPerformed {
				return false
			}
		case lang.NStore:
			if n.K1.IncludesW() && jn.state != iPerformed && !t.failedSX(code, j) {
				return false
			}
		case lang.NRMW:
			if n.K1.IncludesR() && !jn.satisfied {
				return false
			}
			if n.K1.IncludesW() && jn.state != iPerformed {
				return false
			}
		}
	}
	return true
}

// isbReady: all po-earlier branches resolved and all po-earlier access
// addresses known ((ctrl|addr;po);[isb]).
func (m *machine) isbReady(tid, i int) bool {
	t := m.threads[tid]
	code := &m.cp.Threads[tid]
	for j := 0; j < i; j++ {
		jn := &t.insts[j]
		switch jn.kind {
		case lang.NIf:
			if jn.state != iPerformed {
				return false
			}
		case lang.NLoad, lang.NStore, lang.NRMW:
			if !jn.addrKnown && !t.failedSX(code, j) {
				return false
			}
		}
	}
	return true
}

func (m *machine) loadSuccessors(tid, i int, emit succFn) {
	t := m.threads[tid]
	in := &t.insts[i]
	code := &m.cp.Threads[tid]
	n := &code.Nodes[in.node]

	if !in.addrKnown {
		if m.ready(t, in.addrProv) {
			nm := m.cloneThread(tid, false)
			ni := &nm.threads[tid].insts[i]
			ni.addr = t.eval(n.Addr, in.addrProv)
			ni.addrKnown = true
			nm.note("T%d: i%d load address resolves to [%d]", tid, i, ni.addr)
			emit(nm)
		}
		return
	}
	if in.state == iPerformed {
		return
	}
	fwd, loadsInOrder, ok := m.loadBlocked(tid, i)
	if !ok {
		return
	}
	if fwd >= 0 {
		// Forward from the (possibly unpropagated) latest same-address
		// store, if its data is known and forwarding is permitted. This is
		// legal even while program-order-earlier same-address loads are
		// unsatisfied: the source store cannot propagate until they
		// perform, so their reads stay coherence-before it. Loads between
		// the source store and this one must themselves have forwarded
		// from the same store.
		fs := &t.insts[fwd]
		if m.canForwardFrom(tid, i, fwd) {
			nm := m.cloneThread(tid, false)
			ni := &nm.threads[tid].insts[i]
			ni.val = fs.data
			ni.fwdFrom = fwd
			ni.state = iPerformed
			nm.note("T%d: i%d load [%d] forwards from store i%d = %d", tid, i, in.addr, fwd, ni.val)
			emit(nm)
		}
		if fs.state != iPerformed {
			return // cannot read memory past an unpropagated same-address store
		}
	}
	if !loadsInOrder {
		return // reading memory must wait for earlier same-address loads
	}
	// Satisfy from memory.
	nm := m.cloneThread(tid, false)
	ni := &nm.threads[tid].insts[i]
	ni.val = m.mem.current(in.addr)
	ni.fwdFrom = -1
	ni.state = iPerformed
	if n.Xcl {
		ni.resIdx = len(m.mem.hist[in.addr]) - 1
	}
	// The step read the location's current write (and, for exclusives, its
	// history length); record the footprint for independence pruning.
	nm.stepAddr, nm.stepRead = in.addr, true
	nm.note("T%d: i%d load [%d] satisfied from memory = %d", tid, i, in.addr, ni.val)
	emit(nm)
}

// loadBlocked checks the ordering conditions for satisfying load i. It
// returns the po-index of the latest same-address store (or -1), whether
// all earlier same-address loads have performed (required for reading from
// memory, not for forwarding), and whether satisfaction is possible at all.
func (m *machine) loadBlocked(tid, i int) (fwd int, loadsInOrder, ok bool) {
	t := m.threads[tid]
	code := &m.cp.Threads[tid]
	in := &t.insts[i]
	n := &code.Nodes[in.node]
	l := in.addr
	fwd = -1
	loadsInOrder = true
	for j := 0; j < i; j++ {
		jn := &t.insts[j]
		jnode := &code.Nodes[jn.node]
		switch jn.kind {
		case lang.NLoad:
			if !jn.addrKnown {
				return -1, false, false // restart-free: wait for earlier addresses
			}
			if jn.addr == l && jn.state != iPerformed {
				loadsInOrder = false
			}
			if jnode.RK.AtLeast(lang.ReadWeakAcq) && jn.state != iPerformed {
				return -1, false, false // acquires order later accesses
			}
		case lang.NStore:
			if t.failedSX(code, j) {
				continue
			}
			if !jn.addrKnown {
				return -1, false, false
			}
			if jn.addr == l {
				fwd = j
			}
			if n.RK.AtLeast(lang.ReadAcq) && jnode.WK.AtLeast(lang.WriteRel) && jn.state != iPerformed {
				return -1, false, false // strong release before strong acquire
			}
		case lang.NRMW:
			// Both halves of an earlier rmw order this read: the read half
			// like an earlier load (performed when satisfied), the write
			// half like an earlier store (a forwarding source unless the
			// cas resolved to no write).
			if !jn.addrKnown {
				return -1, false, false
			}
			if jn.addr == l {
				if !jn.satisfied {
					loadsInOrder = false
				}
				if !(jn.decided && !jn.succ) {
					fwd = j
				}
			}
			if jnode.RK.AtLeast(lang.ReadWeakAcq) && !jn.satisfied {
				return -1, false, false
			}
			if n.RK.AtLeast(lang.ReadAcq) && jnode.WK.AtLeast(lang.WriteRel) && jn.state != iPerformed {
				return -1, false, false
			}
		case lang.NFence:
			if jnode.K2.IncludesR() && jn.state != iPerformed {
				return -1, false, false
			}
		case lang.NISB:
			if jn.state != iPerformed {
				return -1, false, false
			}
		}
	}
	return fwd, loadsInOrder, true
}

// canForwardFrom reports whether the read of instruction i (a load, or an
// rmw's read half, with known address) may be satisfied by forwarding from
// the same-address store or rmw write at po-index fwd: the source's data
// must be known; exclusive-style writes (store exclusives, rmw writes)
// forward only once their success is decided, and never to weak-acquire
// (or stronger) reads or on RISC-V; and every access between the source
// and the read that targets the location must itself have forwarded from
// the same source (otherwise it read coherence-later and forwarding would
// reorder same-address reads).
func (m *machine) canForwardFrom(tid, i, fwd int) bool {
	t := m.threads[tid]
	code := &m.cp.Threads[tid]
	in := &t.insts[i]
	n := &code.Nodes[in.node]
	fs := &t.insts[fwd]
	fn := &code.Nodes[fs.node]
	if !fs.dataKnown {
		return false
	}
	if srcXcl := fn.Xcl || fs.kind == lang.NRMW; srcXcl {
		if m.cp.Arch == lang.RISCV || n.RK.AtLeast(lang.ReadWeakAcq) {
			return false
		}
		if !fs.decided || !fs.succ {
			return false
		}
	}
	for j := fwd + 1; j < i; j++ {
		jn := &t.insts[j]
		if !jn.addrKnown || jn.addr != in.addr {
			continue
		}
		switch jn.kind {
		case lang.NLoad:
			if !(jn.state == iPerformed && jn.fwdFrom == fwd) {
				return false
			}
		case lang.NRMW:
			if !(jn.satisfied && jn.fwdFrom == fwd) {
				return false
			}
		}
	}
	return true
}

func (m *machine) storeSuccessors(tid, i int, emit succFn) {
	t := m.threads[tid]
	in := &t.insts[i]
	code := &m.cp.Threads[tid]
	n := &code.Nodes[in.node]

	if !in.addrKnown && m.ready(t, in.addrProv) {
		nm := m.cloneThread(tid, false)
		ni := &nm.threads[tid].insts[i]
		ni.addr = t.eval(n.Addr, in.addrProv)
		ni.addrKnown = true
		nm.note("T%d: i%d store address resolves to [%d]", tid, i, ni.addr)
		emit(nm)
	}
	if !in.dataKnown && m.ready(t, in.dataProv) {
		nm := m.cloneThread(tid, false)
		ni := &nm.threads[tid].insts[i]
		ni.data = t.eval(n.Data, in.dataProv)
		ni.dataKnown = true
		nm.note("T%d: i%d store data resolves to %d", tid, i, ni.data)
		emit(nm)
	}
	if n.Xcl && !in.decided {
		// Failing is always possible; the instruction is then done.
		nm := m.cloneThread(tid, false)
		ni := &nm.threads[tid].insts[i]
		ni.decided = true
		ni.succ = false
		ni.state = iPerformed
		nm.note("T%d: i%d store-exclusive decides to fail", tid, i)
		emit(nm)
		// Success requires a paired, performed load exclusive.
		if in.pair >= 0 && t.insts[in.pair].state == iPerformed {
			nm := m.cloneThread(tid, false)
			ni := &nm.threads[tid].insts[i]
			ni.decided = true
			ni.succ = true
			nm.note("T%d: i%d store-exclusive decides to succeed", tid, i)
			emit(nm)
		}
		return
	}
	if in.state == iPerformed || (n.Xcl && !in.succ) {
		return
	}
	if !in.addrKnown || !in.dataKnown || !m.storeReady(tid, i) {
		return
	}
	if n.Xcl {
		// Atomicity check against the paired reservation (atomic() of
		// §A.3). Cases: the load exclusive forwarded from an own store
		// (reservation anchored after that store's propagation); it read
		// memory at resIdx; or it read the initial write (resIdx < 0),
		// which is a write to every location, so even a different-location
		// pairing reserves this store's location.
		lx := &t.insts[in.pair]
		sameLoc := lx.addr == in.addr
		from := -1
		switch {
		case lx.fwdFrom >= 0:
			if sameLoc {
				from = t.insts[lx.fwdFrom].propIdx + 1
			}
		case sameLoc:
			from = lx.resIdx + 1
		case lx.resIdx < 0:
			from = 0
		}
		if from >= 0 {
			for _, w := range m.mem.hist[in.addr][from:] {
				if w.tid != tid {
					return // reservation lost: this path cannot complete
				}
			}
		}
	}
	nm := m.cloneThread(tid, true)
	nm.mem.push(in.addr, in.data, tid)
	ni := &nm.threads[tid].insts[i]
	ni.state = iPerformed
	ni.propIdx = len(nm.mem.hist[in.addr]) - 1
	// The step wrote the location (and an exclusive's atomicity check read
	// its history); record the footprint for independence pruning.
	nm.stepAddr, nm.stepWrite, nm.stepRead = in.addr, true, n.Xcl
	nm.note("T%d: i%d store [%d]=%d propagates", tid, i, in.addr, in.data)
	emit(nm)
}

// storeReady checks the propagation conditions for store i.
func (m *machine) storeReady(tid, i int) bool {
	t := m.threads[tid]
	code := &m.cp.Threads[tid]
	in := &t.insts[i]
	n := &code.Nodes[in.node]
	l := in.addr
	rel := n.WK.AtLeast(lang.WriteWeakRel)
	for j := 0; j < i; j++ {
		jn := &t.insts[j]
		jnode := &code.Nodes[jn.node]
		switch jn.kind {
		case lang.NIf:
			if jn.state != iPerformed {
				return false // control dependency: no speculative writes
			}
		case lang.NLoad:
			if !jn.addrKnown {
				return false // address-po
			}
			if jn.state != iPerformed &&
				(jn.addr == l || rel || jnode.RK.AtLeast(lang.ReadWeakAcq)) {
				return false
			}
		case lang.NStore:
			if t.failedSX(code, j) {
				continue
			}
			if !jn.addrKnown {
				return false
			}
			if jn.state != iPerformed && (jn.addr == l || rel) {
				return false
			}
		case lang.NRMW:
			if !jn.addrKnown {
				return false
			}
			// Read half: acquires (and same-location / release ordering)
			// wait for the satisfaction; write half: same-location and
			// release ordering wait for the propagation.
			if !jn.satisfied && (jn.addr == l || rel || jnode.RK.AtLeast(lang.ReadWeakAcq)) {
				return false
			}
			if jn.state != iPerformed && (jn.addr == l || rel) {
				return false
			}
		case lang.NFence:
			if jnode.K2.IncludesW() && jn.state != iPerformed {
				return false
			}
		}
	}
	if n.Xcl && m.cp.Arch == lang.RISCV {
		// bob includes rmw: the paired load exclusive propagates first.
		if in.pair < 0 || t.insts[in.pair].state != iPerformed {
			return false
		}
	}
	return true
}

// rmwSuccessors enumerates the micro-transitions of a single-instruction
// rmw (LSE atomic): address resolution, read satisfaction (forwarding
// included, like a load exclusive — the write's reservation anchors at the
// read), write-value resolution (where a cas may fail its comparison and
// finish without writing), and write propagation guarded by the fused
// exclusive-pair atomicity check. The destination register carries the
// read's old value and becomes available at satisfaction, so dependents
// never wait on the write operands (matching the promising model, where
// the rmw's read view excludes the data view).
func (m *machine) rmwSuccessors(tid, i int, emit succFn) {
	t := m.threads[tid]
	in := &t.insts[i]
	code := &m.cp.Threads[tid]
	n := &code.Nodes[in.node]

	if !in.addrKnown {
		if m.ready(t, in.addrProv) {
			nm := m.cloneThread(tid, false)
			ni := &nm.threads[tid].insts[i]
			ni.addr = t.eval(n.Addr, in.addrProv)
			ni.addrKnown = true
			nm.note("T%d: i%d rmw address resolves to [%d]", tid, i, ni.addr)
			emit(nm)
		}
		return
	}
	if !in.satisfied {
		fwd, loadsInOrder, ok := m.loadBlocked(tid, i)
		if !ok {
			return
		}
		if fwd >= 0 {
			fs := &t.insts[fwd]
			if m.canForwardFrom(tid, i, fwd) {
				nm := m.cloneThread(tid, false)
				ni := &nm.threads[tid].insts[i]
				ni.val = fs.data
				ni.fwdFrom = fwd
				ni.satisfied = true
				nm.note("T%d: i%d rmw read [%d] forwards from store i%d = %d", tid, i, in.addr, fwd, ni.val)
				emit(nm)
			}
			if fs.state != iPerformed {
				return // cannot read memory past an unpropagated same-address store
			}
		}
		if !loadsInOrder {
			return
		}
		nm := m.cloneThread(tid, false)
		ni := &nm.threads[tid].insts[i]
		ni.val = m.mem.current(in.addr)
		ni.fwdFrom = -1
		ni.satisfied = true
		ni.resIdx = len(m.mem.hist[in.addr]) - 1
		nm.stepAddr, nm.stepRead = in.addr, true
		nm.note("T%d: i%d rmw read [%d] satisfied from memory = %d", tid, i, in.addr, ni.val)
		emit(nm)
		return
	}
	if !in.decided {
		// Resolve the write half once the operand (and, for cas, expected)
		// registers are available.
		if !m.ready(t, in.dataProv) || (n.Exp != nil && !m.ready(t, in.condProv)) {
			return
		}
		d := t.eval(n.Data, in.dataProv)
		nv, writes := d, true
		switch {
		case n.Exp != nil:
			writes = in.val == t.eval(n.Exp, in.condProv)
		case n.Op != lang.RMWSwap:
			nv = n.Op.Apply(in.val, d)
		}
		nm := m.cloneThread(tid, false)
		ni := &nm.threads[tid].insts[i]
		ni.decided = true
		ni.succ = writes
		ni.dataKnown = true
		ni.data = nv
		if writes {
			nm.note("T%d: i%d rmw write resolves to %d", tid, i, nv)
		} else {
			ni.state = iPerformed
			nm.note("T%d: i%d rmw cas comparison fails (no write)", tid, i)
		}
		emit(nm)
		return
	}
	if in.state == iPerformed || !in.succ {
		return
	}
	if !m.storeReady(tid, i) {
		return
	}
	// Atomicity (the §A.3 check, fused): no foreign write may have reached
	// the location since the read. A forwarded read anchors after the
	// source store's propagation point, a memory read at the history index
	// it read.
	from := in.resIdx + 1
	if in.fwdFrom >= 0 {
		from = t.insts[in.fwdFrom].propIdx + 1
	}
	for _, w := range m.mem.hist[in.addr][from:] {
		if w.tid != tid {
			return // reservation lost: this path cannot complete
		}
	}
	nm := m.cloneThread(tid, true)
	nm.mem.push(in.addr, in.data, tid)
	ni := &nm.threads[tid].insts[i]
	ni.state = iPerformed
	ni.propIdx = len(nm.mem.hist[in.addr]) - 1
	nm.stepAddr, nm.stepWrite, nm.stepRead = in.addr, true, true
	nm.note("T%d: i%d rmw [%d]=%d propagates", tid, i, in.addr, in.data)
	emit(nm)
}

// dependsOn reports whether some memory-touching transition thread j may
// take from this state is dependent with a step that read (r) and/or
// wrote (w) location a: the conservative footprint approximation of the
// independence pruning. Thread j's future memory accesses are
// over-approximated by its address-known unperformed loads (reads) and
// non-failed stores (writes; an exclusive's atomicity-check read is
// covered because a conflicting step must write the same location, which
// already collides with the store's write). Two steps are dependent when
// one writes a location the other reads or writes; all of a thread's
// enabledness conditions are thread-local, so foreign steps outside this
// footprint neither enable, disable nor retarget its transitions.
func (m *machine) dependsOn(j int, a lang.Loc, r, w bool) bool {
	t := m.threads[j]
	code := &m.cp.Threads[j]
	for i := range t.insts {
		in := &t.insts[i]
		if in.state == iPerformed || !in.addrKnown || in.addr != a {
			continue
		}
		switch in.kind {
		case lang.NLoad:
			if w {
				return true
			}
		case lang.NStore:
			if t.failedSX(code, i) {
				continue
			}
			if r || w {
				return true
			}
		case lang.NRMW:
			// An unperformed rmw has a pending write (or one whose cas
			// outcome is undecided), which collides with both reads and
			// writes of the location.
			if r || w {
				return true
			}
		}
	}
	return false
}

// boundExceeded reports that some thread ran past the loop bound.
func (m *machine) boundExceeded() bool {
	for _, t := range m.threads {
		if t.bound {
			return true
		}
	}
	return false
}

// done reports whether the machine is a completed final state.
func (m *machine) done() bool {
	for _, t := range m.threads {
		if t.bound || len(t.cont) > 0 {
			return false
		}
		for i := range t.insts {
			if t.insts[i].state != iPerformed {
				return false
			}
		}
	}
	return true
}
