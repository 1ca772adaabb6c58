package core

import (
	"sync"
	"sync/atomic"

	"promising/internal/lang"
)

// Certification (§4.3, §B).
//
// A thread configuration ⟨T, M⟩ is certified (r24) when the thread,
// executing alone and performing every new write as a normal write (promise
// immediately followed by fulfilment), can reach a state with no outstanding
// promises. find_and_certify additionally enumerates which fresh writes are
// legal promise steps: the writes performed on certifying traces whose
// pre-view ⊔ coherence view does not exceed the maximal timestamp of the
// pre-certification memory (§B, proved correct as Theorem 6.4).
//
// Certification is the dominant cost of promise-aware exploration. It
// runs as one sequential search over cloned thread/memory states, reached
// through two access paths:
//
//   - naive-shared: the machine explorers' (*CertCache).Certified and
//     FindAndCertify consult and fill an exploration-scoped,
//     concurrency-safe memo keyed by interned (thread × memory) state
//     handles. The same thread configuration recurs across all global
//     states that differ only in the other threads, so per-step
//     certification amortises to cache lookups. A nil cache runs the
//     same search call-scoped.
//   - call-scoped: CertifyAndComplete, the promise-first explorer's walk.
//     Phase-1 memories are deduplicated, so its calls are pairwise
//     distinct and no search state recurs across them; interior states
//     are memoised in a map that dies with the call. The walk also folds
//     the §7 phase-2 completion search in: the completions of a thread
//     under mem are exactly the certification search states that never
//     perform a new write, so one tree walk yields both the candidate
//     promises and the final register observations (and, on request,
//     each completion's step labels for witness traces).

// weakCertLeak, when set, deliberately weakens the certification check: a
// search state with exactly one outstanding promise counts as certified
// (and, in the unified walk, as a phase-2 completion). This is an injected
// semantics bug — it lets a thread "promise" a write it never performs, so
// the promise-aware backends admit out-of-thin-air outcomes the axiomatic
// and flat models (and the naive machine's Final check) reject. It exists
// only so the fuzz campaign's acceptance tests can prove the differential
// harness detects and shrinks a real certification soundness hole; nothing
// outside tests may enable it.
var weakCertLeak atomic.Bool

// SetWeakCertLeakForTesting toggles the injected certification bug and
// returns the previous setting. Test-only; see weakCertLeak. Callers must
// not share CertCaches (or verdict caches) across a toggle — entries
// computed under the leak are wrong.
func SetWeakCertLeakForTesting(on bool) bool { return weakCertLeak.Swap(on) }

// promisesDischarged is the certification termination check (r24: no
// outstanding promises), routed through the test-only leak.
func promisesDischarged(prom PromSet) bool {
	return len(prom) == 0 || weakCertLeak.Load() && len(prom) == 1
}

// CertResult is the outcome of a certification search.
type CertResult struct {
	// Certified reports whether a sequential execution fulfils all promises.
	Certified bool
	// Promises lists the distinct messages that are legal promise steps.
	Promises []Msg
	// Finals lists the thread's §7 phase-2 completions under the given
	// memory (CertifyAndComplete only): every complete execution — the
	// thread terminated with no outstanding promise — reachable without
	// performing any new write. Entries are not deduplicated.
	Finals []Completion
	// FinalsBound reports that some completion path ran past the loop
	// bound, so Finals may be incomplete.
	FinalsBound bool
	// Aborted reports that the search was cut short by the visit callback
	// returning false; all results are then unusable.
	Aborted bool
}

// Completion is one phase-2 completion of a thread.
type Completion struct {
	// Vals are the observed register values, in the caller's obs order.
	Vals []lang.Val
	// Trace holds the step labels of the completion path from the root
	// state (witness walks only; nil otherwise).
	Trace []Label
}

// certShards is the shard count of a CertCache (a power of two).
const certShards = 64

// CertCache is an exploration-scoped certification cache for the machine
// explorers. See the package comment above: entries are keyed by (thread
// id × interned thread-state handle × interned memory handle) and are
// exhaustive search results, never budget-truncated — exploration budgets
// (MaxStates, deadlines) never reach the certification search, so they
// are excluded from keys by construction.
//
// The search tree below a (thread, memory) state is independent of the
// pre-certification memory bound (baseTS): the step relation never
// consults it, and the §B view condition is deferred by recording each
// candidate write's minimal pre-view ⊔ coherence bound and filtering
// against the querying call's baseTS at the top level. Entries are
// therefore shared even between certifications with different
// pre-certification memories.
//
// Lifetime: one exploration of one compiled program. Thread encodings
// embed program-specific node indices, so a CertCache must not be reused
// across different compiled programs.
type CertCache struct {
	in     *Interner
	shards [certShards]certShard

	hits, misses atomic.Int64
}

type certShard struct {
	mu sync.Mutex
	m  map[certKey]certMemo
}

// certKey identifies a search state. The collect flag is deliberately NOT
// part of the key: a full (collecting) entry answers a reach-only query,
// and a reach-only entry is upgraded in place when a full search
// completes, so the Certified and FindAndCertify passes over the same
// configuration share one entry instead of two.
type certKey struct {
	// tid scopes the entry to one thread of the compiled program: thread
	// encodings embed continuation node indices, which index the owning
	// thread's code, so two threads with identical encodings (symmetric
	// tests) are still distinct search states.
	tid         int
	thread, mem Handle
}

// NewCertCache returns an empty cache with its own interner.
func NewCertCache() *CertCache {
	cc := &CertCache{in: NewInterner()}
	for i := range cc.shards {
		cc.shards[i].m = make(map[certKey]certMemo)
	}
	return cc
}

// CertStats is a point-in-time snapshot of cache performance.
type CertStats struct {
	// Hits and Misses count shared-cache lookups by certification searches
	// (per-call local memo hits are not counted).
	Hits, Misses int64
	// Entries is the number of cached search results.
	Entries int
}

// Stats snapshots the cache counters (zero for a nil cache).
func (cc *CertCache) Stats() CertStats {
	if cc == nil {
		return CertStats{}
	}
	s := CertStats{Hits: cc.hits.Load(), Misses: cc.misses.Load()}
	for i := range cc.shards {
		sh := &cc.shards[i]
		sh.mu.Lock()
		s.Entries += len(sh.m)
		sh.mu.Unlock()
	}
	return s
}

func (k certKey) hash() uint64 {
	return uint64(k.thread)*0x9E3779B97F4A7C15 ^ uint64(k.mem)*fnvPrime64 ^ uint64(k.tid)
}

// get returns the entry for k usable at the given collect level: a full
// entry serves any query, a reach-only entry (early-exited, no candidate
// writes) only reach-only ones.
func (cc *CertCache) get(k certKey, collect bool) (certMemo, bool) {
	sh := &cc.shards[k.hash()&(certShards-1)]
	sh.mu.Lock()
	m, ok := sh.m[k]
	sh.mu.Unlock()
	if ok && collect && !m.full {
		return certMemo{}, false
	}
	return m, ok
}

// put publishes a completed search result. Entries are immutable after
// publication (their writes maps are never mutated again), so readers may
// iterate them without holding the shard lock; a full entry replaces a
// reach-only one for the same key (the upgrade path), never the reverse.
func (cc *CertCache) put(k certKey, m certMemo) {
	sh := &cc.shards[k.hash()&(certShards-1)]
	sh.mu.Lock()
	if old, dup := sh.m[k]; !dup || (m.full && !old.full) {
		sh.m[k] = m
	}
	sh.mu.Unlock()
}

// Certified reports whether thread th is certified under mem (r24): a
// search that stops at the first certifying trace. Every interior search
// state is shared through the cache; a nil cache runs the search
// call-scoped. The inputs are not mutated.
func (cc *CertCache) Certified(env *Env, th *Thread, mem *Memory) bool {
	if len(th.TS.Prom) == 0 {
		return true
	}
	c := &certifier{env: env, baseTS: mem.MaxTS(), cc: cc}
	return c.run(th, mem).Certified
}

// FindAndCertify returns the legal promise steps of th under mem (§B),
// through the cache like Certified (nil: call-scoped). The configuration
// is assumed certified.
func (cc *CertCache) FindAndCertify(env *Env, th *Thread, mem *Memory) []Msg {
	c := &certifier{env: env, baseTS: mem.MaxTS(), collect: true, cc: cc}
	return c.run(th, mem).Promises
}

// CertifyAndComplete is the promise-first explorer's unified, call-scoped
// walk: it returns both the legal promise steps of th under mem and the
// thread's phase-2 completions, with the observed registers projected to
// obs. With witness set each completion also carries its step labels.
// visit, when non-nil, is called once per newly memoised
// completion-plane state (the states a phase-2 completion search would
// explore); returning false aborts the search.
func CertifyAndComplete(env *Env, th *Thread, mem *Memory, obs []lang.Reg, visit func() bool, witness bool) CertResult {
	c := &certifier{
		env:     env,
		baseTS:  mem.MaxTS(),
		collect: true,
		unified: true,
		witness: witness,
		obs:     obs,
		visit:   visit,
	}
	return c.run(th, mem)
}

// certMemo is the result of one certification search state. Once a memo is
// complete it is immutable; the shared cache hands the same memo to every
// worker.
type certMemo struct {
	reach bool
	// full marks an entry computed by a collecting (exhaustive) search;
	// entries from reach-only searches stop at the first certificate and
	// carry no writes, so they only answer reach-only queries (see
	// CertCache.get/put).
	full bool
	// writes maps each write performed on some certifying suffix from this
	// state to the minimal pre-view ⊔ coherence bound over those suffixes
	// (only tracked when collecting). Candidacy against a particular
	// pre-certification memory (preCoh <= baseTS, §B) is decided by the
	// querying call, keeping memos baseTS-independent.
	writes map[Msg]View
	// finals/fbound are the unified search's completion results from this
	// state (aggregated along non-write edges only).
	finals []Completion
	fbound bool
}

type certifier struct {
	env     *Env
	baseTS  Time
	collect bool
	// cc, when non-nil, shares every interior search state through the
	// cache (the naive-shared path); otherwise states stay in the
	// call-local memo.
	cc *CertCache
	// unified enables completion tracking (CertifyAndComplete), witness
	// the completions' step labels.
	unified bool
	witness bool
	obs     []lang.Reg
	visit   func() bool
	aborted bool
	// hmemo is the cached path's call-local memo, keyed by interned
	// handles; it doubles as the in-progress guard (states are marked
	// before their children are searched), which must stay call-local — a
	// shared placeholder would be read by other workers as a completed
	// "unreachable" result.
	hmemo map[[2]Handle]certMemo
	// memo is the call-scoped path's memo, keyed by the raw encoding
	// (thread ++ memory suffix above baseTS, which is constant within a
	// call).
	memo map[string]certMemo
}

// run clones the inputs, runs the search and assembles the result.
func (c *certifier) run(th *Thread, mem *Memory) CertResult {
	if c.cc != nil {
		c.hmemo = make(map[[2]Handle]certMemo)
	} else {
		c.memo = make(map[string]certMemo)
	}
	res := c.search(th.Clone(), mem.Clone(), c.internMem(mem), true)
	out := CertResult{Certified: res.reach}
	if c.aborted {
		out.Aborted = true
		return out
	}
	if c.collect {
		for w, preCoh := range res.writes {
			// The §B view condition, against this call's memory bound.
			if preCoh <= c.baseTS {
				out.Promises = append(out.Promises, w)
			}
		}
	}
	out.Finals = res.finals
	out.FinalsBound = res.fbound
	return out
}

// internMem returns mem's handle in the cache's interner (0 when the
// search is call-scoped).
func (c *certifier) internMem(mem *Memory) Handle {
	if c.cc == nil {
		return 0
	}
	buf := GetEncBuf()
	buf = EncodeMemory(buf, mem, 0)
	h, _ := c.cc.in.Intern(buf)
	PutEncBuf(buf)
	return h
}

// search explores the sequential executions of th (alone) under mem. It
// owns and mutates both arguments. hmem is mem's interned handle (cached
// runs only; non-write children reuse it, so each distinct memory is
// interned once per branch). plane reports that no new write has been
// performed on the path from the root, i.e. mem is still the root memory —
// the states whose complete executions are the thread's phase-2
// completions. It returns whether a prom = {} state is reachable, the
// candidate writes on certifying suffixes, and (unified) the completions.
func (c *certifier) search(th *Thread, mem *Memory, hmem Handle, plane bool) certMemo {
	if c.aborted {
		return certMemo{}
	}
	id := Advance(c.env, th)
	if th.TS.BoundExceeded {
		// Ran past the loop bound: cannot use this trace as a certificate,
		// and (on the completion plane) the completion set is incomplete.
		return certMemo{fbound: true}
	}
	done := promisesDischarged(th.TS.Prom)
	if done && !c.collect {
		return certMemo{reach: true}
	}
	if id < 0 {
		// Program finished. On the completion plane a promise-free final
		// state is one phase-2 completion: record its observation.
		m := certMemo{reach: done}
		if c.unified && plane && done {
			vals := make([]lang.Val, len(c.obs))
			for i, r := range c.obs {
				vals[i] = th.TS.Regs[r].Val
			}
			m.finals = []Completion{{Vals: vals}}
		}
		return m
	}

	var (
		lkey [2]Handle
		skey string
		ckey certKey
	)
	if c.cc != nil {
		buf := GetEncBuf()
		buf = EncodeThread(buf, th)
		hth, _ := c.cc.in.Intern(buf)
		PutEncBuf(buf)
		lkey = [2]Handle{hth, hmem}
		if m, ok := c.hmemo[lkey]; ok {
			return m
		}
		ckey = certKey{tid: c.env.TID, thread: hth, mem: hmem}
		if m, ok := c.cc.get(ckey, c.collect); ok {
			c.cc.hits.Add(1)
			c.hmemo[lkey] = m
			return m
		}
		c.cc.misses.Add(1)
		// Mark in-progress to cut cycles (none exist: programs are finite
		// and every step strictly consumes continuation nodes, but the
		// guard is cheap and protects against future extensions).
		c.hmemo[lkey] = certMemo{}
	} else {
		// String keys: for states that are unique across the run — the
		// promise-first case — a call-local string map beats global
		// interning, which would retain every encoding for the whole
		// exploration.
		buf := GetEncBuf()
		buf = EncodeMemory(EncodeThread(buf, th), mem, c.baseTS)
		skey = string(buf)
		PutEncBuf(buf)
		if m, ok := c.memo[skey]; ok {
			return m
		}
		c.memo[skey] = certMemo{}
	}
	if c.unified && plane && c.visit != nil {
		// One count per newly memoised completion-plane state.
		if !c.visit() {
			c.aborted = true
			return certMemo{}
		}
	}

	res := certMemo{reach: done, full: c.collect}
	n := &c.env.Code.Nodes[id]
	switch n.Kind {
	case lang.NLoad:
		for _, rc := range ReadChoices(c.env, th, id, mem) {
			child := th.Clone()
			lab := ApplyRead(c.env, child, id, mem, rc.TS)
			c.follow(&res, child, mem, hmem, plane, lab)
		}
	case lang.NStore:
		// Fulfil an outstanding promise.
		for _, t := range FulfilChoices(c.env, th, id, mem) {
			child := th.Clone()
			lab := ApplyFulfil(c.env, child, id, mem, t)
			c.follow(&res, child, mem, hmem, plane, lab)
		}
		// Perform a fresh (normal) write.
		child, childMem := th.Clone(), mem.Clone()
		if t, preCoh, ok := NormalWrite(c.env, child, id, childMem); ok {
			c.write(&res, child, childMem, childMem.At(t), preCoh)
		}
		// An exclusive store may fail.
		if n.Xcl {
			child := th.Clone()
			lab := ApplyXclFail(c.env, child, id)
			c.follow(&res, child, mem, hmem, plane, lab)
		}
	case lang.NRMW:
		for _, rc := range ReadChoices(c.env, th, id, mem) {
			// A CAS whose comparison fails is a read-only step.
			if _, writes := RMWWriteVal(th.TS, n, rc.Val); !writes {
				child := th.Clone()
				lab := ApplyRMWNoWrite(c.env, child, id, mem, rc.TS)
				c.follow(&res, child, mem, hmem, plane, lab)
				continue
			}
			// Fulfil an outstanding promise.
			for _, tw := range RMWFulfilChoices(c.env, th, id, mem, rc.TS) {
				child := th.Clone()
				lab := ApplyRMW(c.env, child, id, mem, rc.TS, tw)
				c.follow(&res, child, mem, hmem, plane, lab)
			}
			// Perform the write as a fresh (normal) write.
			child, childMem := th.Clone(), mem.Clone()
			if t, preCoh, ok := RMWNormalWrite(c.env, child, id, childMem, rc.TS); ok {
				c.write(&res, child, childMem, childMem.At(t), preCoh)
			}
		}
	default:
		panic("core: Advance stopped on a non-memory node")
	}
	if c.aborted {
		return certMemo{}
	}
	if c.cc != nil {
		c.hmemo[lkey] = res
		c.cc.put(ckey, res)
	} else {
		c.memo[skey] = res
	}
	return res
}

// follow searches a child reached by a step that performs no new write,
// so it runs under the same memory and stays on (or off) the completion
// plane with its parent, and folds it into res. Completions propagate
// only on the plane, each prefixed with the edge's label lab when
// collecting witnesses.
func (c *certifier) follow(res *certMemo, child *Thread, mem *Memory, hmem Handle, plane bool, lab Label) {
	m := c.search(child, mem, hmem, plane)
	if c.unified && plane {
		if c.witness {
			for _, f := range m.finals {
				res.finals = append(res.finals, Completion{Vals: f.Vals, Trace: append([]Label{lab}, f.Trace...)})
			}
		} else {
			res.finals = append(res.finals, m.finals...)
		}
		res.fbound = res.fbound || m.fbound
	}
	c.absorb(res, m)
}

// write searches the child of fresh write w, performed at pre-view ⊔
// coherence bound preCoh. The child leaves the completion plane (its path
// is no execution under the root memory), and w becomes a candidate
// promise provided the child certifies (the §B view condition
// preCoh <= baseTS is applied by run).
func (c *certifier) write(res *certMemo, child *Thread, childMem *Memory, w Msg, preCoh View) {
	m := c.search(child, childMem, c.internMem(childMem), false)
	if m.reach && c.collect {
		res.addWrite(w, preCoh)
	}
	c.absorb(res, m)
}

// absorb folds a child's reachability and candidate writes into res.
func (c *certifier) absorb(res *certMemo, m certMemo) {
	if !m.reach {
		return
	}
	res.reach = true
	if !c.collect {
		return
	}
	for w, pc := range m.writes {
		res.addWrite(w, pc)
	}
}

// addWrite records w with the minimal pre-view bound seen so far (the
// map is allocated lazily: most search states never see a candidate).
func (m *certMemo) addWrite(w Msg, preCoh View) {
	if m.writes == nil {
		m.writes = make(map[Msg]View)
	} else if old, ok := m.writes[w]; ok && old <= preCoh {
		return
	}
	m.writes[w] = preCoh
}
