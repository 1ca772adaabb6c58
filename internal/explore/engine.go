package explore

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"promising/internal/core"
	"promising/internal/obs"
)

// The parallel exploration engine. Every exhaustive backend (naive,
// promise-first, flat, axiomatic) is a Process callback over its own state
// type, driven by the same work-stealing worker pool:
//
//   - Each worker runs depth-first on a private, unlocked stack and spills
//     batches of its oldest states to the shared Frontier as the stack
//     grows. Idle workers steal the oldest half of the richest shared
//     stack (work nearest the root splits into the largest subtrees, the
//     classic stealing order), so the shared lock sits off the per-state
//     hot path.
//   - Deduplication happens before Push via a seenSet, which interns the
//     canonical state encoding through a sharded core.Interner, so no state
//     is ever processed twice, each encoding is stored once for the whole
//     run, and counters stay deterministic under any schedule.
//   - Each worker accumulates into a private Result; the results are merged
//     after the pool drains. Outcome sets, States and DeadEnds are
//     therefore independent of the schedule; only which witness trace is
//     recorded per outcome may vary between runs.
//
// Options.Parallelism picks the worker count; 1 reduces to the plain
// sequential depth-first loop the seed explorers used.

// seenSet is a concurrent set of canonical state encodings backed by a
// core.Interner: adding a state interns its encoding, so the set's keys
// are dense 64-bit handles, each distinct encoding is copied exactly once
// per run, and the handle identifies the state to the remote dedup hook
// (sharding inside the interner keeps parallel workers off one lock).
// Under independence pruning each entry also holds the state's family
// claims (Arrive), so the set is the run's only per-state table.
type seenSet struct {
	in *core.Interner
	// base is the import high-water cursor: the set size right after
	// Import rebuilt the previous leg's contents. ExportDelta exports only
	// the entries interned past it, which is what makes delta snapshots
	// O(new states).
	base int
}

// newSeenSet returns an empty set.
func newSeenSet() *seenSet { return &seenSet{in: core.NewInterner()} }

// Add interns the encoded state, reporting its handle and whether it was
// absent. The check-and-insert is atomic: exactly one caller wins any race
// on the same encoding. The bytes are copied on first sight, so the caller
// may recycle b (core.GetEncBuf/PutEncBuf).
func (s *seenSet) Add(b []byte) (core.Handle, bool) { return s.in.Intern(b) }

// Arrive records one arrival at a state under independence pruning: it
// adds the encoded state and claims the families in want (canonical
// frame) there, atomically. It returns the state's handle, the newly
// claimed families — each family is claimed once per state per leg, which
// keeps re-arrivals with different sleep sets from re-expanding covered
// families — and whether this arrival counts the state: the first claim
// on a state new to this leg (its handle lies past the imported set).
// Claims start empty in each leg, so an earlier leg's state can be claimed
// again but is counted by nobody.
func (s *seenSet) Arrive(b []byte, want uint32) (h core.Handle, newly uint32, count bool) {
	h, newly, first := s.in.Claim(b, want)
	return h, newly, first && int(h) > s.base
}

// Len returns the number of states in the set.
func (s *seenSet) Len() int { return s.in.Len() }

// Export returns a copy of every encoding in the set (for snapshots); the
// order is unspecified, Snapshot.Marshal canonicalizes.
func (s *seenSet) Export() [][]byte { return s.in.Export() }

// Import adds every encoding in entries to the set, rebuilding a set
// exported from a snapshot, and records the import high-water cursor for
// ExportDelta.
func (s *seenSet) Import(entries [][]byte) {
	s.in.Import(entries)
	s.base = s.in.Len()
}

// Base returns the number of entries the set held right after Import —
// the cursor a delta snapshot's BaseSeen field records.
func (s *seenSet) Base() int { return s.base }

// ExportDelta returns a copy of only the encodings added since Import
// (all of them when the set was never imported into). Order is
// unspecified, like Export's.
func (s *seenSet) ExportDelta() [][]byte { return s.in.ExportSince(s.base) }

// Checkpoint is the cooperative-checkpoint controller of one engine run.
// Request makes every worker stop at its next safe point (the boundary
// between two Process calls), return its private unprocessed work to the
// shared frontier, and exit; Run then returns the drained frontier as the
// pending state set alongside the partial Result. Unlike an abort, no
// pending work is dropped — the pending states plus the partial result are
// exactly an exploration paused mid-flight, which Resume continues
// byte-identically.
//
// The zero latency cost rides on the checks the work loop already does
// per state (one extra atomic load next to the existing abort check); a
// worker deep inside one Process call finishes that state first, so
// checkpoint latency is bounded by the cost of a single state.
type Checkpoint struct {
	// afterStates, when positive, auto-requests the checkpoint once the
	// run's global distinct-state count reaches it (the widening trigger
	// snapshot sharding uses). Checked on the Visit path.
	afterStates int64
	requested   atomic.Bool
}

// NewCheckpoint returns a controller that fires only on Request.
func NewCheckpoint() *Checkpoint { return &Checkpoint{} }

// NewCheckpointAfter returns a controller that fires automatically once
// the exploration has counted n states (and still honours an earlier
// explicit Request).
func NewCheckpointAfter(n int) *Checkpoint { return &Checkpoint{afterStates: int64(n)} }

// Request asks the running exploration to checkpoint at its next safe
// point. Idempotent and safe from any goroutine.
func (c *Checkpoint) Request() { c.requested.Store(true) }

// Requested reports whether the checkpoint has fired.
func (c *Checkpoint) Requested() bool { return c.requested.Load() }

// Frontier is the engine's shared work pool: per-worker LIFO stacks with
// steal-half rebalancing and quiescence detection (the pool is drained when
// every stack is empty and no worker is mid-Process). Workers mostly run on
// private unlocked stacks and only spill batches here (see Engine.Run), so
// the shared lock is touched once per batch, not once per state.
type Frontier[S any] struct {
	mu      sync.Mutex
	cond    *sync.Cond
	stacks  [][]S
	busy    int
	waiting int
	stopped bool
	// draining makes Pop return false while leaving the stacks intact, so
	// a checkpoint can collect them after the workers exit (Stop, by
	// contrast, abandons pending work).
	draining bool
}

// NewFrontier returns a frontier for the given worker count.
func NewFrontier[S any](workers int) *Frontier[S] {
	f := &Frontier[S]{stacks: make([][]S, workers)}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// Spill publishes a batch of states from worker w's private stack. The
// batch is the oldest (root-nearest) work, which splits into the largest
// subtrees for stealers.
func (f *Frontier[S]) Spill(w int, batch []S) {
	f.mu.Lock()
	f.stacks[w] = append(f.stacks[w], batch...)
	idle := f.waiting > 0
	f.mu.Unlock()
	if idle {
		f.cond.Broadcast()
	}
}

// Pop returns the next state for worker w, blocking while the pool is
// neither drained nor stopped. The second result is false when the worker
// should exit.
func (f *Frontier[S]) Pop(w int) (S, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.stopped || f.draining {
			break
		}
		if s, ok := f.take(w); ok {
			f.busy++
			return s, true
		}
		if f.busy == 0 {
			break
		}
		f.waiting++
		f.cond.Wait()
		f.waiting--
	}
	f.cond.Broadcast()
	var zero S
	return zero, false
}

// Done marks worker w's current state finished; the matching Pop
// incremented busy.
func (f *Frontier[S]) Done() {
	f.mu.Lock()
	f.busy--
	drained := f.busy == 0
	f.mu.Unlock()
	if drained {
		f.cond.Broadcast()
	}
}

// Stop aborts the pool: pending states are dropped and workers exit.
func (f *Frontier[S]) Stop() {
	f.mu.Lock()
	f.stopped = true
	f.mu.Unlock()
	f.cond.Broadcast()
}

// Drain makes workers exit at their next Pop while keeping the pending
// stacks intact for checkpoint collection.
func (f *Frontier[S]) Drain() {
	f.mu.Lock()
	f.draining = true
	f.mu.Unlock()
	f.cond.Broadcast()
}

// Size returns the number of states currently pending on the shared
// stacks (private worker stacks excluded — an approximate depth, which
// is all the stats sampler needs). Called at most once per sample
// interval, so the lock stays off the hot path.
func (f *Frontier[S]) Size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, st := range f.stacks {
		n += len(st)
	}
	return n
}

// take pops from w's own stack, stealing half of the richest victim first
// when it is empty. Callers hold f.mu.
func (f *Frontier[S]) take(w int) (S, bool) {
	if st := f.stacks[w]; len(st) > 0 {
		s := st[len(st)-1]
		f.stacks[w] = st[:len(st)-1]
		return s, true
	}
	victim, best := -1, 0
	for i, st := range f.stacks {
		if len(st) > best {
			victim, best = i, len(st)
		}
	}
	if victim < 0 {
		var zero S
		return zero, false
	}
	vs := f.stacks[victim]
	n := (len(vs) + 1) / 2
	f.stacks[w] = append(f.stacks[w], vs[:n]...)
	copy(vs, vs[n:])
	f.stacks[victim] = vs[:len(vs)-n]
	return f.take(w)
}

// Engine drives a Process callback over a frontier of states with
// Options.Parallelism workers.
type Engine[S any] struct {
	// Process handles one state: record outcomes and counters on c.Res,
	// budget-check with c.Visit, and push newly discovered (deduplicated)
	// states with c.Push.
	Process func(s S, c *Ctx[S])

	// ck is the in-flight run's checkpoint controller (Options.Checkpoint,
	// or a private one), published so Engine.Checkpoint works mid-run.
	ck atomic.Pointer[Checkpoint]
}

// Checkpoint requests a cooperative checkpoint of the in-flight Run: at
// the next safe point the workers drain their pending work and Run
// returns it (see Checkpoint the type). A no-op when no Run is active.
func (e *Engine[S]) Checkpoint() {
	if c := e.ck.Load(); c != nil {
		c.Request()
	}
}

// pollStride is how many Alive checks a worker skips between budget
// polls: time.Now and context.Context.Err are not free (Err takes the
// context's mutex, shared by every worker), so they stay off the per-state
// hot path. The first check of each worker always polls, so a pre-expired
// budget is detected before any state is explored; after that, detection
// lags by at most pollStride states per worker.
const pollStride = 64

// Ctx is the per-worker context handed to Process.
type Ctx[S any] struct {
	// Res is the worker-local result; merged deterministically after the
	// pool drains.
	Res *Result

	run *engineRun
	// poll counts down Alive checks until the next budget poll.
	poll int
	// local is the worker's private LIFO stack: pushes land here without
	// locking, and batches of the oldest work spill to the shared frontier
	// when the stack grows (Engine.Run's work loop).
	local []S
	spill bool
	// scratch is the Process callback's per-worker state, created on its
	// first call in this worker (the interleaving driver keeps its
	// expansion buffers here).
	scratch any
}

// engineRun is the state shared by all workers of one Run.
type engineRun struct {
	opts     *Options
	ck       *Checkpoint
	states   atomic.Int64
	aborted  atomic.Bool
	timedOut atomic.Bool
	stop     func()
	// frontierLen reports the shared frontier's pending depth for stats
	// sampling (set alongside stop in run).
	frontierLen func() int
}

// sample publishes one in-flight StatsSnapshot through opts.Sampler.
// Called from the pollStride path while the sampler is active (rate-
// limited by Due, which elects one publisher among concurrent workers),
// and once unconditionally when the run ends (final), so even a run
// faster than the sample interval yields a closing snapshot.
func (r *engineRun) sample(sm *obs.Sampler, final bool) {
	now := time.Now()
	if !final && !sm.Due(now) {
		return
	}
	snap := obs.StatsSnapshot{
		States:    r.states.Load(),
		Frontier:  r.frontierLen(),
		MaxStates: r.opts.MaxStates,
		Final:     final,
	}
	if pr := r.opts.StatsProbe; pr != nil {
		pr(&snap)
	}
	if d := r.opts.Deadline; !d.IsZero() {
		if left := d.Sub(now); left > 0 {
			snap.BudgetMS = left.Milliseconds()
		}
	}
	sm.Publish(now, snap)
}

// ckptNow reports that a checkpoint has been requested; checked per state
// in the work loop, next to the abort check.
func (r *engineRun) ckptNow() bool { return r.ck.requested.Load() }

// Push schedules a newly discovered state on the worker's private stack.
func (c *Ctx[S]) Push(s S) { c.local = append(c.local, s) }

// Alive reports whether the run is still within budget, aborting it when
// the deadline has passed or the run's context has been cancelled. Process
// callbacks deep in recursion use it to unwind promptly after an abort.
func (c *Ctx[S]) Alive() bool {
	if c.run.aborted.Load() {
		return false
	}
	if c.poll > 0 {
		c.poll--
		return true
	}
	c.poll = pollStride - 1
	if c.run.opts.expired() {
		c.run.timedOut.Store(true)
		c.Abort()
		return false
	}
	// In-flight stats ride the same stride: Active is a nil check (plus
	// one gate load when a sampler is configured), and sample itself is
	// rate-limited to the sampler's interval.
	if sm := c.run.opts.Sampler; sm.Active() {
		c.run.sample(sm, false)
	}
	return true
}

// Visit counts n newly explored states against the budget, returning false
// once MaxStates or the deadline stops the run.
func (c *Ctx[S]) Visit(n int) bool {
	if !c.Alive() {
		return false
	}
	if max := c.run.opts.MaxStates; max > 0 && int(c.run.states.Load()) >= max {
		c.Abort()
		return false
	}
	total := c.run.states.Add(int64(n))
	c.Res.States += n
	if after := c.run.ck.afterStates; after > 0 && total >= after {
		c.run.ck.Request()
	}
	return true
}

// Abort stops the run early; the merged result is marked Aborted.
func (c *Ctx[S]) Abort() {
	c.run.aborted.Store(true)
	c.run.stop()
}

// Run processes roots and everything they transitively Push, then returns
// the merged result. The second return value is the pending frontier when
// a checkpoint stopped the run at a safe point (Options.Checkpoint or
// Engine.Checkpoint): the unprocessed states, in worker-stack order, that
// together with the partial Result continue the exploration byte-
// identically. It is nil when the run completed or was aborted (an abort
// drops pending work, exactly as before).
func (e *Engine[S]) Run(roots []S, opts *Options) (*Result, []S) {
	return e.run(roots, opts, 0)
}

// ResumeRun is Run with the global distinct-state counter seeded at
// visited, so a resumed exploration enforces Options.MaxStates against
// the whole logical run rather than the current leg.
func (e *Engine[S]) ResumeRun(roots []S, opts *Options, visited int) (*Result, []S) {
	return e.run(roots, opts, int64(visited))
}

func (e *Engine[S]) run(roots []S, opts *Options, visited int64) (*Result, []S) {
	workers := opts.Workers()
	f := NewFrontier[S](workers)
	for i, s := range roots {
		f.stacks[i%workers] = append(f.stacks[i%workers], s)
	}
	ck := opts.Checkpoint
	if ck == nil {
		ck = NewCheckpoint()
	}
	run := &engineRun{opts: opts, ck: ck, stop: func() { f.Stop() }, frontierLen: f.Size}
	run.states.Store(visited)
	e.ck.Store(ck)
	defer e.ck.Store(nil)

	// spillChunk is the batch size for publishing private work to the
	// shared frontier: large enough that the shared lock is off the per-
	// state hot path, small enough that idle workers are fed promptly.
	const spillChunk = 32

	results := make([]*Result, workers)
	work := func(w int) {
		c := &Ctx[S]{Res: newResult(), run: run, spill: workers > 1}
		results[w] = c.Res
		for {
			s, ok := f.Pop(w)
			if !ok {
				return
			}
			c.local = append(c.local[:0], s)
			for len(c.local) > 0 && !run.aborted.Load() && !run.ckptNow() {
				n := len(c.local) - 1
				s := c.local[n]
				c.local = c.local[:n]
				e.Process(s, c)
				if c.spill && len(c.local) > 2*spillChunk {
					f.Spill(w, c.local[:spillChunk])
					c.local = append(c.local[:0], c.local[spillChunk:]...)
				}
			}
			if run.ckptNow() && !run.aborted.Load() {
				// Safe point: the popped state either completed (its
				// successors sit on the private stack) or never started;
				// hand everything back to the frontier for collection.
				f.Drain()
				if len(c.local) > 0 {
					f.Spill(w, c.local)
					c.local = c.local[:0]
				}
			}
			f.Done()
		}
	}
	if workers == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				work(w)
			}(w)
		}
		wg.Wait()
	}

	res := newResult()
	for _, r := range results {
		res.merge(r)
	}
	if run.aborted.Load() {
		res.Aborted = true
	}
	if run.timedOut.Load() {
		res.TimedOut = true
	}
	if sm := opts.Sampler; sm.Active() {
		run.sample(sm, true)
	}
	// Collect the drained frontier. An aborted run keeps the pre-existing
	// semantics (pending work is dropped); a completed run has an empty
	// frontier, which callers read as "no snapshot needed".
	var pending []S
	if run.ckptNow() && !run.aborted.Load() {
		for _, st := range f.stacks {
			pending = append(pending, st...)
		}
	}
	return res, pending
}

// Workers resolves Options.Parallelism to a worker count: 0 and 1 run
// sequentially, n > 1 runs n workers, negative values use GOMAXPROCS.
func (o *Options) Workers() int {
	switch {
	case o.Parallelism < 0:
		return runtime.GOMAXPROCS(0)
	case o.Parallelism <= 1:
		return 1
	default:
		return o.Parallelism
	}
}

// merge folds a worker-local result into r: outcome-set union (the first
// recorded witness per outcome wins), counters add, flags or.
func (r *Result) merge(o *Result) {
	for k, v := range o.Outcomes {
		if _, ok := r.Outcomes[k]; !ok {
			r.Outcomes[k] = v
			if w, ok := o.Witnesses[k]; ok {
				r.Witnesses[k] = w
			}
		}
	}
	r.States += o.States
	r.DeadEnds += o.DeadEnds
	r.BoundExceeded = r.BoundExceeded || o.BoundExceeded
	r.Aborted = r.Aborted || o.Aborted
	r.TimedOut = r.TimedOut || o.TimedOut
}
