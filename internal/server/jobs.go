package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"promising/internal/explore"
	"promising/internal/fuzz"
	"promising/internal/litmus"
	"promising/internal/obs"
)

// A batch job: Tests × Backends cells on the shared worker pool. The job
// owns a context derived from the server's lifetime context; canceling it
// (DELETE /v1/jobs/{id}, or server shutdown) aborts the in-flight
// explorations through explore.Options.Ctx and skips the cells that have
// not started.
type job struct {
	id     string
	kind   string // "batch" or "fuzz"
	ctx    context.Context
	cancel context.CancelFunc
	start  time.Time

	// resumed marks a job re-enqueued from the state store after a
	// restart; ckptAge is how old its newest cell checkpoint was at
	// recovery time.
	resumed bool
	ckptAge time.Duration
	// userCanceled distinguishes DELETE /v1/jobs/{id} from a server-
	// shutdown cancellation: only the former deletes the job's durable
	// state (a shutdown must leave it resumable).
	userCanceled atomic.Bool

	// tracer collects the job's typed stage events (compile → explore →
	// checkpoint → certify-summary → merge, fuzz campaign stages); its
	// onEmit broadcasts each event to SSE subscribers as Kind "stage".
	// Immutable after construction, internally synchronized.
	tracer *obs.Tracer
	// watchers counts live event subscribers; the cells' stats samplers
	// gate on it, so in-flight sampling costs nothing while nobody looks.
	watchers atomic.Int64

	mu    sync.Mutex
	state JobState
	// final is the terminal state fixed by seal, published by finish.
	final     JobState
	total     int
	completed int
	cacheHits int
	reports   []*TestReport
	// fz is the campaign's latest progress snapshot (fuzz jobs only);
	// updateFuzz replaces it wholesale.
	fz      *FuzzStatus
	elapsed time.Duration // fixed at the terminal transition
	subs    map[chan JobEvent]*jobSub
	// samplers holds one stats sampler per cell that ever ran (keyed by
	// cell index); status() accumulates their latest snapshots into
	// JobStatus.Stats.
	samplers map[int]*obs.Sampler
	// shardStates is a cluster job's live shard map (which peer runs
	// which attempt, sampled progress); replaced wholesale by setShards.
	shardStates []ShardState
}

// newTracer wires the job's tracer: every stage event is broadcast live.
// Lock order: the tracer's onEmit runs under the tracer mutex and takes
// j.mu — so nothing may call into the tracer while holding j.mu (status()
// reads the summary outside the lock for this reason).
func (j *job) newTracer() *obs.Tracer {
	return obs.NewTracer(0, func(ev obs.StageEvent) {
		j.mu.Lock()
		defer j.mu.Unlock()
		j.broadcastLocked(JobEvent{
			JobID: j.id, Kind: EventStage, State: j.state, Cell: ev.Cell,
			Completed: j.completed, Total: j.total, Stage: &ev,
		})
	})
}

// cellSampler creates (and registers) the stats sampler for one cell: it
// publishes only while the job has event subscribers, and every published
// snapshot is broadcast as Kind "stats". The same publication path mirrors
// the tracer's lock order: sampler mutex, then j.mu.
func (j *job) cellSampler(cell int, interval time.Duration) *obs.Sampler {
	sm := obs.NewSampler(interval)
	sm.Gate(func() bool { return j.watchers.Load() > 0 })
	sm.OnPublish(func(snap obs.StatsSnapshot) {
		j.mu.Lock()
		defer j.mu.Unlock()
		j.broadcastLocked(JobEvent{
			JobID: j.id, Kind: EventStats, State: j.state, Cell: cell,
			Completed: j.completed, Total: j.total, Stats: &snap,
		})
	})
	j.mu.Lock()
	j.samplers[cell] = sm
	j.mu.Unlock()
	return sm
}

// jobSub is one event subscriber's state; dropped is set when the
// subscriber fell behind and its channel was closed with events lost.
type jobSub struct {
	dropped bool
}

// stateNow reads the job's state without snapshotting the reports.
func (j *job) stateNow() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// status snapshots the job. Reports aliases the live slice's backing array
// only for completed entries, which are immutable once set. The tracing
// summary and accumulated stats are read outside j.mu: the tracer and
// samplers deliver events under their own locks *then* take j.mu, so
// touching them while holding j.mu would invert that order.
func (j *job) status() JobStatus {
	j.mu.Lock()
	st := j.statusLocked()
	samplers := make([]*obs.Sampler, 0, len(j.samplers))
	for _, sm := range j.samplers {
		samplers = append(samplers, sm)
	}
	j.mu.Unlock()
	st.Trace = j.tracer.Summary()
	if len(samplers) > 0 {
		agg := &obs.StatsSnapshot{}
		for _, sm := range samplers {
			agg.Accumulate(sm.Latest())
		}
		if agg.Seq > 0 {
			st.Stats = agg
		}
	}
	return st
}

func (j *job) statusLocked() JobStatus {
	el := j.elapsed
	if j.state == JobRunning {
		el = time.Since(j.start)
	}
	st := JobStatus{
		ID:                    j.id,
		Kind:                  j.kind,
		State:                 j.state,
		Total:                 j.total,
		Completed:             j.completed,
		CacheHits:             j.cacheHits,
		Fuzz:                  j.fz,
		ElapsedMS:             el.Milliseconds(),
		ResumedFromCheckpoint: j.resumed,
		CheckpointAgeMS:       j.ckptAge.Milliseconds(),
	}
	if j.kind != jobKindFuzz {
		st.Reports = make([]*TestReport, len(j.reports))
		copy(st.Reports, j.reports)
	}
	if len(j.shardStates) > 0 {
		st.Shards = append([]ShardState(nil), j.shardStates...)
	}
	return st
}

// subscribe atomically snapshots progress and registers a live event
// channel, so the caller can replay the snapshot and then follow events
// with no gap and no duplicates. The channel is closed when the job
// reaches a terminal state, or when the subscriber falls too far behind
// — the returned dropped func distinguishes the two after the close.
func (j *job) subscribe() (JobStatus, <-chan JobEvent, func() bool, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.statusLocked()
	if j.state != JobRunning {
		ch := make(chan JobEvent)
		close(ch)
		return st, ch, func() bool { return false }, func() {}
	}
	ch := make(chan JobEvent, 256)
	sub := &jobSub{}
	j.subs[ch] = sub
	j.watchers.Add(1)
	var once sync.Once
	dropped := func() bool {
		j.mu.Lock()
		defer j.mu.Unlock()
		return sub.dropped
	}
	return st, ch, dropped, func() {
		once.Do(func() { j.watchers.Add(-1) })
		j.mu.Lock()
		defer j.mu.Unlock()
		delete(j.subs, ch)
	}
}

// record stores a completed cell and notifies subscribers.
func (j *job) record(cell int, tr TestReport) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.reports[cell] != nil {
		return
	}
	j.reports[cell] = &tr
	j.completed++
	if tr.Cached {
		j.cacheHits++
	}
	j.broadcastLocked(JobEvent{
		JobID: j.id, Kind: EventCell, State: j.state, Cell: cell,
		Completed: j.completed, Total: j.total, Report: &tr,
	})
	if infos := witnessInfos(cell, &tr); len(infos) > 0 {
		j.broadcastLocked(JobEvent{
			JobID: j.id, Kind: EventWitness, State: j.state, Cell: cell,
			Completed: j.completed, Total: j.total, Witnesses: infos,
		})
	}
}

// sealLocked fixes the terminal state and elapsed time, once.
func (j *job) sealLocked() {
	if j.final != "" {
		return
	}
	j.final = JobDone
	if j.ctx.Err() != nil {
		j.final = JobCanceled
	}
	j.elapsed = time.Since(j.start)
}

// seal fixes the job's terminal state and returns its final status
// document without publishing it: pollers and subscribers still see the
// job running until finish.
func (j *job) seal() JobStatus {
	j.mu.Lock()
	j.sealLocked()
	final, elapsed := j.final, j.elapsed
	j.mu.Unlock()
	st := j.status()
	st.State = final
	st.ElapsedMS = elapsed.Milliseconds()
	return st
}

// finish publishes the job's terminal state (sealing it first if nothing
// did) and closes every subscriber.
func (j *job) finish() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobRunning {
		return
	}
	j.sealLocked()
	j.state = j.final
	for ch := range j.subs {
		close(ch)
	}
	j.subs = map[chan JobEvent]*jobSub{}
}

// broadcastLocked sends without blocking; a subscriber that cannot keep up
// is dropped (flagged, its channel closed) rather than stalling the
// workers.
func (j *job) broadcastLocked(ev JobEvent) {
	for ch, sub := range j.subs {
		select {
		case ch <- ev:
		default:
			sub.dropped = true
			close(ch)
			delete(j.subs, ch)
		}
	}
}

// jobTable registers jobs by id, keeping a bounded history of finished
// ones.
type jobTable struct {
	mu    sync.Mutex
	jobs  map[string]*job
	order []string // creation order, for pruning
	made  int64
}

// keepJobs bounds the table: beyond it, the oldest *finished* jobs are
// forgotten.
const keepJobs = 256

func newJobTable() *jobTable {
	return &jobTable{jobs: make(map[string]*job)}
}

func (t *jobTable) add(j *job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs[j.id] = j
	t.order = append(t.order, j.id)
	t.made++
	for len(t.jobs) > keepJobs {
		pruned := false
		for i, id := range t.order {
			if old, ok := t.jobs[id]; ok && old.stateNow() != JobRunning {
				delete(t.jobs, id)
				t.order = append(t.order[:i], t.order[i+1:]...)
				pruned = true
				break
			}
		}
		if !pruned {
			break // everything is still running; let the table grow
		}
	}
}

func (t *jobTable) get(id string) (*job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

func (t *jobTable) active() int {
	t.mu.Lock()
	ids := make([]*job, 0, len(t.jobs))
	for _, j := range t.jobs {
		ids = append(ids, j)
	}
	t.mu.Unlock()
	n := 0
	for _, j := range ids {
		if j.stateNow() == JobRunning {
			n++
		}
	}
	return n
}

func (t *jobTable) created() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.made
}

// list summarises every remembered job, oldest first (the /v1/stats job
// table the dashboard renders).
func (t *jobTable) list() []JobSummary {
	t.mu.Lock()
	jobs := make([]*job, 0, len(t.order))
	for _, id := range t.order {
		if j, ok := t.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	t.mu.Unlock()
	out := make([]JobSummary, 0, len(jobs))
	for _, j := range jobs {
		j.mu.Lock()
		el := j.elapsed
		if j.state == JobRunning {
			el = time.Since(j.start)
		}
		out = append(out, JobSummary{
			ID: j.id, Kind: j.kind, State: j.state,
			Total: j.total, Completed: j.completed, ElapsedMS: el.Milliseconds(),
		})
		j.mu.Unlock()
	}
	return out
}

func newJobID() string {
	var b [8]byte
	rand.Read(b[:])
	return "job-" + hex.EncodeToString(b[:])
}

// Job kinds.
const (
	jobKindBatch   = "batch"
	jobKindFuzz    = "fuzz"
	jobKindCluster = "cluster"
)

// setShards replaces a cluster job's live shard map and notifies
// subscribers (Cell -1: a progress event, like fuzz updates).
func (j *job) setShards(states []ShardState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.shardStates = states
	j.broadcastLocked(JobEvent{
		JobID: j.id, Kind: EventShards, State: j.state, Cell: -1,
		Completed: j.completed, Total: j.total, Shards: states,
	})
}

// updateFuzz replaces a fuzz job's progress snapshot and notifies
// subscribers (Cell -1: a progress event, not a cell completion).
func (j *job) updateFuzz(st FuzzStatus) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.fz = &st
	j.completed = st.Iterations
	j.broadcastLocked(JobEvent{
		JobID: j.id, Kind: EventFuzz, State: j.state, Cell: -1,
		Completed: j.completed, Total: j.total, Fuzz: &st,
	})
}

// startFuzzJob runs a fuzzing campaign as a job: candidates run on the
// shared worker pool (cfg.Acquire gates each one on the exploration
// semaphore), progress streams to subscribers, and cancellation aborts the
// campaign through the job context.
func (s *Server) startFuzzJob(cfg fuzz.Config) *job {
	ctx, cancel := context.WithCancel(s.base)
	j := &job{
		id:       newJobID(),
		kind:     jobKindFuzz,
		ctx:      ctx,
		cancel:   cancel,
		start:    time.Now(),
		state:    JobRunning,
		total:    cfg.Iterations,
		subs:     map[chan JobEvent]*jobSub{},
		samplers: map[int]*obs.Sampler{},
	}
	j.tracer = j.newTracer()
	cfg.Trace = j.tracer.Scope(-1, "fuzz")
	s.jobs.add(j)

	// The campaign's acquire context derives from the job's, so a
	// canceled job stops waiting for slots too.
	cfg.Acquire = s.acquire
	// Progress feeds both the job's subscribers and the daemon counters
	// (deltas against the previous snapshot, so totals stay monotonic
	// across concurrent campaigns).
	var prev fuzz.Progress
	var prevMu sync.Mutex
	cfg.Progress = func(p fuzz.Progress) {
		prevMu.Lock()
		s.fuzzIters.Add(int64(p.Iterations - prev.Iterations))
		s.fuzzFindings.Add(int64(p.Findings - prev.Findings))
		prev = p
		prevMu.Unlock()
		s.fuzzCorpus.Store(int64(p.CorpusSize))
		j.updateFuzz(FuzzStatus{Progress: p})
	}
	// The caller (handleFuzz) reserved the campaign slot by incrementing
	// fuzzActive; this goroutine owns the release.
	s.fuzzCampaigns.Add(1)
	go func() {
		defer s.fuzzActive.Add(-1)
		sum, err := fuzz.Run(ctx, cfg)
		final := FuzzStatus{}
		if sum != nil {
			// Mid-campaign failures still carry the summary (with any
			// findings computed before the abort).
			final.Progress = sum.Progress
			final.Findings = sum.Findings
		}
		if err != nil {
			if sum == nil {
				// Startup failure: keep the last streamed counters rather
				// than zeroing the progress the job already reported.
				prevMu.Lock()
				final.Progress = prev
				prevMu.Unlock()
			}
			final.Error = err.Error()
		}
		// Apply the final counter deltas: the success path's last Progress
		// callback makes this a no-op, but an aborted campaign skips that
		// callback and would otherwise leave /metrics missing the tail
		// since the last tick.
		prevMu.Lock()
		s.fuzzIters.Add(int64(final.Progress.Iterations - prev.Iterations))
		s.fuzzFindings.Add(int64(final.Progress.Findings - prev.Findings))
		prev = final.Progress
		prevMu.Unlock()
		j.updateFuzz(final)
		st := s.endJob(j)
		s.logf("promised: fuzz job %s %s (%d iterations, %d findings)", j.id, st.State, final.Iterations, len(final.Findings))
	}()
	return j
}

// startJob launches tests × backendNames on the worker pool and returns
// the registered job. specs are the wire-form test specs, persisted in
// the job manifest when a state store is configured. The manifest is
// written before any cell runs, so a crash at any later point finds a
// resumable record; when it cannot be written the job is refused and
// nothing is registered.
func (s *Server) startJob(tests []*litmus.Test, specs []TestSpec, backendNames []string, o CheckOptions) (*job, error) {
	id := newJobID()
	if err := s.store.putManifest(jobManifest{
		ID: id, Tests: specs, Backends: backendNames, Options: o, Created: time.Now(),
	}); err != nil {
		// A failed directory sync leaves the renamed manifest behind.
		s.store.remove(id)
		return nil, err
	}
	return s.launchJob(id, tests, specs, backendNames, o, nil), nil
}

// launchJob is startJob plus the recovery path: rc, when non-nil, holds
// the per-cell state loaded from the state store (completed reports are
// replayed without re-running; checkpointed cells resume from their
// snapshots).
func (s *Server) launchJob(id string, tests []*litmus.Test, specs []TestSpec, backendNames []string, o CheckOptions, rc *recoveredCells) *job {
	ctx, cancel := context.WithCancel(s.base)
	j := &job{
		id:       id,
		kind:     jobKindBatch,
		ctx:      ctx,
		cancel:   cancel,
		start:    time.Now(),
		state:    JobRunning,
		total:    len(tests) * len(backendNames),
		subs:     map[chan JobEvent]*jobSub{},
		samplers: map[int]*obs.Sampler{},
	}
	j.tracer = j.newTracer()
	if rc != nil {
		j.resumed = rc.any
		j.ckptAge = rc.ckptAge
	}
	j.reports = make([]*TestReport, j.total)
	s.jobs.add(j)

	var wg sync.WaitGroup
	for i, t := range tests {
		for bi, b := range backendNames {
			wg.Add(1)
			go func(cell int, t *litmus.Test, b string) {
				defer wg.Done()
				defer s.pending.Add(-1)
				var snap *explore.Snapshot
				if rc != nil {
					if tr := rc.dones[cell]; tr != nil {
						// Completed before the restart: replay the stored
						// report without re-exploring.
						j.record(cell, *tr)
						return
					}
					snap = rc.snaps[cell]
				}
				x := exploration{test: t, backend: b, opts: o, resume: snap,
					trace:   j.tracer.Scope(cell, b),
					sampler: j.cellSampler(cell, s.cfg.StatsInterval),
				}
				if s.store != nil {
					// Durable jobs explore in checkpoint legs, each leg's
					// snapshot persisted: a killed daemon restarts the cell
					// from the latest one.
					x.every = s.cfg.CheckpointInterval
					x.sink = func(leg int, full, _ *explore.Snapshot) error {
						// A failed write keeps the previous checkpoint.
						if err := s.store.putSnap(j.id, cell, full); err != nil {
							s.logf("promised: job %s: persist checkpoint of cell %d: %v", j.id, cell, err)
						}
						x.trace.Emit("checkpoint", fmt.Sprintf("leg %d: %d pending, %d states", leg, len(full.Frontier), full.States))
						return nil
					}
				}
				tr := s.runCell(ctx, x)
				j.record(cell, tr)
				// A cell abandoned by a shutdown (or user cancel) reports
				// timeout/canceled as an artifact of the abort; persisting
				// that verdict would freeze it into the restarted job. Its
				// latest checkpoint stays on disk instead.
				if ctx.Err() == nil || litmus.Status(tr.Status).Complete() {
					if err := s.store.putDone(j.id, cell, &tr); err != nil {
						// Keep the checkpoint: a restart resumes the cell
						// from it instead of from scratch.
						s.logf("promised: job %s: persist report of cell %d: %v", j.id, cell, err)
					} else {
						s.store.dropSnap(j.id, cell)
					}
				}
			}(i*len(backendNames)+bi, t, b)
		}
	}
	go func() {
		wg.Wait()
		st := s.endJob(j)
		s.logf("promised: job %s %s (%d cells, %d cache hits)", j.id, st.State, j.total, st.CacheHits)
	}()
	return j
}

// endJob is the one tail of batch and fuzz jobs, ordered so a kill at any
// point leaves the job either resumable or durably finished, never gone.
// A finished job's record (stage events, final status, witness traces)
// reaches the durable trace store first; then the resumable state is
// released — kept for jobs ended by a server shutdown, which must resume
// on restart, and for finished jobs whose record could not be written,
// which a restart recovers from their done records — and only then is
// the terminal state published.
func (s *Server) endJob(j *job) JobStatus {
	st := j.seal()
	release := st.State == JobDone || j.userCanceled.Load()
	if st.State == JobDone {
		if err := s.persistObs(j, st); err != nil {
			s.logf("promised: job %s: persist traces: %v", j.id, err)
			release = false
		}
	}
	if release {
		s.store.remove(j.id)
	}
	j.finish()
	return st
}
