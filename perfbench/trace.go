package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"promising/internal/explore"
	"promising/internal/lang"
	"promising/internal/litmus"
)

// tracer records spans around the benchmark's calls into the program's
// layers. Spans stay in memory and are written out when the run ends. A
// nil *tracer records nothing, so an untraced pass pays one nil check per
// call.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	setup  bool // spans recorded now belong to the set-up
	pass   int  // id of the traced pass being recorded (0 in set-up)
	nextOp int
}

// span is one timed call. Self time is a span minus its children.
type span struct {
	Name   string        `json:"name"`
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Op     int           `json:"op,omitempty"`
	Pass   int           `json:"pass,omitempty"`
	Setup  bool          `json:"setup,omitempty"`
	Root   bool          `json:"root,omitempty"` // an operation's root span
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`

	// Explore spans carry what the runner returned and the heap it
	// allocated.
	Backend    string                `json:"backend,omitempty"`
	States     int                   `json:"states,omitempty"`
	DeadEnds   int                   `json:"dead_ends,omitempty"`
	Stats      *explore.ExploreStats `json:"stats,omitempty"`
	AllocBytes uint64                `json:"alloc_bytes,omitempty"`
	Allocs     uint64                `json:"allocs,omitempty"`
	// Import spans count the sources outside the supported subset.
	Skipped int `json:"skipped,omitempty"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), setup: true} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// resetSetup drops the spans of an earlier set-up: only the set-up whose
// inputs the passes use is kept.
func (t *tracer) resetSetup() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = t.spans[:0]
	t.setup = true
}

func (t *tracer) endSetup() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.setup = false
}

// add records a span and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	s.Setup = t.setup
	s.Pass = t.pass
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens a span; end closes it.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	return t.add(span{Name: name, Parent: parent, Op: op, Start: t.now()})
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// skipped marks an import span as a source outside the supported subset.
func (t *tracer) skipped(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Skipped = 1
}

// beginOp opens the root span of a new operation and returns the
// operation and span ids.
func (t *tracer) beginOp(name string) (op, root int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	t.nextOp++
	op = t.nextOp
	t.mu.Unlock()
	return op, t.add(span{Name: name, Op: op, Root: true, Start: t.now()})
}

// beginPass opens a traced pass; the pass's spans are tagged with it.
func (t *tracer) beginPass() int {
	if t == nil {
		return 0
	}
	id := t.add(span{Name: "pass", Root: true, Start: t.now()})
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pass = id
	t.spans[id-1].Pass = id
	return id
}

// runTest calls litmus.Run. Traced, it wraps the runner it hands over, so
// the call splits into lang.compile (entry to the runner: compilation and
// the observation spec), explore.<backend> (the runner, with the counters
// it returned and the heap allocated during it) and litmus.verdict (the
// runner's return to exit: Satisfiable). The two heap reads are spans of
// their own, bench.memstats.
func (t *tracer) runTest(test *litmus.Test, backend string, run litmus.Runner, opts explore.Options, parent, op int) (*litmus.Verdict, error) {
	if t == nil {
		return litmus.Run(test, run, opts)
	}
	var called bool
	var c1, e0, e1, m1 time.Duration
	before, after := heapAllocs(), heapAllocs()
	wrapped := func(cp *lang.CompiledProgram, spec *explore.ObsSpec, o explore.Options) *explore.Result {
		called = true
		c1 = t.now()
		metrics.Read(before)
		e0 = t.now()
		res := run(cp, spec, o)
		e1 = t.now()
		metrics.Read(after)
		m1 = t.now()
		return res
	}
	start := t.now()
	v, err := litmus.Run(test, wrapped, opts)
	end := t.now()
	if !called { // compilation failed
		t.add(span{Name: "lang.compile", Parent: parent, Op: op, Start: start, End: end})
		return v, err
	}
	t.add(span{Name: "lang.compile", Parent: parent, Op: op, Start: start, End: c1})
	t.add(span{Name: "bench.memstats", Parent: parent, Op: op, Start: c1, End: e0})
	ex := span{Name: "explore." + backend, Parent: parent, Op: op, Start: e0, End: e1, Backend: backend,
		AllocBytes: after[0].Value.Uint64() - before[0].Value.Uint64(),
		Allocs:     after[1].Value.Uint64() - before[1].Value.Uint64()}
	if v != nil {
		st := v.Result.Stats
		ex.States, ex.DeadEnds, ex.Stats = v.Result.States, v.Result.DeadEnds, &st
	}
	t.add(ex)
	t.add(span{Name: "bench.memstats", Parent: parent, Op: op, Start: e1, End: m1})
	t.add(span{Name: "litmus.verdict", Parent: parent, Op: op, Start: m1, End: end})
	return v, err
}

// heapAllocs returns the samples of the cumulative heap allocation
// counters, bytes and objects. Reading them does not stop the world, as
// runtime.ReadMemStats does.
func heapAllocs() []metrics.Sample {
	return []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// coverage returns the share of the traced passes' wall time covered by
// layer spans (every span but the pass and operation roots and the
// benchmark's own bench.* work), taking the union of the intervals so
// concurrent spans count once.
func (t *tracer) coverage() float64 {
	spans := t.snapshot()
	passes := map[int]span{}
	byPass := map[int][][2]time.Duration{}
	for _, s := range spans {
		switch {
		case s.Setup, strings.HasPrefix(s.Name, "bench."):
		case s.Name == "pass":
			passes[s.ID] = s
		case !s.Root:
			byPass[s.Pass] = append(byPass[s.Pass], [2]time.Duration{s.Start, s.End})
		}
	}
	var covered, total time.Duration
	for id, p := range passes {
		total += p.End - p.Start
		covered += unionWithin(byPass[id], p.Start, p.End)
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// unionWithin returns the length of the union of the intervals, clipped
// to [lo, hi].
func unionWithin(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
