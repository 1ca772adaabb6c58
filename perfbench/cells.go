package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	_ "embed"

	"promising/internal/backends"
	"promising/internal/explore"
	"promising/internal/lang"
	"promising/internal/litmus"
	"promising/internal/workloads"
)

// paperRows are the laptop-scale rows of the paper's Tables 2 and 3 (the
// quickRows of cmd/bench), each run under the promise-first backend.
var paperRows = []string{
	"SLA-1", "SLA-2", "SLA-3", "SLA-4",
	"SLC-1", "SLC-2",
	"SLR-1", "SLR-2",
	"PCS-1-1", "PCS-2-2",
	"PCM-1-1-1",
	"TL-1", "TL/opt-1",
	"STC-100-010-000", "STC-100-010-010", "STC/opt-100-010-000",
	"STR-100-010-000", "STR-100-010-010",
	"DQ-100-1-0", "DQ-110-1-0", "DQ/opt-100-1-0",
	"QU-100-000-000", "QU-100-010-000",
}

// cellSpec names one pinned cell: a workload row under a backend.
type cellSpec struct{ id, backend string }

// key is the cell's name in pins.json.
func (c cellSpec) key() string { return c.id + "/" + c.backend }

// symmetricCells stress thread-symmetry canonicalization: SYM-6 is
// reduced, SYM-7 has more interchangeable threads than the permutation cap
// allows and so runs unreduced, and SYM-5 runs under the two backends
// whose reductions prune interleavings.
var symmetricCells = []cellSpec{
	{"SYM-6", backends.Promising},
	{"SYM-7", backends.Promising},
	{"SYM-5", backends.Naive},
	{"SYM-5", backends.Flat},
}

func paperCells() []cellSpec {
	out := make([]cellSpec, len(paperRows))
	for i, id := range paperRows {
		out[i] = cellSpec{id, backends.Promising}
	}
	return out
}

// cellTimeout bounds one exploration; a cell that hits it fails.
const cellTimeout = 60 * time.Second

// cellOptions are the engine settings of every cell: sequential engine,
// reductions on (the zero value), certification on, a wall budget.
func cellOptions() explore.Options {
	o := explore.DefaultOptions()
	o.Parallelism = 1
	o.Deadline = time.Now().Add(cellTimeout)
	return o
}

// cell is one built, pinned cell.
type cell struct {
	spec cellSpec
	test *litmus.Test
	run  litmus.Runner
	pin  string
}

func setupPaperRows(e *env, tr *tracer) (*bench, error) {
	return setupCells(e, tr, "paper-rows", paperCells())
}

func setupSymmetric(e *env, tr *tracer) (*bench, error) {
	return setupCells(e, tr, "symmetric", symmetricCells)
}

// setupCells builds the cells with workloads.ParseID and returns a bench
// whose pass runs every cell once, in a seeded order.
func setupCells(e *env, tr *tracer, name string, specs []cellSpec) (*bench, error) {
	cells, err := buildCells(tr, specs)
	if err != nil {
		return nil, err
	}
	for i := range cells {
		pin, ok := e.pins[name][cells[i].spec.key()]
		if !ok {
			return nil, fmt.Errorf("no pin for %s in %s", cells[i].spec.key(), name)
		}
		cells[i].pin = pin
	}
	rng := rand.New(rand.NewSource(e.cfg.seed))
	return warmUp(&bench{
		pass: func(tr *tracer) []op {
			ops := make([]op, 0, len(cells))
			for _, i := range rng.Perm(len(cells)) {
				ops = append(ops, runCell(tr, cells[i]))
			}
			return ops
		},
		stop: func() {},
	}), nil
}

// warmUp ends a set-up with one untraced pass, so the heap and caches
// reach their steady state before timing. Its operations are not counted:
// every pass runs the same inputs, so an operation that fails here fails
// again in the timed passes.
func warmUp(b *bench) *bench {
	b.pass(nil)
	return b
}

func buildCells(tr *tracer, specs []cellSpec) ([]cell, error) {
	cells := make([]cell, len(specs))
	for i, s := range specs {
		id := tr.begin("workloads.build", 0, 0)
		in, err := workloads.ParseID(lang.ARM, s.id)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		run, err := backends.Resolve(s.backend)
		if err != nil {
			return nil, err
		}
		cells[i] = cell{spec: s, test: in.Test, run: run}
	}
	return cells, nil
}

// runCell runs one cell and checks its verdict and outcome pin.
func runCell(tr *tracer, c cell) op {
	opID, root := tr.beginOp("cell")
	start := time.Now()
	v, err := tr.runTest(c.test, c.spec.backend, c.run, cellOptions(), root, opID)
	if err == nil {
		id := tr.begin("litmus.verdict", root, opID)
		err = checkVerdict(v)
		if err == nil {
			if got := fingerprint(v); got != c.pin {
				err = fmt.Errorf("outcome set %s differs from pin %s", short(got), short(c.pin))
			}
		}
		tr.end(id)
	}
	lat := time.Since(start)
	tr.end(root)
	if err != nil {
		err = fmt.Errorf("%s: %w", c.spec.key(), err)
	}
	return op{latency: lat, err: err}
}

// checkVerdict fails an incomplete exploration or a verdict that differs
// from the test's expectation.
func checkVerdict(v *litmus.Verdict) error {
	switch {
	case v.Result.TimedOut:
		return errors.New("timed out")
	case v.Result.Aborted:
		return errors.New("stopped by a state budget")
	case !v.OK():
		return fmt.Errorf("verdict allowed=%t, expected %s", v.Allowed, v.Test.Expect)
	}
	return nil
}

// fingerprint is the hash of a verdict's sorted outcome lines.
func fingerprint(v *litmus.Verdict) string {
	sum := sha256.Sum256([]byte(litmus.FormatOutcomes(v.Spec, v.Result, v.Test.Prog)))
	return hex.EncodeToString(sum[:])
}

func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

//go:embed pins.json
var embeddedPins []byte

// loadPins reads the outcome pins built into the benchmark (pins.json).
func loadPins() (map[string]map[string]string, error) {
	pins := map[string]map[string]string{}
	if err := json.Unmarshal(embeddedPins, &pins); err != nil {
		return nil, fmt.Errorf("parse pins: %w", err)
	}
	return pins, nil
}

// writePinFile runs every pinned cell once and writes their outcome
// fingerprints. Pins are regenerated only when a model change is meant to
// change outcome sets.
func writePinFile(path string) error {
	pins := map[string]map[string]string{}
	for _, w := range []struct {
		name  string
		specs []cellSpec
	}{{"paper-rows", paperCells()}, {"symmetric", symmetricCells}} {
		cells, err := buildCells(nil, w.specs)
		if err != nil {
			return err
		}
		pins[w.name] = map[string]string{}
		for _, c := range cells {
			v, err := litmus.Run(c.test, c.run, cellOptions())
			if err != nil {
				return err
			}
			if err := checkVerdict(v); err != nil {
				return fmt.Errorf("%s: %w", c.spec.key(), err)
			}
			pins[w.name][c.spec.key()] = fingerprint(v)
		}
	}
	raw, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// setupSweep parses the catalog and reads the vendored herd sources and
// their verdict pins. The herd sources are imported again inside every
// pass; here each is imported once only to learn its program's name, which
// keys its cell times.
func setupSweep(e *env, tr *tracer) (*bench, error) {
	id := tr.begin("litmus.import", 0, 0)
	catalog := litmus.Catalog()
	tr.end(id)
	dir := filepath.Join(e.cfg.repo, "testdata", "herd")
	files, err := filepath.Glob(filepath.Join(dir, "*.litmus"))
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("no herd sources in %s", dir)
	}
	var herd []litmus.HerdSource
	progOf := map[string]string{} // herd source name -> program name
	named := map[string]bool{}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		h := litmus.HerdSource{Name: filepath.Base(f), Src: string(src)}
		herd = append(herd, h)
		if t, err := litmus.ImportHerd(h.Src); err == nil { // one that fails, fails every pass
			if named[t.Name()] {
				return nil, fmt.Errorf("%s: program name %s is not unique", h.Name, t.Name())
			}
			named[t.Name()] = true
			progOf[h.Name] = t.Name()
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "expected.json"))
	if err != nil {
		return nil, err
	}
	expected, err := litmus.ExpectedVerdicts(raw)
	if err != nil {
		return nil, err
	}
	var runners []litmus.NamedRunner
	for _, name := range backends.Names() {
		r, err := backends.ResolveNamed(name)
		if err != nil {
			return nil, err
		}
		runners = append(runners, r)
	}
	rng := rand.New(rand.NewSource(e.cfg.seed))
	return warmUp(&bench{
		pass: func(tr *tracer) []op {
			cat, hs := shuffled(rng, catalog), shuffled(rng, herd)
			if tr != nil {
				return tracedSweepPass(tr, cat, hs, expected, runners)
			}
			return sweepPass(cat, hs, progOf, expected, runners)
		},
		stop: func() {},
	}), nil
}

// sweepConcurrency is the concurrency of the sweep's batch runs. Like the
// other workloads the sweep runs on one P, one cell at a time: at
// concurrency 2 on two CPUs of a shared host its pass times spread by half
// their median from run to run.
const sweepConcurrency = 1

func shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := make([]T, len(xs))
	for i, j := range rng.Perm(len(xs)) {
		out[i] = xs[j]
	}
	return out
}

// sweepPass runs the sweep as users and CI run it: one litmus.RunConformance
// over the herd sources (import, every backend, agreement and drift
// against expected.json) and one litmus.RunAll over the catalog. An
// operation is one test under every backend; its latency is the sum of
// the backends' exploration times.
func sweepPass(catalog []*litmus.Test, herd []litmus.HerdSource, progOf, expected map[string]string,
	runners []litmus.NamedRunner) []op {
	opts := litmus.RunAllOptions{Concurrency: sweepConcurrency, Explore: cellOptions(), Timeout: cellTimeout}
	times := &cellTimes{byProg: map[string]time.Duration{}}
	conf := litmus.RunConformance(herd, times.wrap(runners), expected, opts)
	reports := litmus.RunAll(catalog, runners, opts)
	ops := make([]op, 0, len(conf.Tests)+len(catalog))
	for i := range conf.Tests {
		ct := &conf.Tests[i]
		err := conformanceErr(ct)
		if err == nil && expected[ct.Name] == "" {
			err = errors.New("no pin in expected.json")
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", ct.Name, err)
		}
		ops = append(ops, op{latency: times.byProg[progOf[ct.Name]], err: err})
	}
	for i, t := range catalog {
		reps := reports[i*len(runners) : (i+1)*len(runners)]
		var lat time.Duration
		for _, r := range reps {
			if r.Verdict != nil {
				lat += r.Verdict.Elapsed
			}
		}
		err := checkSweep(reps, "")
		if err != nil {
			err = fmt.Errorf("%s: %w", t.Name(), err)
		}
		ops = append(ops, op{latency: lat, err: err})
	}
	return ops
}

// conformanceErr fails a herd test that did not import, that some backend
// did not run to completion, or whose backends disagree or drift from
// their pin.
func conformanceErr(ct *litmus.ConformanceTest) error {
	switch {
	case ct.Skipped:
		return fmt.Errorf("skipped: %s", ct.Reason)
	case ct.ParseError != "":
		return fmt.Errorf("import: %s", ct.ParseError)
	}
	for _, v := range ct.Verdicts {
		if v.Status != litmus.StatusPass {
			return fmt.Errorf("%s: status %s (%s)", v.Backend, v.Status, v.Err)
		}
	}
	switch {
	case ct.Disagree:
		return errors.New("backends disagree")
	case ct.Drift:
		return fmt.Errorf("verdict %s, pinned %s", ct.Consensus(), ct.Expected)
	}
	return nil
}

// cellTimes sums each program's exploration time over the backends, for a
// batch whose reports the benchmark does not see (RunConformance).
type cellTimes struct {
	mu     sync.Mutex
	byProg map[string]time.Duration
}

// wrap returns the runners, each timing its calls into c.
func (c *cellTimes) wrap(runners []litmus.NamedRunner) []litmus.NamedRunner {
	out := make([]litmus.NamedRunner, len(runners))
	for i, r := range runners {
		run := r.Run
		out[i] = litmus.NamedRunner{Name: r.Name, Run: func(cp *lang.CompiledProgram, spec *explore.ObsSpec, o explore.Options) *explore.Result {
			start := time.Now()
			res := run(cp, spec, o)
			d := time.Since(start)
			c.mu.Lock()
			c.byProg[cp.Name] += d
			c.mu.Unlock()
			return res
		}}
	}
	return out
}

// tracedSweepPass is sweepPass with a span around every call: it imports
// the herd sources itself and runs each test's cells one at a time through
// the tracer, so import, compile, exploration and verdict split apart.
func tracedSweepPass(tr *tracer, catalog []*litmus.Test, herd []litmus.HerdSource, expected map[string]string,
	runners []litmus.NamedRunner) []op {
	tests := append([]*litmus.Test(nil), catalog...)
	pinOf := map[*litmus.Test]string{}
	var ops []op
	for _, h := range herd {
		id := tr.begin("litmus.import", 0, 0)
		t, err := litmus.ImportHerd(h.Src)
		tr.end(id)
		var ue *litmus.UnsupportedError
		switch {
		case errors.As(err, &ue):
			tr.skipped(id)
			ops = append(ops, op{err: fmt.Errorf("%s: skipped: %s", h.Name, ue.Reason)})
		case err != nil:
			ops = append(ops, op{err: fmt.Errorf("%s: import: %w", h.Name, err)})
		case expected[h.Name] == "":
			ops = append(ops, op{err: fmt.Errorf("%s: no pin in expected.json", h.Name)})
		default:
			tests = append(tests, t)
			pinOf[t] = expected[h.Name]
		}
	}
	for _, t := range tests {
		opID, root := tr.beginOp("test")
		start := time.Now()
		var reports []litmus.Report
		for _, r := range runners {
			v, err := tr.runTest(t, r.Name, r.Run, cellOptions(), root, opID)
			reports = append(reports, litmus.Report{Test: t, Backend: r.Name, Verdict: v, Err: err})
		}
		id := tr.begin("litmus.verdict", root, opID)
		err := checkSweep(reports, pinOf[t])
		tr.end(id)
		lat := time.Since(start)
		tr.end(root)
		if err != nil {
			err = fmt.Errorf("%s: %w", t.Name(), err)
		}
		ops = append(ops, op{latency: lat, err: err})
	}
	return ops
}

// checkSweep checks one test's reports: every cell complete and matching
// the test's expectation, every backend agreeing, and the consensus
// matching the herd pin when there is one.
func checkSweep(reports []litmus.Report, pin string) error {
	for i := range reports {
		r := &reports[i]
		if st := r.Status(); st != litmus.StatusPass {
			return fmt.Errorf("%s: status %s (%v)", r.Backend, st, r.Err)
		}
		if r.Verdict.Allowed != reports[0].Verdict.Allowed {
			return fmt.Errorf("backends disagree: %s allowed=%t, %s allowed=%t",
				reports[0].Backend, reports[0].Verdict.Allowed, r.Backend, r.Verdict.Allowed)
		}
	}
	if pin != "" && len(reports) > 0 {
		got := "forbidden"
		if reports[0].Verdict.Allowed {
			got = "allowed"
		}
		if got != pin {
			return fmt.Errorf("verdict %s, pinned %s", got, pin)
		}
	}
	return nil
}
