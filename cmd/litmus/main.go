// Command litmus runs litmus-test suites across the model backends: the
// canonical catalog with architecturally known verdicts, and seeded random
// differential suites (the stand-in for the paper's 6,500/7,000-test
// validation, §7). With -diff it cross-checks the Promising model against
// the axiomatic oracle (Theorem 6.1, tested) and optionally the flat
// baseline, reporting any disagreement.
//
// The sweep runs on the batched runner (promising.RunAll): -j bounds how
// many (test, backend) cells run concurrently, -par sets the exploration
// engine's per-test worker count, and -backends selects which backends run
// each test (the first is the primary whose verdict is checked against the
// test's expectation).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"promising"
	"promising/internal/explore"
	"promising/internal/lang"
	"promising/internal/litmus"
	"promising/internal/store"
)

func main() {
	var (
		diff      = flag.Bool("diff", false, "differentially test promising vs axiomatic (and flat with -flat)")
		useFlat   = flag.Bool("flat", false, "include the flat baseline in -diff")
		random    = flag.Int("random", 0, "also run N seeded random tests per architecture")
		seed      = flag.Int64("seed", 0, "base seed for random tests")
		verbose   = flag.Bool("v", false, "print every test, not only failures")
		timeout   = flag.Duration("timeout", 60*time.Second, "per-test budget")
		backends  = flag.String("backends", "promising", "comma-separated backends to run (promising, naive, axiomatic, flat)")
		jobs      = flag.Int("j", 0, "concurrent (test, backend) cells; 0 = GOMAXPROCS")
		par       = flag.Int("par", 1, "exploration engine workers per test; 0/-1 = GOMAXPROCS")
		jsonOut   = flag.Bool("json", false, "emit one JSON report array (the server's TestReport shape) instead of text")
		replay    = flag.String("replay", "", "re-run every test in this fuzz corpus directory and report regressions")
		testName  = flag.String("test", "", "run only this catalog test")
		ckptFile  = flag.String("checkpoint", "", "checkpoint the exploration of -test to this file once -checkpoint-after states have been explored")
		ckptN     = flag.Int("checkpoint-after", 100000, "state budget before the -checkpoint snapshot is taken")
		resume    = flag.String("resume", "", "resume a checkpointed exploration from this snapshot file and run it to a verdict")
		shards    = flag.Int("shards", 0, "explore each test by frontier sharding N ways (split + merge, in-process); 0 = off")
		explain   = flag.String("explain", "", "print the minimized, replay-validated witness trace for this outcome of -test (first -backends entry)")
		peers     = flag.String("peers", "", "comma-separated promised daemon URLs: run each test as a coordinated cluster exploration (POST /v1/cluster) across them instead of in-process; -shards sets the shard count")
		reduce    = flag.String("reductions", "on", "certified state-space reductions: on, off, symmetry or pruning")
		importDir = flag.String("import", "", "import the herd .litmus files under this directory (recursive) and run a cross-backend conformance sweep; reads DIR/expected.json verdict pins when present")
	)
	flag.Parse()
	backendsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "backends" {
			backendsSet = true
		}
	})
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "litmus:", err)
		os.Exit(1)
	}
	var err error
	if redMode, err = explore.ParseReductionMode(*reduce); err != nil {
		fail(err)
	}
	switch {
	case *replay != "":
		if err := runReplay(*replay, *backends, *timeout, *verbose); err != nil {
			fail(err)
		}
	case *resume != "":
		if err := runResume(*resume, *ckptFile, *ckptN, *timeout, *par); err != nil {
			fail(err)
		}
	case *ckptFile != "":
		if err := runCheckpoint(*testName, *backends, *ckptFile, *ckptN, *timeout, *par); err != nil {
			fail(err)
		}
	case *explain != "":
		if err := runExplain(*testName, *backends, *explain, *timeout, *par); err != nil {
			fail(err)
		}
	case *peers != "":
		if err := runCluster(*peers, *testName, *backends, *shards, *reduce, *timeout, *verbose); err != nil {
			fail(err)
		}
	case *importDir != "":
		if err := runImport(*importDir, *backends, backendsSet, *timeout, *jobs, *par, *jsonOut, *verbose); err != nil {
			fail(err)
		}
	default:
		if err := run(*diff, *useFlat, *random, *seed, *verbose, *timeout, *backends, *jobs, *par, *jsonOut, *testName, *shards); err != nil {
			fail(err)
		}
	}
}

// redMode is the -reductions flag, applied to every exploration the CLI
// starts (resumes must match the snapshot's stamp; explore.Validate
// rejects a cross-configuration resume).
var redMode explore.ReductionMode

// cliOptions assembles the exploration options shared by the offline
// checkpoint/resume paths.
func cliOptions(timeout time.Duration, par int) explore.Options {
	opts := explore.DefaultOptions()
	opts.Reductions = redMode
	opts.Parallelism = par
	if par <= 0 {
		opts.Parallelism = -1
	}
	if timeout > 0 {
		opts.Deadline = time.Now().Add(timeout)
	}
	return opts
}

// runCheckpoint runs one catalog test under the first -backends entry
// with a cooperative checkpoint at the -checkpoint-after state budget,
// writing the snapshot to file. If the exploration completes inside the
// budget there is nothing to checkpoint and the verdict prints instead.
func runCheckpoint(testName, backendList, file string, after int, timeout time.Duration, par int) error {
	if testName == "" {
		return fmt.Errorf("-checkpoint needs -test <catalog name>")
	}
	tst := litmus.CatalogTest(testName)
	if tst == nil {
		return fmt.Errorf("no catalog test named %q", testName)
	}
	backend := strings.TrimSpace(strings.Split(backendList, ",")[0])
	runner, err := promising.Backend(backend).Runner()
	if err != nil {
		return err
	}
	opts := cliOptions(timeout, par)
	opts.Checkpoint = explore.NewCheckpointAfter(after)
	v, err := litmus.Run(tst, runner, opts)
	if err != nil {
		return err
	}
	snap := v.Result.Snapshot
	if snap == nil {
		fmt.Printf("completed inside the checkpoint budget, nothing to snapshot\n%s\n", v.String())
		return nil
	}
	raw, err := snap.Marshal()
	if err != nil {
		return err
	}
	if err := store.WriteFile(file, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("checkpointed %s/%s after %d states (%d pending, %d outcomes so far) -> %s\n",
		tst.Name(), backend, v.Result.States, len(snap.Frontier), len(v.Result.Outcomes), file)
	return nil
}

// runResume continues a checkpointed exploration from its snapshot file.
// The test is found in the catalog by the snapshot's embedded content
// hash; with -checkpoint set the resumed leg itself re-checkpoints at the
// next -checkpoint-after budget (so very long explorations can hop).
func runResume(file, ckptFile string, after int, timeout time.Duration, par int) error {
	raw, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	snap, err := explore.UnmarshalSnapshot(raw)
	if err != nil {
		return err
	}
	var tst *promising.Test
	for _, t := range litmus.Catalog() {
		if t.Hash() == snap.Test {
			tst = t
			break
		}
	}
	if tst == nil {
		return fmt.Errorf("snapshot's test (hash %s) is not in the catalog", snap.Test)
	}
	resumer, err := promising.Backend(snap.Backend).Resumer()
	if err != nil {
		return err
	}
	opts := cliOptions(timeout, par)
	if ckptFile != "" {
		opts.Checkpoint = explore.NewCheckpointAfter(snap.States + after)
	}
	v, err := litmus.RunFrom(tst, resumer, snap, opts)
	if err != nil {
		return err
	}
	if next := v.Result.Snapshot; next != nil {
		raw, err := next.Marshal()
		if err != nil {
			return err
		}
		if err := store.WriteFile(ckptFile, raw, 0o644); err != nil {
			return err
		}
		fmt.Printf("re-checkpointed %s/%s at %d states (%d pending) -> %s\n",
			tst.Name(), snap.Backend, v.Result.States, len(next.Frontier), ckptFile)
		return nil
	}
	fmt.Printf("resumed %s/%s from %s\n%s\n", tst.Name(), snap.Backend, file, v.String())
	if !v.OK() {
		os.Exit(1)
	}
	return nil
}

// runExplain is the -explain mode: run one catalog test under the first
// -backends entry with witness collection, pick the requested outcome's
// witness and print its trace step by step. Machine-backend traces are
// minimized and must replay-validate — a witness that fails validation is
// a hard error (this is the CI pipeline's replay check); flat/axiomatic
// traces print their native interleaving/execution as an unminimized
// fallback.
func runExplain(testName, backendList, outcome string, timeout time.Duration, par int) error {
	if testName == "" {
		return fmt.Errorf("-explain needs -test <catalog name>")
	}
	tst := litmus.CatalogTest(testName)
	if tst == nil {
		return fmt.Errorf("no catalog test named %q", testName)
	}
	backend := strings.TrimSpace(strings.Split(backendList, ",")[0])
	runner, err := promising.Backend(backend).Runner()
	if err != nil {
		return err
	}
	traces, err := litmus.Explain(tst, backend, runner, cliOptions(timeout, par), 0)
	if err != nil {
		return err
	}
	if len(traces) == 0 {
		return fmt.Errorf("%s/%s produced no witnesses", tst.Name(), backend)
	}
	var hit *litmus.WitnessTrace
	for i := range traces {
		if traces[i].Outcome == outcome {
			hit = &traces[i]
		}
	}
	if hit == nil {
		lines := make([]string, len(traces))
		for i, tr := range traces {
			lines[i] = "  " + tr.Outcome
		}
		return fmt.Errorf("no witness for outcome %q; allowed outcomes of %s/%s:\n%s",
			outcome, tst.Name(), backend, strings.Join(lines, "\n"))
	}
	printWitness(hit)
	if len(hit.Steps) > 0 && !hit.Validated {
		return fmt.Errorf("witness for %q failed replay validation", outcome)
	}
	return nil
}

// printWitness renders one witness trace: a header line, then each step
// in execution order with its promise (◇) / fulfil (◆) marker and the
// acting thread's view after the step.
func printWitness(tr *litmus.WitnessTrace) {
	state := "unminimized"
	if tr.Minimized {
		state = fmt.Sprintf("minimized, %d shrink steps", tr.ShrinkSteps)
	}
	valid := ""
	if tr.Validated {
		valid = ", replay-validated"
	}
	fmt.Printf("%s [%s] %s (%s%s)\n", tr.Test, tr.Backend, tr.Outcome, state, valid)
	if len(tr.Steps) == 0 {
		for _, line := range tr.Native {
			fmt.Printf("  %s\n", line)
		}
		return
	}
	for _, st := range tr.Steps {
		marker := "  "
		switch st.Kind {
		case "promise":
			marker = "◇ "
		case "fulfil":
			marker = "◆ "
		}
		fmt.Printf("%3d %s%-42s", st.Index, marker, st.Text)
		if st.Post != "" {
			fmt.Printf(" | %s", st.Post)
		}
		fmt.Println()
	}
}

// runCluster is the -peers mode: every selected catalog test submitted
// to the first peer as a coordinated cluster exploration (POST
// /v1/cluster) over the whole peer set — frontier split across the
// daemons, cross-peer dedup, work-stealing rebalance and dead-peer
// retry — then polled to its verdict. The merged outcome set equals an
// in-process run's.
func runCluster(peerList, testName, backendList string, shards int, reductions string, timeout time.Duration, verbose bool) error {
	var peers []string
	for _, p := range strings.Split(peerList, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	if len(peers) == 0 {
		return fmt.Errorf("-peers needs at least one daemon URL")
	}
	tests := promising.Catalog()
	if testName != "" {
		tst := litmus.CatalogTest(testName)
		if tst == nil {
			return fmt.Errorf("no catalog test named %q", testName)
		}
		tests = []*promising.Test{tst}
	}
	backend := strings.TrimSpace(strings.Split(backendList, ",")[0])
	coord := promising.NewClient(peers[0])
	ctx := context.Background()
	fail := 0
	for _, t := range tests {
		tr, err := clusterCheck(ctx, coord, t.Name(), backend, peers, shards, reductions, timeout)
		if err != nil {
			return err
		}
		ok := tr.Status == "pass"
		if !ok {
			fail++
		}
		if verbose || !ok {
			status := "ok"
			if !ok {
				status = "FAIL"
			}
			detail := ""
			if tr.Error != "" {
				detail = " [" + tr.Error + "]"
			}
			fmt.Printf("%-4s %s/%s %s: %d outcomes, %d states%s\n",
				status, tr.Test, tr.Backend, tr.Status, len(tr.Outcomes), tr.States, detail)
		}
	}
	fmt.Printf("%d tests x %d peers, %d failures\n", len(tests), len(peers), fail)
	if fail > 0 {
		os.Exit(1)
	}
	return nil
}

// clusterCheck submits one cluster exploration and polls its job to the
// final report.
func clusterCheck(ctx context.Context, coord *promising.Client, test, backend string, peers []string, shards int, reductions string, timeout time.Duration) (*promising.TestReport, error) {
	br, err := coord.Cluster(ctx, promising.ClusterRequest{
		TestSpec: promising.TestSpec{Catalog: test},
		Backend:  backend,
		Shards:   shards,
		Peers:    peers,
		Options: promising.CheckOptions{
			TimeoutMS:  timeout.Milliseconds(),
			Reductions: reductions,
		},
	})
	if err != nil {
		return nil, err
	}
	for {
		st, err := coord.Job(ctx, br.JobID)
		if err != nil {
			return nil, err
		}
		if st.State != promising.JobRunning {
			if len(st.Reports) == 0 || st.Reports[0] == nil {
				return nil, fmt.Errorf("cluster job %s ended %s with no report", br.JobID, st.State)
			}
			return st.Reports[0], nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// runReplay re-runs a persisted fuzz corpus as a regression suite: shrunk
// counterexample reproducers must stay fixed (no disagreement), coverage
// entries must reproduce the outcome sets recorded at admission.
func runReplay(dir, backendList string, timeout time.Duration, verbose bool) error {
	corpus, err := promising.OpenFuzzCorpus(dir)
	if err != nil {
		return err
	}
	if corpus.Len() == 0 {
		return fmt.Errorf("corpus %s is empty", dir)
	}
	var names []string
	for _, name := range strings.Split(backendList, ",") {
		if name = strings.TrimSpace(name); name != "" && name != "promising" {
			names = append(names, name)
		}
	}
	// The oracle is always promise-first; -backends adds comparisons.
	names = append([]string{"promising"}, names...)
	if len(names) == 1 {
		names = nil // default set: promising, naive, axiomatic
	}
	rep, err := promising.ReplayCorpus(context.Background(), corpus, names, timeout)
	if err != nil {
		return err
	}
	for _, e := range rep.Entries {
		if e.Regression() || verbose {
			status := "ok  "
			if e.Regression() {
				status = "FAIL"
			}
			fmt.Printf("%s %s %s (%s", status, shortHash(e.Hash), e.Name, e.Status)
			if len(e.Disagree) > 0 {
				fmt.Printf(": %s", strings.Join(e.Disagree, ","))
			}
			if len(e.Crashed) > 0 {
				fmt.Printf(": panic in %s", strings.Join(e.Crashed, ","))
			}
			if len(e.Changed) > 0 {
				fmt.Printf(": drift in %s", strings.Join(e.Changed, ","))
			}
			fmt.Println(")")
			if e.Regression() && e.Details != "" {
				fmt.Println("  " + strings.ReplaceAll(e.Details, "\n", "\n  "))
			}
		}
	}
	fmt.Printf("%d corpus tests, %d ok, %d incomplete, %d regressions\n",
		rep.Total, rep.OK, rep.Incomplete, rep.Regressions)
	if rep.Regressions > 0 {
		os.Exit(1)
	}
	return nil
}

// shortHash abbreviates a content address for display; hand-added corpus
// files can have arbitrarily short name stems.
func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

func run(diff, useFlat bool, random int, seed int64, verbose bool, timeout time.Duration, backendList string, jobs, par int, jsonOut bool, testName string, shards int) error {
	// Assemble the backend set: the first is the primary (checked against
	// the expectation); -diff pulls in the comparison backends.
	var backends []promising.Backend
	for _, name := range strings.Split(backendList, ",") {
		if name = strings.TrimSpace(name); name != "" {
			backends = append(backends, promising.Backend(name))
		}
	}
	if len(backends) == 0 {
		backends = []promising.Backend{promising.BackendPromising}
	}
	if diff {
		backends = ensureBackend(backends, promising.BackendAxiomatic)
		if useFlat {
			backends = ensureBackend(backends, promising.BackendFlat)
		}
	}

	tests := promising.Catalog()
	if testName != "" {
		tst := litmus.CatalogTest(testName)
		if tst == nil {
			return fmt.Errorf("no catalog test named %q", testName)
		}
		tests = []*promising.Test{tst}
	}
	if random > 0 {
		for _, arch := range []lang.Arch{lang.ARM, lang.RISCV} {
			for i := 0; i < random; i++ {
				tests = append(tests, litmus.Generate(litmus.DefaultGenConfig(seed+int64(i), arch)))
			}
		}
	}

	opts := explore.DefaultOptions()
	opts.Reductions = redMode
	opts.Parallelism = par
	if par <= 0 {
		opts.Parallelism = -1 // 0 means GOMAXPROCS at the CLI
	}
	var reports []promising.Report
	var err error
	if shards > 0 {
		reports, err = runShardedAll(tests, backends, shards, opts, timeout)
	} else {
		reports, err = promising.RunAll(tests, backends, promising.RunAllOptions{
			Concurrency: jobs,
			Explore:     opts,
			Timeout:     timeout,
		})
	}
	if err != nil {
		return err
	}

	if jsonOut {
		return emitJSON(tests, backends, reports)
	}

	fail := 0
	nb := len(backends)
	for i := range tests {
		cells := reports[i*nb : (i+1)*nb]
		primary := &cells[0]
		if primary.Err != nil {
			return primary.Err
		}
		for _, cell := range cells[1:] {
			if cell.Err != nil {
				return cell.Err
			}
		}
		ok, notes := classifyRow(cells)
		detail := ""
		for j, note := range notes {
			if note != "" {
				detail += fmt.Sprintf(" [%s %s]", cells[j].Backend, note)
			}
		}
		if !ok {
			fail++
		}
		if verbose || !ok {
			status := "ok"
			if !ok {
				status = "FAIL"
			}
			fmt.Printf("%-4s %s%s\n", status, primary.Verdict.String(), detail)
		}
	}
	fmt.Printf("%d tests x %d backends, %d failures\n", len(tests), nb, fail)
	if fail > 0 {
		os.Exit(1)
	}
	return nil
}

// emitJSON writes the whole sweep as one array of the server's TestReport
// shape. Unlike text mode, cell errors do not abort the sweep output: they
// surface as status "error" cells. A secondary backend whose outcome set
// disagrees with the primary's is annotated and counted as a failure, as
// is any non-pass primary cell.
func emitJSON(tests []*promising.Test, backends []promising.Backend, reports []promising.Report) error {
	out := make([]promising.TestReport, len(reports))
	fail := 0
	nb := len(backends)
	for i := range tests {
		cells := reports[i*nb : (i+1)*nb]
		ok, notes := classifyRow(cells)
		for j := range cells {
			tr := promising.ReportJSON(cells[j])
			if notes[j] == "disagrees" {
				tr.Error = "outcome set disagrees with backend " + cells[0].Backend
			}
			out[i*nb+j] = tr
		}
		if !ok {
			fail++
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	if fail > 0 {
		os.Exit(1)
	}
	return nil
}

// classifyRow is the one shared verdict policy for a test row (primary
// cell first, secondaries after), used by both text and -json output: the
// row is healthy iff the primary passes and every secondary both completes
// and agrees. notes annotates each secondary with "" (fine), its
// non-complete status (timeout/aborted/error — an incomplete outcome set
// is a budget failure, never a disagreement), or "disagrees".
func classifyRow(cells []promising.Report) (bool, []string) {
	primary := &cells[0]
	ok := primary.OK()
	primaryComplete := primary.Status().Complete()
	notes := make([]string, len(cells))
	for j := 1; j < len(cells); j++ {
		switch st := cells[j].Status(); {
		case !st.Complete():
			ok = false
			notes[j] = string(st)
		case primaryComplete && !explore.SameOutcomes(primary.Verdict.Result, cells[j].Verdict.Result):
			ok = false
			notes[j] = "disagrees"
		}
	}
	return ok, notes
}

// runShardedAll is the -shards mode: every (test, backend) cell explored
// by frontier sharding (litmus.RunSharded — widen, Split(n), explore the
// shards concurrently, merge deterministically), in the same test-major
// report layout RunAll produces.
func runShardedAll(tests []*promising.Test, bs []promising.Backend, shards int, opts explore.Options, timeout time.Duration) ([]promising.Report, error) {
	reports := make([]promising.Report, len(tests)*len(bs))
	for i, t := range tests {
		for j, b := range bs {
			runner, err := b.Runner()
			if err != nil {
				return nil, err
			}
			resumer, err := b.Resumer()
			if err != nil {
				return nil, err
			}
			eo := opts
			if timeout > 0 {
				eo.Deadline = time.Now().Add(timeout)
			}
			v, rerr := litmus.RunSharded(t, runner, resumer, shards, eo)
			reports[i*len(bs)+j] = promising.Report{Test: t, Backend: string(b), Verdict: v, Err: rerr}
		}
	}
	return reports, nil
}

func ensureBackend(bs []promising.Backend, b promising.Backend) []promising.Backend {
	for _, have := range bs {
		if have == b {
			return bs
		}
	}
	return append(bs, b)
}
