package litmus

import (
	"math/rand"
	"testing"

	"promising/internal/axiomatic"
	"promising/internal/explore"
	"promising/internal/flat"
)

// The checkpoint/resume equivalence suite: for every catalog test and
// every backend, stopping the exploration at a (seeded-random) point,
// serializing the snapshot, deserializing it and resuming — possibly
// several times — must reproduce the uninterrupted run byte-identically:
// the same outcome-key set, the same States, the same DeadEnds.

type ckptBackend struct {
	name   string
	run    Runner
	resume Resumer
}

var (
	promisingCkpt = ckptBackend{"promising", explore.PromiseFirst, explore.ResumePromiseFirst}
	naiveCkpt     = ckptBackend{"naive", explore.Naive, explore.ResumeNaive}
	flatCkpt      = ckptBackend{"flat", flat.Explore, flat.Resume}
	axiomaticCkpt = ckptBackend{"axiomatic", axiomatic.Explore, axiomatic.Resume}
)

var machineCkptBackends = []ckptBackend{promisingCkpt, naiveCkpt}

var otherCkptBackends = []ckptBackend{flatCkpt, axiomaticCkpt}

// runWithCheckpoints drives a test to completion in legs: each leg stops
// at a cooperative checkpoint roughly every `step` states, round-trips
// the snapshot through Marshal/Unmarshal, and resumes. Returns the final
// verdict and the number of legs run.
func runWithCheckpoints(t *testing.T, tst *Test, b ckptBackend, step int, opts explore.Options) (*Verdict, int) {
	t.Helper()
	opts.Checkpoint = explore.NewCheckpointAfter(step)
	v, err := Run(tst, b.run, opts)
	if err != nil {
		t.Fatalf("%s/%s: %v", tst.Name(), b.name, err)
	}
	legs := 1
	for v.Result.Snapshot != nil {
		if legs > 10000 {
			t.Fatalf("%s/%s: runaway checkpoint loop", tst.Name(), b.name)
		}
		raw, err := v.Result.Snapshot.Marshal()
		if err != nil {
			t.Fatalf("%s/%s: marshal: %v", tst.Name(), b.name, err)
		}
		snap, err := explore.UnmarshalSnapshot(raw)
		if err != nil {
			t.Fatalf("%s/%s: unmarshal: %v", tst.Name(), b.name, err)
		}
		// NewCheckpointAfter counts logical (whole-run) states, so the
		// next leg's trigger advances by step from the current total.
		opts.Checkpoint = explore.NewCheckpointAfter(v.Result.States + step)
		v, err = RunFrom(tst, b.resume, snap, opts)
		if err != nil {
			t.Fatalf("%s/%s: resume: %v", tst.Name(), b.name, err)
		}
		legs++
	}
	return v, legs
}

// checkCkptEquivalence runs the uninterrupted baseline under base, then
// the checkpointed run under leg at a seeded-random step, and compares
// byte-identically. It returns the number of legs the checkpointed run
// took (1 = the checkpoint never caught a non-empty frontier — possible
// for small tests whose states are all counted inside one Process call,
// so callers assert multi-leg coverage in aggregate, not per test).
func checkCkptEquivalence(t *testing.T, tst *Test, b ckptBackend, rng *rand.Rand, base, leg explore.Options) int {
	t.Helper()
	ref, err := Run(tst, b.run, base)
	if err != nil {
		t.Fatalf("%s/%s: baseline: %v", tst.Name(), b.name, err)
	}
	if ref.Result.Aborted {
		t.Fatalf("%s/%s: baseline aborted", tst.Name(), b.name)
	}
	// A random checkpoint point, scaled so most tests run 2–5 legs.
	step := 1 + rng.Intn(ref.Result.States/3+2)
	v, legs := runWithCheckpoints(t, tst, b, step, leg)
	if !sameKeys(outcomeKeys(v.Result), outcomeKeys(ref.Result)) {
		t.Errorf("%s/%s: resumed outcome set differs from uninterrupted run (%d vs %d outcomes, step %d)",
			tst.Name(), b.name, len(v.Result.Outcomes), len(ref.Result.Outcomes), step)
	}
	if v.Result.States != ref.Result.States {
		t.Errorf("%s/%s: resumed States = %d, uninterrupted = %d (step %d)",
			tst.Name(), b.name, v.Result.States, ref.Result.States, step)
	}
	if v.Result.DeadEnds != ref.Result.DeadEnds {
		t.Errorf("%s/%s: resumed DeadEnds = %d, uninterrupted = %d (step %d)",
			tst.Name(), b.name, v.Result.DeadEnds, ref.Result.DeadEnds, step)
	}
	if v.Allowed != ref.Allowed {
		t.Errorf("%s/%s: resumed Allowed = %t, uninterrupted = %t", tst.Name(), b.name, v.Allowed, ref.Allowed)
	}
	return legs
}

// TestSnapshotResumeEquivalenceCatalog is the round-trip property suite
// for the machine explorers and the flat baseline over the whole catalog,
// at Parallelism 1 and 2 (the engine drains all worker stacks at a safe
// point; both the sequential and the work-stealing path must survive it,
// and at Parallelism 2 the interleaving backends race arrivals at the
// same states).
func TestSnapshotResumeEquivalenceCatalog(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	multiLeg := 0
	for _, tst := range Catalog() {
		for _, b := range []ckptBackend{promisingCkpt, naiveCkpt, flatCkpt} {
			for _, par := range []int{1, 2} {
				opts := explore.DefaultOptions()
				opts.Parallelism = par
				if checkCkptEquivalence(t, tst, b, rng, opts, opts) > 1 {
					multiLeg++
				}
			}
		}
	}
	// The point of the suite is resuming actual checkpoints; if almost
	// every run completed without one, the step heuristic has rotted.
	if multiLeg < 20 {
		t.Errorf("only %d runs actually checkpointed and resumed; step heuristic too weak", multiLeg)
	}
}

// TestSnapshotResumeEquivalenceOtherBackends extends the suite to the
// axiomatic backend on the litmus-scale subset (flat runs the whole
// catalog in TestSnapshotResumeEquivalenceCatalog).
func TestSnapshotResumeEquivalenceOtherBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	multiLeg := 0
	for _, name := range []string{"MP", "MP+dmbs", "SB", "LB", "IRIW"} {
		tst := CatalogTest(name)
		if tst == nil {
			t.Fatalf("catalog test %q missing", name)
		}
		for _, par := range []int{1, 2} {
			opts := explore.DefaultOptions()
			opts.Parallelism = par
			if checkCkptEquivalence(t, tst, axiomaticCkpt, rng, opts, opts) > 1 {
				multiLeg++
			}
		}
	}
	// Every one of the ten runs checkpoints: the random step is at most a
	// third of the states plus two.
	if multiLeg < 10 {
		t.Errorf("only %d runs actually checkpointed and resumed", multiLeg)
	}
}

// TestSnapshotResumeEquivalenceSymmetricRows extends the round-trip
// suite to the symmetric rows (symRowCells): their seen-sets hold
// canonical keys of classes up to 7 members, and a resumed leg must
// re-derive exactly the same keys.
func TestSnapshotResumeEquivalenceSymmetricRows(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	multiLeg := 0
	for _, c := range symRowCells {
		tst := symRow(t, c.n)
		for _, par := range []int{1, 2} {
			opts := explore.DefaultOptions()
			opts.Parallelism = par
			if checkCkptEquivalence(t, tst, c.b, rng, opts, opts) > 1 {
				multiLeg++
			}
		}
	}
	if multiLeg < 4 {
		t.Errorf("only %d runs actually checkpointed and resumed", multiLeg)
	}
}

// TestSnapshotResumeSharedCertCache checks byte-identity when the
// checkpointed legs share one certification cache (the daemon's
// in-process resume path): a cache carried across legs must not change
// what a resumed leg counts or observes. The baseline runs with its own
// fresh cache — within one logical exploration no certification root
// recurs (phase-1 memories are deduplicated), so a legs-shared cache is
// invisible; a cache additionally shared with the *baseline* would not be
// (warm root hits skip the counted completion walks entirely).
func TestSnapshotResumeSharedCertCache(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, name := range []string{"MP", "LB", "SB+dmbs", "PPOCA"} {
		tst := CatalogTest(name)
		if tst == nil {
			t.Fatalf("catalog test %q missing", name)
		}
		for _, b := range machineCkptBackends {
			base := explore.DefaultOptions()
			base.Parallelism = 2
			leg := base
			leg.CertCache = explore.NewSharedCertCache()
			checkCkptEquivalence(t, tst, b, rng, base, leg)
		}
	}
}

// TestSnapshotResumeRejectsMismatch pins the snapshot validation: wrong
// backend, wrong certify flag, wrong test, witness collection, older
// format version.
func TestSnapshotResumeRejectsMismatch(t *testing.T) {
	tst := CatalogTest("MP")
	opts := explore.DefaultOptions()
	opts.Checkpoint = explore.NewCheckpointAfter(1)
	v, err := Run(tst, explore.PromiseFirst, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := v.Result.Snapshot
	if snap == nil {
		t.Fatal("no snapshot from a 1-state checkpoint")
	}

	resumeOpts := explore.DefaultOptions()
	if _, err := RunFrom(tst, explore.ResumeNaive, snap, resumeOpts); err == nil {
		t.Error("resume under the wrong backend succeeded")
	}
	bad := resumeOpts
	bad.Certify = false
	if _, err := RunFrom(tst, explore.ResumePromiseFirst, snap, bad); err == nil {
		t.Error("resume with a different certify flag succeeded")
	}
	wit := resumeOpts
	wit.CollectWitnesses = true
	if _, err := RunFrom(tst, explore.ResumePromiseFirst, snap, wit); err == nil {
		t.Error("resume with witness collection succeeded")
	}
	other := CatalogTest("SB")
	if _, err := RunFrom(other, explore.ResumePromiseFirst, snap, resumeOpts); err == nil {
		t.Error("resume against a different test succeeded")
	}
	// A snapshot of an older format carries seen-set keys in another
	// canonical form: refused on resume and on load, never merged.
	old := *snap
	old.Version = explore.SnapshotVersion - 1
	if _, err := RunFrom(tst, explore.ResumePromiseFirst, &old, resumeOpts); err == nil {
		t.Error("resume of an older-version snapshot succeeded")
	}
	raw, err := old.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := explore.UnmarshalSnapshot(raw); err == nil {
		t.Error("loading an older-version snapshot succeeded")
	}
}

// TestSnapshotMarshalDeterministic pins canonical serialization: the same
// snapshot marshals to the same bytes, across round trips.
func TestSnapshotMarshalDeterministic(t *testing.T) {
	tst := CatalogTest("MP")
	opts := explore.DefaultOptions()
	opts.Parallelism = 2
	opts.Checkpoint = explore.NewCheckpointAfter(3)
	v, err := Run(tst, explore.Naive, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := v.Result.Snapshot
	if snap == nil {
		t.Fatal("no snapshot")
	}
	a, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("repeated Marshal differs")
	}
	back, err := explore.UnmarshalSnapshot(a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := back.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(c) {
		t.Error("Marshal/Unmarshal round trip changed the bytes")
	}
}

// TestSnapshotSplitMergeEquivalence is the shard soundness suite: for
// every catalog test and both machine explorers, widening + Split(n) +
// independent shard exploration + merge yields exactly the unsharded
// outcome set, for n in {2, 4}.
func TestSnapshotSplitMergeEquivalence(t *testing.T) {
	for _, tst := range Catalog() {
		for _, b := range machineCkptBackends {
			opts := explore.DefaultOptions()
			ref, err := Run(tst, b.run, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", tst.Name(), b.name, err)
			}
			for _, n := range []int{2, 4} {
				v, err := RunSharded(tst, b.run, b.resume, n, opts)
				if err != nil {
					t.Fatalf("%s/%s: sharded(%d): %v", tst.Name(), b.name, n, err)
				}
				if !sameKeys(outcomeKeys(v.Result), outcomeKeys(ref.Result)) {
					t.Errorf("%s/%s: Split(%d) merged outcome set differs from unsharded (%d vs %d outcomes)",
						tst.Name(), b.name, n, len(v.Result.Outcomes), len(ref.Result.Outcomes))
				}
				if v.Allowed != ref.Allowed {
					t.Errorf("%s/%s: Split(%d) Allowed = %t, unsharded = %t",
						tst.Name(), b.name, n, v.Allowed, ref.Allowed)
				}
			}
		}
	}
}

// TestSnapshotSplitMergeOtherBackends extends shard soundness to flat and
// axiomatic on the litmus-scale subset.
func TestSnapshotSplitMergeOtherBackends(t *testing.T) {
	for _, name := range []string{"MP", "SB", "LB"} {
		tst := CatalogTest(name)
		for _, b := range otherCkptBackends {
			opts := explore.DefaultOptions()
			ref, err := Run(tst, b.run, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, b.name, err)
			}
			for _, n := range []int{2, 4} {
				v, err := RunSharded(tst, b.run, b.resume, n, opts)
				if err != nil {
					t.Fatalf("%s/%s: sharded(%d): %v", name, b.name, n, err)
				}
				if !sameKeys(outcomeKeys(v.Result), outcomeKeys(ref.Result)) {
					t.Errorf("%s/%s: Split(%d) merged outcome set differs from unsharded",
						name, b.name, n)
				}
			}
		}
	}
}

// TestSnapshotSplitMergeSymmetricRows extends shard soundness to the
// symmetric rows (symRowCells).
func TestSnapshotSplitMergeSymmetricRows(t *testing.T) {
	for _, c := range symRowCells {
		tst := symRow(t, c.n)
		opts := explore.DefaultOptions()
		ref, err := Run(tst, c.b.run, opts)
		if err != nil {
			t.Fatalf("%s/%s: %v", tst.Name(), c.b.name, err)
		}
		for _, n := range []int{2, 4} {
			v, err := RunSharded(tst, c.b.run, c.b.resume, n, opts)
			if err != nil {
				t.Fatalf("%s/%s: sharded(%d): %v", tst.Name(), c.b.name, n, err)
			}
			if !sameKeys(outcomeKeys(v.Result), outcomeKeys(ref.Result)) || v.Allowed != ref.Allowed {
				t.Errorf("%s/%s: Split(%d) merged outcome set differs from unsharded (%d vs %d outcomes)",
					tst.Name(), c.b.name, n, len(v.Result.Outcomes), len(ref.Result.Outcomes))
			}
		}
	}
}
