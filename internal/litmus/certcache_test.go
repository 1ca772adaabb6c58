package litmus

import (
	"runtime"
	"testing"

	"promising/internal/axiomatic"
	"promising/internal/explore"
	"promising/internal/flat"
)

// The cert-cache equivalence suite. The exploration-scoped certification
// cache is a pure memoisation layer for the naive explorer, so outcome
// sets must be byte-identical and state counts equal with the cache on
// and off, at every parallelism level. Promise-first shares no cache; its
// unified certify+complete walk is checked against the two-pass
// PromiseFirstReference instead.

// runDiff runs one test under one backend at one parallelism level with
// the cache on or off and the given reductions, returning sorted outcome
// keys and the state count.
func runDiff(t *testing.T, tst *Test, run Runner, par int, off bool, red explore.ReductionMode) ([]string, int) {
	t.Helper()
	opts := explore.DefaultOptions()
	opts.Parallelism = par
	opts.CertCacheOff = off
	opts.Reductions = red
	v, err := Run(tst, run, opts)
	if err != nil {
		t.Fatalf("%s: %v", tst.Name(), err)
	}
	if v.Result.Aborted {
		t.Fatalf("%s: aborted", tst.Name())
	}
	keys := outcomeKeys(v.Result)
	if v.Result.BoundExceeded {
		// Fold the (schedule-independent) bound flag into the compared
		// fingerprint: the compared runs must flag exactly the runs the
		// reference flagged.
		keys = append(keys, "bound-exceeded")
	}
	return keys, v.Result.States
}

// TestCertCacheEquivalenceCatalog crosses the full canonical catalog with
// the certifying explorers and parallelism levels 1, 2 and NumCPU:
// outcome sets must be byte-identical and state counts equal to the
// reference — the uncached (CertCacheOff) sequential run for naive, the
// two-pass PromiseFirstReference for promise-first (which has no
// reductions, so promise-first runs without its symmetry reduction).
func TestCertCacheEquivalenceCatalog(t *testing.T) {
	explorers := []struct {
		name   string
		run    Runner
		ref    Runner
		refOff bool
		red    explore.ReductionMode
	}{
		{"promise-first", explore.PromiseFirst, PromiseFirstReference, false, explore.ReduceOff},
		{"naive", explore.Naive, explore.Naive, true, explore.ReduceOn},
	}
	levels := []int{1, 2, runtime.NumCPU()}

	for _, tst := range Catalog() {
		for _, ex := range explorers {
			refKeys, refStates := runDiff(t, tst, ex.ref, 1, ex.refOff, ex.red)
			for _, par := range levels {
				keys, states := runDiff(t, tst, ex.run, par, false, ex.red)
				if !sameKeys(keys, refKeys) {
					t.Errorf("%s/%s par=%d: outcome set differs from the reference (%d vs %d outcomes)",
						tst.Name(), ex.name, par, len(keys), len(refKeys))
				}
				if states != refStates {
					t.Errorf("%s/%s par=%d: States = %d, reference = %d",
						tst.Name(), ex.name, par, states, refStates)
				}
			}
		}
	}
}

// TestCertCacheEquivalenceOtherBackends covers the flat and axiomatic
// backends on their litmus-scale subset: they do not certify, so the flag
// must be a no-op on their outcome sets too.
func TestCertCacheEquivalenceOtherBackends(t *testing.T) {
	backends := []struct {
		name string
		run  Runner
	}{
		{"flat", flat.Explore},
		{"axiomatic", axiomatic.Explore},
	}
	for _, name := range []string{"MP", "MP+dmbs", "SB", "LB", "IRIW"} {
		tst := CatalogTest(name)
		if tst == nil {
			t.Fatalf("catalog test %q missing", name)
		}
		for _, be := range backends {
			offKeys, offStates := runDiff(t, tst, be.run, 1, true, explore.ReduceOn)
			onKeys, onStates := runDiff(t, tst, be.run, 1, false, explore.ReduceOn)
			if !sameKeys(onKeys, offKeys) {
				t.Errorf("%s/%s: outcome set differs with cache flag", name, be.name)
			}
			if onStates != offStates {
				t.Errorf("%s/%s: States differ with cache flag: %d vs %d", name, be.name, onStates, offStates)
			}
		}
	}
}

// TestCertCacheEquivalenceWitnesses pins the witness-collecting
// configuration on every catalog test: promise-first carries the
// completion traces on its one unified walk, so outcome sets and States
// must match the default run (with reductions off, which witness
// collection forces), and every outcome must have a witness.
func TestCertCacheEquivalenceWitnesses(t *testing.T) {
	for _, tst := range Catalog() {
		opts := explore.DefaultOptions()
		opts.Reductions = explore.ReduceOff
		ref, err := Run(tst, explore.PromiseFirst, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.CollectWitnesses = true
		v, err := Run(tst, explore.PromiseFirst, opts)
		if err != nil {
			t.Fatal(err)
		}
		name := tst.Name()
		if !sameKeys(outcomeKeys(v.Result), outcomeKeys(ref.Result)) {
			t.Errorf("%s: witness-mode outcome set differs from default", name)
		}
		if v.Result.States != ref.Result.States {
			t.Errorf("%s: witness-mode States = %d, default = %d", name, v.Result.States, ref.Result.States)
		}
		for k := range v.Result.Outcomes {
			if _, ok := v.Result.Witnesses[k]; !ok {
				t.Errorf("%s: outcome %q has no witness", name, k)
			}
		}
	}
}

// TestCertCacheStats pins the stats surface: a naive exploration reports
// cache activity, and the CertCacheOff ablation and promise-first (which
// shares no cache) report none.
func TestCertCacheStats(t *testing.T) {
	tst := CatalogTest("LB")
	opts := explore.DefaultOptions()
	v, err := Run(tst, explore.Naive, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := v.Result.Stats
	if st.CertMisses == 0 {
		t.Errorf("naive/LB with cache: want cert-cache lookups, got %+v", st)
	}
	if st.CertHits == 0 {
		t.Errorf("naive/LB with cache: want cert-cache hits (thread configs recur across global states), got %+v", st)
	}
	if st.Interned == 0 || st.Interned != v.Result.States {
		t.Errorf("naive/LB: Interned = %d, want States = %d", st.Interned, v.Result.States)
	}
	if hr := st.CertHitRate(); hr <= 0 || hr >= 1 {
		t.Errorf("naive/LB: CertHitRate = %v, want in (0,1)", hr)
	}

	opts.CertCacheOff = true
	v, err = Run(tst, explore.Naive, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := v.Result.Stats; st.CertHits != 0 || st.CertMisses != 0 || st.CertEntries != 0 {
		t.Errorf("naive/LB with CertCacheOff: want zero cert stats, got %+v", st)
	}

	v, err = Run(tst, explore.PromiseFirst, explore.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st := v.Result.Stats; st.CertHits != 0 || st.CertMisses != 0 || st.CertEntries != 0 {
		t.Errorf("promise-first/LB: want zero cert stats, got %+v", st)
	}
}

// TestCertCacheSharedAcrossRuns exercises Options.CertCache: re-running
// the same test with a shared cache must give identical outcomes and warm
// hits on the second run.
func TestCertCacheSharedAcrossRuns(t *testing.T) {
	tst := CatalogTest("LB")
	cc := explore.NewSharedCertCache()
	opts := explore.DefaultOptions()
	opts.CertCache = cc
	first, err := Run(tst, explore.Naive, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(tst, explore.Naive, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !explore.SameOutcomes(first.Result, second.Result) {
		t.Fatal("outcome sets differ across shared-cache runs")
	}
	if first.Result.States != second.Result.States {
		t.Fatalf("States differ across shared-cache runs: %d vs %d", first.Result.States, second.Result.States)
	}
	d1, d2 := first.Result.Stats, second.Result.Stats
	// Stats are per-run deltas even on a shared cache; the second run must
	// produce no misses of its own (every search state is already cached)
	// while still reporting its hits.
	if d2.CertMisses != 0 {
		t.Errorf("second run reported %d misses; want a fully warm cache", d2.CertMisses)
	}
	if d2.CertHits == 0 {
		t.Errorf("second run reported no hits (first: %d)", d1.CertHits)
	}
	if d1.CertMisses == 0 {
		t.Errorf("first run reported no misses; want it to populate the cache")
	}
}

// TestCertCacheSharedAcrossSpecs is an outcome check: handing one
// CertCache to promise-first runs of two tests over the same program but
// different observation specs, in either order, must leave each test's
// outcome set and verdict as in a run without it (promise-first's
// completions are call-scoped, so nothing can leak between the specs).
func TestCertCacheSharedAcrossSpecs(t *testing.T) {
	srcA := `arch arm
name LBA
locs x y
thread 0 { r0 = load [x]; store [y] 1; }
thread 1 { r1 = load [y]; store [x] 1; }
exists 0:r0=1 && 1:r1=1
expect allowed`
	srcB := `arch arm
name LBB
locs x y
thread 0 { r0 = load [x]; store [y] 1; }
thread 1 { r1 = load [y]; store [x] 1; }
exists 1:r1=1
expect allowed`
	ta, err := Parse(srcA)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := Parse(srcB)
	if err != nil {
		t.Fatal(err)
	}

	ref := func(tst *Test) *Verdict {
		v, err := Run(tst, explore.PromiseFirst, explore.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	refA, refB := ref(ta), ref(tb)

	opts := explore.DefaultOptions()
	opts.CertCache = explore.NewSharedCertCache()
	va, err := Run(ta, explore.PromiseFirst, opts)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := Run(tb, explore.PromiseFirst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sameKeys(outcomeKeys(va.Result), outcomeKeys(refA.Result)) {
		t.Errorf("test A: shared-cache outcome set differs from reference")
	}
	if !sameKeys(outcomeKeys(vb.Result), outcomeKeys(refB.Result)) {
		t.Errorf("test B: shared-cache outcome set differs from reference (spec leak)")
	}
	if va.Allowed != refA.Allowed || vb.Allowed != refB.Allowed {
		t.Errorf("verdicts changed under a shared cache: A %v/%v, B %v/%v",
			va.Allowed, refA.Allowed, vb.Allowed, refB.Allowed)
	}

	// The other order: the narrow spec runs first, then the wide one.
	opts2 := explore.DefaultOptions()
	opts2.CertCache = explore.NewSharedCertCache()
	vb2, err := Run(tb, explore.PromiseFirst, opts2)
	if err != nil {
		t.Fatal(err)
	}
	va2, err := Run(ta, explore.PromiseFirst, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if !sameKeys(outcomeKeys(va2.Result), outcomeKeys(refA.Result)) {
		t.Errorf("test A after narrow-spec warmup: outcome set differs from reference (spec leak)")
	}
	if !sameKeys(outcomeKeys(vb2.Result), outcomeKeys(refB.Result)) {
		t.Errorf("test B (narrow, fresh shared cache): outcome set differs from reference")
	}
}
