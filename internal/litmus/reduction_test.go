package litmus

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"promising/internal/axiomatic"
	"promising/internal/explore"
	"promising/internal/flat"
)

// reductionRunners are the four backends the reduction-certification suite
// drives (named here directly: the backends registry imports litmus).
var reductionRunners = []struct {
	name string
	run  Runner
}{
	{"promising", explore.PromiseFirst},
	{"naive", explore.Naive},
	{"axiomatic", axiomatic.Explore},
	{"flat", flat.Explore},
}

func reductionParallelisms() []int {
	ps := []int{1, 2}
	if n := runtime.NumCPU(); n != 1 && n != 2 {
		ps = append(ps, n)
	}
	return ps
}

// TestCatalogReductionsEquivalent certifies the state-space reductions:
// for every catalog test, every backend and several worker counts, a
// reduced run and an unreduced run produce byte-identical outcome sets
// (and hence the same verdict). This is the differential proof ROADMAP
// demands before a reduction may default to on.
func TestCatalogReductionsEquivalent(t *testing.T) {
	for _, br := range reductionRunners {
		for _, par := range reductionParallelisms() {
			br, par := br, par
			t.Run(fmt.Sprintf("%s/par%d", br.name, par), func(t *testing.T) {
				t.Parallel()
				for _, tst := range Catalog() {
					opts := explore.DefaultOptions()
					opts.Parallelism = par
					opts.Reductions = explore.ReduceOn
					vOn, err := Run(tst, br.run, opts)
					if err != nil {
						t.Fatalf("%s: reduced run: %v", tst.Name(), err)
					}
					opts.Reductions = explore.ReduceOff
					vOff, err := Run(tst, br.run, opts)
					if err != nil {
						t.Fatalf("%s: unreduced run: %v", tst.Name(), err)
					}
					if !explore.SameOutcomes(vOn.Result, vOff.Result) {
						t.Errorf("%s: outcome sets differ with reductions on vs off\non:\n%s\noff:\n%s",
							tst.Name(),
							FormatOutcomes(vOn.Spec, vOn.Result, tst.Prog),
							FormatOutcomes(vOff.Spec, vOff.Result, tst.Prog))
					}
					if vOn.Allowed != vOff.Allowed {
						t.Errorf("%s: verdict differs with reductions on (%v) vs off (%v)",
							tst.Name(), vOn.Allowed, vOff.Allowed)
					}
				}
			})
		}
	}
}

// TestCatalogThreadPermutationOutcomes is the symmetry property test:
// permuting the threads of a test (condition and observations remapped to
// follow) leaves the outcome set byte-identical — observation i of the
// permuted test watches the same program point as observation i of the
// original, so even the outcome keys coincide. States must agree too:
// thread renumbering is a bijection on machine states.
func TestCatalogThreadPermutationOutcomes(t *testing.T) {
	for _, br := range reductionRunners {
		br := br
		t.Run(br.name, func(t *testing.T) {
			t.Parallel()
			for _, tst := range Catalog() {
				n := len(tst.Prog.Threads)
				if n < 2 || n > 3 {
					continue
				}
				opts := explore.DefaultOptions()
				opts.Reductions = explore.ReduceOn
				base, err := Run(tst, br.run, opts)
				if err != nil {
					t.Fatalf("%s: %v", tst.Name(), err)
				}
				// The reversal permutes every thread, so it exercises both
				// in-class and cross-class renumbering.
				perm := make([]int, n)
				for i := range perm {
					perm[i] = n - 1 - i
				}
				pt := PermuteThreads(tst, perm)
				pv, err := Run(pt, br.run, opts)
				if err != nil {
					t.Fatalf("%s permuted: %v", tst.Name(), err)
				}
				if !explore.SameOutcomes(base.Result, pv.Result) {
					t.Errorf("%s: outcome set changed under thread permutation %v\noriginal:\n%s\npermuted:\n%s",
						tst.Name(), perm,
						FormatOutcomes(base.Spec, base.Result, tst.Prog),
						FormatOutcomes(pv.Spec, pv.Result, pt.Prog))
				}
				// Thread renumbering is a bijection on machine states, so the
				// state-graph backends must count identically. Promise-first
				// is exempt: its phase-2 per-thread searches depend on thread
				// order, so its States accounting is not permutation-neutral
				// (only its outcome set is).
				if br.name != "promising" && base.Result.States != pv.Result.States {
					t.Errorf("%s: state count changed under thread permutation: %d vs %d",
						tst.Name(), base.Result.States, pv.Result.States)
				}
			}
		})
	}
}

// symmetricSrc is a fully symmetric three-thread program: all bodies
// identical, all observed register sets identical, so the whole program is
// one symmetry class with 3! = 6 permutations.
const symmetricSrc = `
arch arm
name SYM3
locs x
thread 0 { r0 = load [x]; store [x] 1; }
thread 1 { r0 = load [x]; store [x] 1; }
thread 2 { r0 = load [x]; store [x] 1; }
exists 0:r0=0 && 1:r0=0 && 2:r0=0
`

// symRow builds the SYM-n workload row's program (internal/workloads,
// which imports this package): n identical claimants that load a shared
// slot and then store to it, every r0 observed — one symmetry class of n
// threads, n! permutations.
func symRow(t testing.TB, n int) *Test {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "arch arm\nname SYM-%d\nlocs slot\n", n)
	conds := make([]string, n)
	for i := range conds {
		fmt.Fprintf(&b, "thread %d { r0 = load [slot]; store [slot] 1; }\n", i)
		conds[i] = fmt.Sprintf("%d:r0=0", i)
	}
	fmt.Fprintf(&b, "exists %s\n", strings.Join(conds, " && "))
	tst, err := Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return tst
}

// symRowCells are the symmetric rows whose classes exceed the catalog's
// (rarely more than 2 members): the rows the sort-based canonical form
// changes most. The exactness suites run each under its backend.
var symRowCells = []struct {
	n int
	b ckptBackend
}{
	{5, machineCkptBackends[1]}, // naive
	{5, otherCkptBackends[0]},   // flat
	{7, machineCkptBackends[0]}, // promising
}

// TestSymmetricRowsReductionsEquivalent extends the reductions on/off
// certification to SYM-4, SYM-5 and SYM-7, at Parallelism 1 and 2. On
// SYM-4 each interleaving backend is compared with its own unreduced run.
// An unreduced SYM-5 run is out of reach for them (naive: 2.1M states,
// over a minute; flat: past its 500k budget), so SYM-5 under each
// reduction mode is compared with unreduced promise-first, which the
// differential suites tie to both. SYM-7 promise-first is compared with
// its own unreduced run (551k states, about 4 s; skipped under -short).
func TestSymmetricRowsReductionsEquivalent(t *testing.T) {
	sym5 := symRow(t, 5)
	off := explore.DefaultOptions()
	off.Reductions = explore.ReduceOff
	ref5, err := Run(sym5, explore.PromiseFirst, off)
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range reductionRunners {
		if br.name != "naive" && br.name != "flat" {
			continue
		}
		for _, par := range reductionParallelisms() {
			opts := explore.DefaultOptions()
			opts.Parallelism = par
			sym4 := symRow(t, 4)
			opts.Reductions = explore.ReduceOff
			ref4, err := Run(sym4, br.run, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []explore.ReductionMode{explore.ReduceOn, explore.ReduceSymmetry} {
				opts.Reductions = mode
				for _, c := range []struct {
					tst *Test
					ref *Verdict
				}{{sym4, ref4}, {sym5, ref5}} {
					v, err := Run(c.tst, br.run, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !explore.SameOutcomes(v.Result, c.ref.Result) || v.Allowed != c.ref.Allowed {
						t.Errorf("%s/%s/par%d/%v: outcome set differs from the unreduced reference\ngot:\n%s\nwant:\n%s",
							c.tst.Name(), br.name, par, mode,
							FormatOutcomes(v.Spec, v.Result, c.tst.Prog),
							FormatOutcomes(c.ref.Spec, c.ref.Result, c.tst.Prog))
					}
					if v.Result.Stats.SymmetryClasses != 1 {
						t.Errorf("%s/%s: SymmetryClasses = %d, want 1", c.tst.Name(), br.name, v.Result.Stats.SymmetryClasses)
					}
				}
			}
		}
	}
	if testing.Short() {
		t.Skip("SYM-7 unreduced promise-first takes about 4 s")
	}
	sym7 := symRow(t, 7)
	on := explore.DefaultOptions()
	vOn, err := Run(sym7, explore.PromiseFirst, on)
	if err != nil {
		t.Fatal(err)
	}
	vOff, err := Run(sym7, explore.PromiseFirst, off)
	if err != nil {
		t.Fatal(err)
	}
	if !sameKeys(outcomeKeys(vOn.Result), outcomeKeys(vOff.Result)) || vOn.Allowed != vOff.Allowed {
		t.Errorf("SYM-7/promising: reduced and unreduced outcome sets differ (%d vs %d outcomes)",
			len(vOn.Result.Outcomes), len(vOff.Result.Outcomes))
	}
	if vOn.Result.Stats.SymmetryClasses != 1 || 10*vOn.Result.States > vOff.Result.States {
		t.Errorf("SYM-7/promising: want one class and a >10x reduction, got %d classes, %d vs %d states",
			vOn.Result.Stats.SymmetryClasses, vOn.Result.States, vOff.Result.States)
	}
}

// TestSymmetricReductionShrinksStateSpace checks the reduction pays:
// on the fully symmetric program, symmetry canonicalization must detect
// the class and cut the interleaving backends' state counts at least in
// half, without changing the outcome set.
func TestSymmetricReductionShrinksStateSpace(t *testing.T) {
	tst, err := Parse(symmetricSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range reductionRunners {
		br := br
		t.Run(br.name, func(t *testing.T) {
			t.Parallel()
			opts := explore.DefaultOptions()
			opts.Reductions = explore.ReduceOn
			vOn, err := Run(tst, br.run, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Reductions = explore.ReduceOff
			vOff, err := Run(tst, br.run, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !explore.SameOutcomes(vOn.Result, vOff.Result) {
				t.Fatalf("outcome sets differ with reductions on vs off\non:\n%s\noff:\n%s",
					FormatOutcomes(vOn.Spec, vOn.Result, tst.Prog),
					FormatOutcomes(vOff.Spec, vOff.Result, tst.Prog))
			}
			if br.name == "axiomatic" {
				return // no reductions apply; equivalence is all there is to check
			}
			st := vOn.Result.Stats
			if st.SymmetryClasses != 1 {
				t.Errorf("SymmetryClasses = %d, want 1", st.SymmetryClasses)
			}
			if st.SymmetryHits == 0 {
				t.Errorf("SymmetryHits = 0, want > 0")
			}
			if 2*vOn.Result.States > vOff.Result.States {
				t.Errorf("reduced run explored %d states, unreduced %d; want at least 2x reduction",
					vOn.Result.States, vOff.Result.States)
			}
		})
	}
}

// TestConcurrentCanonicalization stresses the shared canonicalization
// paths — the interner-backed seen set, the claim table and the
// sort-based symmetry canonical form — with many workers hammering one
// exploration. Run under -race this is the concurrency certification for
// the reduction layer; in any mode it checks parallel reduced runs stay
// equivalent to a sequential unreduced one.
func TestConcurrentCanonicalization(t *testing.T) {
	tst, err := Parse(symmetricSrc)
	if err != nil {
		t.Fatal(err)
	}
	refOpts := explore.DefaultOptions()
	refOpts.Reductions = explore.ReduceOff
	ref, err := Run(tst, explore.Naive, refOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range reductionRunners {
		if br.name == "axiomatic" {
			continue
		}
		br := br
		t.Run(br.name, func(t *testing.T) {
			t.Parallel()
			for round := 0; round < 3; round++ {
				opts := explore.DefaultOptions()
				opts.Parallelism = 8
				opts.Reductions = explore.ReduceOn
				v, err := Run(tst, br.run, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !explore.SameOutcomes(v.Result, ref.Result) {
					t.Fatalf("round %d: parallel reduced outcome set diverged\ngot:\n%s\nwant:\n%s",
						round,
						FormatOutcomes(v.Spec, v.Result, tst.Prog),
						FormatOutcomes(ref.Spec, ref.Result, tst.Prog))
				}
			}
		})
	}
}
