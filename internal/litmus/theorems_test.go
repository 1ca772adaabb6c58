package litmus

import (
	"testing"

	"promising/internal/axiomatic"
	"promising/internal/core"
	"promising/internal/explore"
	"promising/internal/lang"
)

// TestTheorem62CertificationEquivalence checks Theorem 6.2 on random
// programs: the Promising machine (per-step certification) and the
// Global-Promising machine (no certification on non-promise steps, invalid
// executions discarded at the end) yield identical outcome sets.
func TestTheorem62CertificationEquivalence(t *testing.T) {
	n := genCount(t, 120, 25)
	for seed := int64(2000); seed < int64(2000+n); seed++ {
		tst := Generate(DefaultGenConfig(seed, archForSeed(seed)))
		certified, err := Run(tst, explore.Naive, explore.Options{Certify: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		global, err := Run(tst, explore.Naive, explore.Options{Certify: false})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !explore.SameOutcomes(certified.Result, global.Result) {
			t.Errorf("seed %d: certification changed the outcome set\nprogram:\n%s\ncertified:\n%s\n\nglobal:\n%s",
				seed, formatProgram(tst.Prog),
				FormatOutcomes(certified.Spec, certified.Result, tst.Prog),
				FormatOutcomes(global.Spec, global.Result, tst.Prog))
			return
		}
	}
}

// TestTheorem63RISCVDeadlockFreedom checks Theorem 6.3 on random RISC-V
// programs (including exclusives): the certified machine never reaches a
// stuck non-final state. The theorem covers the paper's fragment, where
// the only atomic writes are store conditionals — which can always fail.
// Single-instruction atomics (our LSE/AMO extension) reintroduce the
// §C.1-style wedged promise, so the generator profile excludes them here;
// TestRISCVRMWCanDeadlock documents the analogue.
func TestTheorem63RISCVDeadlockFreedom(t *testing.T) {
	n := genCount(t, 250, 50)
	for seed := int64(3000); seed < int64(3000+n); seed++ {
		cfg := DefaultGenConfig(seed, lang.RISCV)
		cfg.Profile.RMW = false
		tst := Generate(cfg)
		v, err := Run(tst, explore.Naive, explore.Options{Certify: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if v.Result.DeadEnds != 0 {
			t.Errorf("seed %d: %d deadlocked states on RISC-V\nprogram:\n%s",
				seed, v.Result.DeadEnds, formatProgram(tst.Prog))
			return
		}
	}
}

// TestARMCanDeadlock documents the §4.3 caveat: the ARM machine with store
// exclusives can reach stuck states (like Flat), while remaining equivalent
// to the axiomatic model. The §C.1 example deadlocks when thread 2's write
// to x invalidates thread 0's promise that relied on its store exclusive
// succeeding.
func TestARMCanDeadlock(t *testing.T) {
	tst := CatalogTest("XCL+succ-dep-ARM")
	v, err := Run(tst, explore.Naive, explore.Options{Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.Result.DeadEnds == 0 {
		t.Error("expected the §C.1 example to exhibit ARM deadlocks")
	}
	if !v.OK() {
		t.Errorf("the outcome set must still match the architecture: %s", v)
	}
}

// TestRISCVRMWCanDeadlock documents that single-instruction atomics (the
// LSE/AMO extension) reintroduce wedged promises even on RISC-V: unlike a
// store conditional, an amo cannot fail, so a promise whose fulfilment
// depends on the amo's read staying adjacent to its write deadlocks when
// another thread's write lands in between. The outcome set must still
// match the axiomatic model — stuck paths lose no outcomes.
func TestRISCVRMWCanDeadlock(t *testing.T) {
	tst, err := Parse(`
arch riscv
name AMO+addr-dep-RISCV
locs x z
thread 0 { store [x] 1; }
thread 1 { r0 = store [x] 2; r1 = ldadd [x] 2; r2 = swp [z + (r1 - r1)] 1; }
exists 1:r1=1 && [x]=1
`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Run(tst, explore.Naive, explore.Options{Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.Result.DeadEnds == 0 {
		t.Error("expected the promised-amo example to exhibit RISC-V deadlocks")
	}
	ax, err := Run(tst, axiomatic.Explore, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !explore.SameOutcomes(v.Result, ax.Result) {
		t.Errorf("machine and axiomatic disagree:\nmachine:\n%s\n\naxiomatic:\n%s",
			FormatOutcomes(v.Spec, v.Result, tst.Prog), FormatOutcomes(ax.Spec, ax.Result, tst.Prog))
	}
}

// TestTheorem64OnReachableStates checks the find_and_certify
// characterisation on states reachable during exploration of catalog
// tests: every enumerated promise leads to a declaratively certified
// configuration, and promising any write outside the enumeration does not.
func TestTheorem64OnReachableStates(t *testing.T) {
	for _, name := range []string{"LB", "MP+dmbs", "S+po+data", "XCL-atomicity"} {
		tst := CatalogTest(name)
		cp, err := lang.Compile(tst.Prog)
		if err != nil {
			t.Fatal(err)
		}
		m := core.NewMachine(cp)
		// Walk a bounded frontier of machine states.
		frontier := []*core.Machine{m}
		checked := 0
		for len(frontier) > 0 && checked < 25 {
			cur := frontier[0]
			frontier = frontier[1:]
			checked++
			for tid := range cur.Threads {
				env := cur.Env(tid)
				th := cur.Threads[tid]
				enumerated := map[core.Msg]bool{}
				for _, w := range (*core.CertCache)(nil).FindAndCertify(env, th, cur.Mem) {
					enumerated[w] = true
				}
				// Universe: locations and small values from the test.
				for _, l := range []lang.Loc{0x1000, 0x1008} {
					for v := lang.Val(0); v <= 2; v++ {
						w := core.Msg{Loc: l, Val: v, TID: tid}
						nth := th.Clone()
						mem := cur.Mem.Clone()
						core.Promise(env, nth, mem, w.Loc, w.Val)
						if (*core.CertCache)(nil).Certified(env, nth, mem) != enumerated[w] {
							t.Fatalf("%s tid %d: promise %+v: find_and_certify=%v declarative=%v",
								name, tid, w, enumerated[w], !enumerated[w])
						}
					}
				}
			}
			for _, s := range cur.Successors(true) {
				if len(frontier) < 8 {
					frontier = append(frontier, s.M)
				}
			}
		}
	}
}

// TestSharedLocationOptimisation checks the §7 optimisation: declaring
// genuinely thread-local locations non-shared preserves the outcome set
// while reducing explored states.
func TestSharedLocationOptimisation(t *testing.T) {
	src := `
arch arm
name shared-opt
locs x y s0 s1
thread 0 {
  store [s0] 5;
  t0 = load [s0];
  store [x] t0;
  r0 = load [y];
}
thread 1 {
  store [s1] 7;
  t1 = load [s1];
  store [y] t1;
  r1 = load [x];
}
exists 0:r0=7 && 1:r1=5
expect allowed
`
	full, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	opt.Prog.Shared = map[lang.Loc]bool{opt.Prog.Locs["x"]: true, opt.Prog.Locs["y"]: true}

	vf, err := Run(full, explore.PromiseFirst, explore.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	vo, err := Run(opt, explore.PromiseFirst, explore.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !explore.SameOutcomes(vf.Result, vo.Result) {
		t.Errorf("shared-location optimisation changed outcomes\nfull:\n%s\nopt:\n%s",
			FormatOutcomes(vf.Spec, vf.Result, full.Prog),
			FormatOutcomes(vo.Spec, vo.Result, opt.Prog))
	}
	if vo.Result.States >= vf.Result.States {
		t.Errorf("optimisation did not reduce states: %d vs %d", vo.Result.States, vf.Result.States)
	}
	if !vo.OK() {
		t.Errorf("verdict: %s", vo)
	}
}
