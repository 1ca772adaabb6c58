package workloads

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"promising/internal/axiomatic"
	"promising/internal/explore"
	"promising/internal/flat"
	"promising/internal/lang"
	"promising/internal/litmus"
)

// checkInstance runs an instance exhaustively and asserts its safety
// expectation. Spin-bounded executions may exceed the loop bound (that
// only under-approximates, as in rmem), so BoundExceeded is tolerated.
func checkInstance(t *testing.T, in *Instance) {
	t.Helper()
	opts := explore.DefaultOptions()
	opts.Deadline = time.Now().Add(120 * time.Second)
	v, err := litmus.Run(in.Test, explore.PromiseFirst, opts)
	if err != nil {
		t.Fatalf("%s: %v", in.ID, err)
	}
	if v.Result.Aborted {
		t.Fatalf("%s: exploration aborted (states=%d)", in.ID, v.Result.States)
	}
	if len(v.Result.Outcomes) == 0 {
		t.Fatalf("%s: no completed executions", in.ID)
	}
	if !v.OK() {
		t.Errorf("%s: verdict %v, expected %s\noutcomes:\n%s",
			in.ID, v.Allowed, in.Test.Expect, litmus.FormatOutcomes(v.Spec, v.Result, in.Test.Prog))
	}
	t.Logf("%s: states=%d outcomes=%d elapsed=%v", in.ID, v.Result.States, len(v.Result.Outcomes), v.Elapsed)
}

func TestSpinlocks(t *testing.T) {
	for _, variant := range []string{"SLA", "SLC", "SLR"} {
		n := 2
		if variant != "SLA" && testing.Short() {
			n = 1
		}
		in := SpinlockInstance(lang.ARM, variant, n)
		t.Run(in.ID, func(t *testing.T) { checkInstance(t, in) })
	}
}

func TestSpinlockRISCV(t *testing.T) {
	checkInstance(t, SpinlockInstance(lang.RISCV, "SLA", 2))
}

func TestTicketLock(t *testing.T) {
	for _, opt := range []bool{false, true} {
		in := TicketLockInstance(lang.ARM, opt, 1)
		t.Run(in.ID, func(t *testing.T) { checkInstance(t, in) })
	}
}

func TestPCS(t *testing.T) {
	checkInstance(t, PCSInstance(lang.ARM, 2, 2))
}

func TestPCM(t *testing.T) {
	checkInstance(t, PCMInstance(lang.ARM, 1, 1, 1))
}

func TestTreiber(t *testing.T) {
	cases := [][3][3]int{
		{{1, 0, 0}, {0, 1, 0}, {0, 0, 0}},
		{{1, 0, 0}, {0, 1, 0}, {0, 1, 0}},
	}
	for _, ops := range cases {
		for _, opt := range []bool{false, true} {
			in := TreiberInstance(lang.ARM, "STC", opt, ops)
			t.Run(in.ID, func(t *testing.T) { checkInstance(t, in) })
		}
	}
	in := TreiberInstance(lang.ARM, "STR", false, cases[0])
	t.Run(in.ID, func(t *testing.T) { checkInstance(t, in) })
}

func TestChaseLev(t *testing.T) {
	in := ChaseLevInstance(lang.ARM, false, [3]int{1, 0, 0}, 1, 0)
	t.Run(in.ID, func(t *testing.T) { checkInstance(t, in) })
	in = ChaseLevInstance(lang.ARM, false, [3]int{1, 1, 0}, 1, 0)
	t.Run(in.ID, func(t *testing.T) { checkInstance(t, in) })
	in = ChaseLevInstance(lang.ARM, true, [3]int{1, 0, 0}, 1, 0)
	t.Run(in.ID, func(t *testing.T) { checkInstance(t, in) })
}

func TestMSQueue(t *testing.T) {
	in := MSQueueInstance(lang.ARM, false, false, [3][3]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 0}})
	t.Run(in.ID, func(t *testing.T) { checkInstance(t, in) })
}

// TestMSQueueRelaxedBugFound is the §8 case study: with the publication
// CAS downgraded to a plain store exclusive, the tool must find the
// incorrect state (a dequeue observing uninitialised data).
func TestMSQueueRelaxedBugFound(t *testing.T) {
	in := MSQueueInstance(lang.ARM, false, true, [3][3]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 0}})
	opts := explore.DefaultOptions()
	opts.CollectWitnesses = true
	v, err := litmus.Run(in.Test, explore.PromiseFirst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Allowed {
		t.Fatalf("the relaxed-publication bug was not found\noutcomes:\n%s",
			litmus.FormatOutcomes(v.Spec, v.Result, in.Test.Prog))
	}
	// A witness trace must exist for the buggy outcome.
	for k, o := range v.Result.Outcomes {
		if litmus.Eval(in.Test.Cond, v.Spec, o) {
			w, ok := v.Result.Witnesses[k]
			if !ok || len(w.Labels) == 0 {
				t.Error("no witness trace for the buggy outcome")
			} else {
				t.Logf("witness (%d steps), first: %s", len(w.Labels), w.Labels[0].String())
			}
			break
		}
	}
}

// TestSymmetric checks the SYM-n symmetry stress rows: the first-claimant
// property must hold, and the whole program must collapse into a single
// symmetry class (that collapse is what the row exists to measure).
func TestSymmetric(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		in := SymmetricInstance(lang.ARM, n)
		t.Run(in.ID, func(t *testing.T) {
			checkInstance(t, in)
			opts := explore.DefaultOptions()
			v, err := litmus.Run(in.Test, explore.Naive, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !v.OK() {
				t.Errorf("naive verdict %v, expected %s", v.Allowed, in.Test.Expect)
			}
			if got := v.Result.Stats.SymmetryClasses; got != 1 {
				t.Errorf("SymmetryClasses = %d, want 1", got)
			}
		})
	}
}

// outcomeSetKey renders a result's outcome set canonically (sorted keys,
// one per line) for byte-for-byte comparison across configurations.
func outcomeSetKey(r *explore.Result) string {
	keys := make([]string, 0, len(r.Outcomes))
	for k := range r.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// TestRMWFamily checks the RMW-n counter rows across the full backend
// matrix, parallelism settings and reductions on/off: every
// configuration must produce a byte-identical outcome set, the lost
// update must be forbidden, and the family must be registered with
// ParseID. This is the workload-scale differential gate for primitive
// RMW promise/certify handling.
func TestRMWFamily(t *testing.T) {
	backends := []struct {
		name string
		run  litmus.Runner
	}{
		{"promising", explore.PromiseFirst},
		{"naive", explore.Naive},
		{"axiomatic", axiomatic.Explore},
		{"flat", flat.Explore},
	}
	cases := []struct {
		arch lang.Arch
		n    int
	}{{lang.ARM, 2}, {lang.ARM, 3}, {lang.RISCV, 2}}
	if testing.Short() {
		cases = cases[:1]
	}
	for _, c := range cases {
		in := RMWInstance(c.arch, c.n)
		t.Run(fmt.Sprintf("%s-%v", in.ID, c.arch), func(t *testing.T) {
			ref := ""
			for _, b := range backends {
				for _, par := range []int{1, 2} {
					for _, red := range []explore.ReductionMode{explore.ReduceOn, explore.ReduceOff} {
						opts := explore.DefaultOptions()
						opts.Parallelism = par
						opts.Reductions = red
						v, err := litmus.Run(in.Test, b.run, opts)
						if err != nil {
							t.Fatalf("%s par=%d red=%v: %v", b.name, par, red, err)
						}
						if v.Result.TimedOut || v.Result.Aborted {
							t.Fatalf("%s par=%d red=%v: exploration did not complete", b.name, par, red)
						}
						if !v.OK() {
							t.Errorf("%s par=%d red=%v: lost update or missing increments:\n%s",
								b.name, par, red, litmus.FormatOutcomes(v.Spec, v.Result, in.Test.Prog))
						}
						got := outcomeSetKey(v.Result)
						if ref == "" {
							ref = got
							continue
						}
						if got != ref {
							t.Errorf("%s par=%d red=%v: outcome set differs from reference\ngot:\n%s\nwant:\n%s",
								b.name, par, red, got, ref)
						}
					}
				}
			}
		})
	}
}

func TestParseID(t *testing.T) {
	for _, id := range []string{"SLA-3", "SLC-1", "SLR-2", "TL-1", "TL/opt-2",
		"PCS-2-2", "PCM-1-1-1", "STC-100-010-000", "STR-100-010-010",
		"STC/opt-100-010-000", "DQ-100-1-0", "DQ/opt-110-1-1", "QU-100-010-000",
		"SYM-3", "SYM-5", "RMW-2", "RMW-4"} {
		in, err := ParseID(lang.ARM, id)
		if err != nil {
			t.Errorf("ParseID(%q): %v", id, err)
			continue
		}
		if in.ID != id {
			t.Errorf("ParseID(%q).ID = %q", id, in.ID)
		}
		if loc, th := in.LOC(); loc == 0 || th == 0 {
			t.Errorf("%s: LOC=%d threads=%d", id, loc, th)
		}
	}
	if _, err := ParseID(lang.ARM, "ZZ-1"); err == nil {
		t.Error("expected error for unknown family")
	}
}
