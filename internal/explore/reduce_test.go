package explore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"promising/internal/core"
	"promising/internal/lang"
)

// symProgram is the SYM-n claimant shape: n identical threads that load a
// shared slot and then store to it, every r0 observed — one symmetry class
// of n threads.
func symProgram(t testing.TB, n int) (*lang.CompiledProgram, *ObsSpec) {
	t.Helper()
	const slot = lang.Loc(8)
	p := &lang.Program{Arch: lang.ARM}
	spec := &ObsSpec{}
	for i := 0; i < n; i++ {
		p.Threads = append(p.Threads, lang.Block(
			lang.Load{Dst: 0, Addr: lang.C(slot)},
			lang.Store{Succ: 1, Addr: lang.C(slot), Data: lang.C(1)},
		))
		spec.Regs = append(spec.Regs, RegObs{TID: i, Reg: 0, Name: fmt.Sprintf("%d:r0", i)})
	}
	cp, err := lang.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return cp, spec
}

// classPerms is the enumeration the sort-based canonical form replaced,
// kept as the test oracle: the product of within-class permutations as
// order slices (order[slot] = original thread id), identity first.
func classPerms(n int, classes [][]int) [][]int {
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	orders := [][]int{id}
	for _, cls := range classes {
		var next [][]int
		for _, base := range orders {
			forEachPerm(len(cls), func(p []int) {
				o := append([]int(nil), base...)
				for i, pi := range p {
					o[cls[i]] = cls[pi]
				}
				next = append(next, o)
			})
		}
		orders = next
	}
	return orders
}

// forEachPerm calls f with every permutation of [0..n) (the slice is
// reused across calls).
func forEachPerm(n int, f func([]int)) {
	p := make([]int, n)
	used := make([]bool, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			f(p)
			return
		}
		for v := 0; v < n; v++ {
			if !used[v] {
				used[v] = true
				p[i] = v
				rec(i + 1)
				used[v] = false
			}
		}
	}
	rec(0)
}

// closeAllPerms is the oracle closure: the image of every outcome under
// every class permutation, enumerated.
func closeAllPerms(sy *Symmetry, spec *ObsSpec, res *Result) {
	idx := map[regKey]int{}
	for i, ro := range spec.Regs {
		idx[regKey{ro.TID, ro.Reg}] = i
	}
	var base []Outcome
	for _, o := range res.Outcomes {
		base = append(base, o)
	}
	for _, order := range classPerms(sy.n, sy.classes) {
		for _, o := range base {
			regs := make([]lang.Val, len(o.Regs))
			for i, ro := range spec.Regs {
				regs[i] = o.Regs[idx[regKey{order[ro.TID], ro.Reg}]]
			}
			res.add(Outcome{Regs: regs, Mem: o.Mem}, nil)
		}
	}
}

// permuteMachine returns the state π(m): thread t of m becomes thread
// pi[t], and every message's TID is relabeled likewise.
func permuteMachine(m *core.Machine, pi []int) *core.Machine {
	out := &core.Machine{Prog: m.Prog, Threads: make([]*core.Thread, len(m.Threads)), Mem: core.NewMemory(nil)}
	for t, th := range m.Threads {
		out.Threads[pi[t]] = th
	}
	for _, w := range m.Mem.Msgs() {
		w.TID = pi[w.TID]
		out.Mem.Append(w)
	}
	return out
}

// naiveReachable lists up to limit distinct reachable naive states.
func naiveReachable(cp *lang.CompiledProgram, limit int) []*core.Machine {
	seen := map[string]bool{}
	queue := []*core.Machine{core.NewMachine(cp)}
	var out []*core.Machine
	for len(queue) > 0 && len(out) < limit {
		m := queue[0]
		queue = queue[1:]
		k := string(m.AppendState(nil))
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, m)
		for _, s := range m.Successors(true) {
			queue = append(queue, s.M)
		}
	}
	return out
}

// inClassPerm draws a random permutation of the threads that maps every
// class onto itself (singleton threads stay fixed).
func inClassPerm(rng *rand.Rand, sy *Symmetry) []int {
	pi := make([]int, sy.n)
	for i := range pi {
		pi[i] = i
	}
	for _, cls := range sy.classes {
		for i, j := range rng.Perm(len(cls)) {
			pi[cls[i]] = cls[j]
		}
	}
	return pi
}

// orbitChecker checks the canonical form on a stream of states and their
// random images: the key of π(s) equals the key of s, keys partition the
// states exactly as the oracle (the least unreduced key over all class
// permutations) does, and the CanonMask frame of every thread is the same
// slot in s and π(s) — up to swapping tied threads, whose slots are
// assigned in ascending concrete tid order.
type orbitChecker struct {
	t        *testing.T
	sy       *Symmetry
	newToOld map[string]string
	oldToNew map[string]string
}

func newOrbitChecker(t *testing.T, sy *Symmetry) *orbitChecker {
	return &orbitChecker{t: t, sy: sy, newToOld: map[string]string{}, oldToNew: map[string]string{}}
}

// check takes a state's canonical key and order, its image's key and
// order under pi, its oracle key, and the per-thread tie classes of the
// state (tie[t] == tie[u] iff threads t and u may tie: equal encoding,
// no owned messages).
func (c *orbitChecker) check(key []byte, order []int, pkey []byte, porder []int, pi []int, oracle string, tie []string) {
	t := c.t
	t.Helper()
	if !bytes.Equal(key, pkey) {
		t.Fatalf("key of π(s) differs from key of s (π = %v)", pi)
	}
	if o, ok := c.newToOld[string(key)]; ok && o != oracle {
		t.Fatalf("two states of different orbits share a canonical key")
	}
	if k, ok := c.oldToNew[oracle]; ok && k != string(key) {
		t.Fatalf("two states of one orbit have different canonical keys")
	}
	c.newToOld[string(key)] = oracle
	c.oldToNew[oracle] = string(key)
	for th := 0; th < c.sy.n; th++ {
		a := CanonMask(1<<th, order)
		b := CanonMask(1<<pi[th], porder)
		if a == b {
			continue
		}
		// Different slots: only legitimate for a tied thread, and then
		// the whole tie group must map onto the same slots.
		if tie[th] == "" {
			t.Fatalf("thread %d (owns messages or is unique) lands in slot mask %b of s but %b of π(s)", th, a, b)
		}
		var group, pgroup uint32
		for u := 0; u < c.sy.n; u++ {
			if tie[u] == tie[th] {
				group |= 1 << u
				pgroup |= 1 << pi[u]
			}
		}
		if CanonMask(group, order) != CanonMask(pgroup, porder) {
			t.Fatalf("tie group %b does not map to one slot set", group)
		}
	}
	// Tied threads occupy their slots in ascending concrete tid order.
	if order != nil {
		last := map[string]int{}
		for _, old := range order {
			if tie[old] == "" {
				continue
			}
			if prev, ok := last[tie[old]]; ok && prev > old {
				t.Fatalf("tied threads out of tid order in %v", order)
			}
			last[tie[old]] = old
		}
	}
}

// tieGroups labels each thread that owns no message with its encoding
// (threads may tie only within such a label); "" marks owners.
func tieGroups(n int, enc func(t int) []byte, owns func(t int) bool) []string {
	tie := make([]string, n)
	for t := 0; t < n; t++ {
		if !owns(t) {
			tie[t] = "e" + string(enc(t))
		}
	}
	return tie
}

func naiveOracle(m *core.Machine, sy *Symmetry) string {
	var best []byte
	for _, order := range classPerms(sy.n, sy.classes) {
		// order[slot] = old, so the image puts thread old at slot.
		pi := make([]int, sy.n)
		for slot, old := range order {
			pi[old] = slot
		}
		k := permuteMachine(m, pi).AppendState(nil)
		if best == nil || bytes.Compare(k, best) < 0 {
			best = k
		}
	}
	return string(best)
}

// TestCanonicalKeyOrbitInvariantNaive checks the sort-based canonical
// form on reachable SYM-4 naive states against random class permutations
// and against the all-permutations oracle.
func TestCanonicalKeyOrbitInvariantNaive(t *testing.T) {
	cp, spec := symProgram(t, 4)
	sy := NewSymmetry(cp, spec)
	if sy == nil || len(sy.classes) != 1 || len(sy.classes[0]) != 4 {
		t.Fatalf("SYM-4 must be one class of 4, got %+v", sy)
	}
	rng := rand.New(rand.NewSource(1))
	c := newOrbitChecker(t, sy)
	states := naiveReachable(cp, 3000)
	ties := 0
	for _, m := range states {
		key, order, _ := appendNaiveKey(nil, m, sy)
		owner := map[int]bool{}
		for _, w := range m.Mem.Msgs() {
			owner[w.TID] = true
		}
		tie := tieGroups(sy.n, func(t int) []byte { return core.EncodeThread(nil, m.Threads[t]) }, func(t int) bool { return owner[t] })
		for i := range tie {
			for j := i + 1; j < len(tie); j++ {
				if tie[i] != "" && tie[i] == tie[j] {
					ties++
				}
			}
		}
		oracle := naiveOracle(m, sy)
		for r := 0; r < 3; r++ {
			pi := inClassPerm(rng, sy)
			pkey, porder, _ := appendNaiveKey(nil, permuteMachine(m, pi), sy)
			c.check(key, order, pkey, porder, pi, oracle, tie)
		}
	}
	if len(states) < 500 || ties == 0 {
		t.Fatalf("weak coverage: %d states, %d tied pairs", len(states), ties)
	}
	t.Logf("%d states, %d orbits, %d tied pairs", len(states), len(c.oldToNew), ties)
}

// TestCanonicalMemoryOrbitInvariantSYM7 checks promise-first's phase-1
// canonical memories on the SYM-7 class: random memories (the reachable
// ones are sequences of claims by distinct threads; repeated owners are
// included too) keep their key under every random class permutation.
func TestCanonicalMemoryOrbitInvariantSYM7(t *testing.T) {
	cp, spec := symProgram(t, 7)
	sy := NewSymmetry(cp, spec)
	if sy == nil || len(sy.classes[0]) != 7 {
		t.Fatal("SYM-7 must be one class of 7 (no permutation cap)")
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		mem := core.NewMemory(nil)
		distinct := i%2 == 0
		tids := rng.Perm(7)
		for k := 0; k < rng.Intn(8); k++ {
			tid := rng.Intn(7)
			if distinct {
				if k >= 7 {
					break
				}
				tid = tids[k]
			}
			mem.Append(core.Msg{Loc: 8, Val: lang.Val(1 + rng.Intn(2)), TID: tid})
		}
		key, _ := sy.CanonicalMemory(nil, mem)
		for r := 0; r < 3; r++ {
			pi := inClassPerm(rng, sy)
			pm := core.NewMemory(nil)
			for _, w := range mem.Msgs() {
				w.TID = pi[w.TID]
				pm.Append(w)
			}
			if pkey, _ := sy.CanonicalMemory(nil, pm); !bytes.Equal(key, pkey) {
				t.Fatalf("canonical memory changed under π = %v:\n%v\n%v", pi, mem, pm)
			}
		}
	}
}

// TestCloseOutcomesMatchesAllPermutations checks the worklist closure
// under adjacent transpositions against the enumerated closure, on
// SYM-2..SYM-5 and on a two-class program.
func TestCloseOutcomesMatchesAllPermutations(t *testing.T) {
	type prog struct {
		name string
		cp   *lang.CompiledProgram
		spec *ObsSpec
	}
	var progs []prog
	for n := 2; n <= 5; n++ {
		cp, spec := symProgram(t, n)
		progs = append(progs, prog{fmt.Sprintf("SYM-%d", n), cp, spec})
	}
	// Two classes: threads {0,2} and {1,3,4} run different code.
	cp5, _ := symProgram(t, 5)
	two := *cp5
	two.Threads = append([]lang.Code(nil), cp5.Threads...)
	lb := lbProgram(t)
	two.Threads[1], two.Threads[3], two.Threads[4] = lb.Threads[0], lb.Threads[0], lb.Threads[0]
	spec5 := &ObsSpec{}
	for i := 0; i < 5; i++ {
		spec5.Regs = append(spec5.Regs, RegObs{TID: i, Reg: 0, Name: fmt.Sprintf("%d:r0", i)})
	}
	spec5.Locs = []lang.Loc{8}
	progs = append(progs, prog{"two-class", &two, spec5})

	rng := rand.New(rand.NewSource(3))
	for _, p := range progs {
		sy := NewSymmetry(p.cp, p.spec)
		if sy == nil {
			t.Fatalf("%s: no symmetry", p.name)
		}
		if p.name == "two-class" && len(sy.classes) != 2 {
			t.Fatalf("two-class: got classes %v", sy.classes)
		}
		for trial := 0; trial < 20; trial++ {
			got, want := newResult(), newResult()
			for k := 0; k < 1+rng.Intn(4); k++ {
				regs := make([]lang.Val, len(p.spec.Regs))
				for i := range regs {
					regs[i] = lang.Val(rng.Intn(3))
				}
				var mem []lang.Val
				if len(p.spec.Locs) > 0 {
					mem = []lang.Val{lang.Val(rng.Intn(2))}
				}
				got.add(Outcome{Regs: regs, Mem: mem}, nil)
				want.add(Outcome{Regs: regs, Mem: mem}, nil)
			}
			sy.CloseOutcomes(got)
			closeAllPerms(sy, p.spec, want)
			if !SameOutcomes(got, want) {
				t.Fatalf("%s: closure has %d outcomes, oracle %d", p.name, len(got.Outcomes), len(want.Outcomes))
			}
			before := len(got.Outcomes)
			sy.CloseOutcomes(got)
			if len(got.Outcomes) != before {
				t.Fatalf("%s: CloseOutcomes not idempotent", p.name)
			}
		}
	}
}

// TestArriveCountsTheExpandedArrival pins how seenSet.Arrive counts a
// state: the first arrival claims its families and counts it, a later
// arrival claims only what is left and never counts it again — even when
// it is the one that expands the state. Insert and claim are one critical
// section, so no arrival can add a state and find it claimed by another.
func TestArriveCountsTheExpandedArrival(t *testing.T) {
	seen := newSeenSet()
	key := []byte("state")
	h, newly, count := seen.Arrive(key, 0b01)
	if newly != 0b01 || !count {
		t.Fatalf("first arrival: claimed %b, count %v; want 1, true", newly, count)
	}
	h2, newly, count := seen.Arrive(key, 0b11)
	if h2 != h || newly != 0b10 || count {
		t.Errorf("second arrival: handle %d (first %d), claimed %b, count %v; want same handle, 10, false", h2, h, newly, count)
	}
	if _, newly, count := seen.Arrive(key, 0b11); newly != 0 || count {
		t.Errorf("third arrival: claimed %b, count %v; want 0, false", newly, count)
	}
	if _, fresh := seen.Add(key); fresh || seen.Len() != 1 {
		t.Errorf("Add after Arrive: fresh %v, Len %d; want false, 1", fresh, seen.Len())
	}

	// After a resume, a state of an earlier leg is counted by nobody, even
	// though this leg has never claimed it.
	resumed := newSeenSet()
	resumed.Import([][]byte{key})
	if _, newly, count := resumed.Arrive(key, 0b01); newly != 0b01 || count {
		t.Errorf("resumed leg: claimed %b, count %v; want 1, false", newly, count)
	}
	if _, newly, count := resumed.Arrive([]byte("new"), 0b01); newly != 0b01 || !count {
		t.Errorf("resumed leg, new state: claimed %b, count %v; want 1, true", newly, count)
	}
}
