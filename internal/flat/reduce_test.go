package flat

import (
	"bytes"
	"math/rand"
	"testing"

	"promising/internal/explore"
	"promising/internal/lang"
)

// claimants builds n identical threads running body, observing every r0:
// one symmetry class of n threads.
func claimants(t *testing.T, n int, body func() lang.Stmt) (*lang.CompiledProgram, *explore.ObsSpec) {
	p := &lang.Program{Arch: lang.ARM}
	spec := &explore.ObsSpec{}
	for i := 0; i < n; i++ {
		p.Threads = append(p.Threads, body())
		spec.Regs = append(spec.Regs, explore.RegObs{TID: i, Reg: 0})
	}
	return compile(t, p), spec
}

// permuteMachine returns π(m): thread t of m becomes thread pi[t], and
// every write's tid is relabeled likewise.
func permuteMachine(m *machine, pi []int) *machine {
	out := m.clone()
	for t, th := range m.threads {
		out.threads[pi[t]] = th
	}
	out.mem = m.mem.clone()
	for _, ws := range out.mem.hist {
		for i := range ws {
			ws[i].tid = pi[ws[i].tid]
		}
	}
	return out
}

// TestCanonicalKeyOrbitInvariantFlat checks the sort-based canonical key
// on reachable flat states of SYM-4 and of a three-thread two-location
// claimant (whose write ordinals span several location histories): the
// key of π(s) equals the key of s for random class permutations π, keys
// partition the states exactly as the least unreduced key over all
// permutations does, and every thread that owns a write or has a unique
// section lands in the same CanonMask slot in s and π(s).
func TestCanonicalKeyOrbitInvariantFlat(t *testing.T) {
	shapes := []struct {
		name string
		n    int
		body func() lang.Stmt
	}{
		{"SYM-4", 4, func() lang.Stmt {
			return lang.Block(
				lang.Load{Dst: 0, Addr: lang.C(x)},
				lang.Store{Succ: 9, Addr: lang.C(x), Data: lang.C(1)},
			)
		}},
		{"two-loc", 3, func() lang.Stmt {
			return lang.Block(
				lang.Load{Dst: 0, Addr: lang.C(x)},
				lang.Store{Succ: 9, Addr: lang.C(y), Data: lang.C(1)},
				lang.Store{Succ: 9, Addr: lang.C(x), Data: lang.C(2)},
			)
		}},
	}
	rng := rand.New(rand.NewSource(1))
	for _, sh := range shapes {
		cp, spec := claimants(t, sh.n, sh.body)
		sy := explore.NewSymmetry(cp, spec)
		if sy.Classes() != 1 {
			t.Fatalf("%s: want one class, got %d", sh.name, sy.Classes())
		}
		// Every permutation of the one class, for the oracle.
		var perms [][]int
		var rec func(p []int, used int)
		rec = func(p []int, used int) {
			if len(p) == sh.n {
				perms = append(perms, append([]int(nil), p...))
				return
			}
			for v := 0; v < sh.n; v++ {
				if used&(1<<v) == 0 {
					rec(append(p, v), used|1<<v)
				}
			}
		}
		rec(nil, 0)

		seen := map[string]bool{}
		queue := []*machine{newMachine(cp)}
		newToOld, oldToNew := map[string]string{}, map[string]string{}
		states := 0
		for len(queue) > 0 && states < 3000 {
			m := queue[0]
			queue = queue[1:]
			if k := m.key(); seen[k] {
				continue
			} else {
				seen[k] = true
			}
			states++
			m.successors(func(s *machine) { queue = append(queue, s) })

			key, order, _ := m.appendSymKey(nil, sy)
			var oracle []byte
			for _, pi := range perms {
				if k := permuteMachine(m, pi).appendKey(nil); oracle == nil || bytes.Compare(k, oracle) < 0 {
					oracle = k
				}
			}
			if o, ok := newToOld[string(key)]; ok && o != string(oracle) {
				t.Fatalf("%s: two orbits share a canonical key", sh.name)
			}
			if k, ok := oldToNew[string(oracle)]; ok && k != string(key) {
				t.Fatalf("%s: one orbit has two canonical keys", sh.name)
			}
			newToOld[string(key)], oldToNew[string(oracle)] = string(oracle), string(key)

			owns := map[int]bool{}
			for _, ws := range m.mem.hist {
				for _, w := range ws {
					owns[w.tid] = true
				}
			}
			for r := 0; r < 3; r++ {
				pi := perms[rng.Intn(len(perms))]
				pkey, porder, _ := permuteMachine(m, pi).appendSymKey(nil, sy)
				if !bytes.Equal(key, pkey) {
					t.Fatalf("%s: key of π(s) differs from key of s (π = %v)", sh.name, pi)
				}
				for th := 0; th < sh.n; th++ {
					if explore.CanonMask(1<<th, order) == explore.CanonMask(1<<pi[th], porder) {
						continue
					}
					// Only a tied thread (no writes, a section shared with
					// another writer-free thread) may change slot.
					tied := false
					for u := 0; u < sh.n; u++ {
						tied = tied || (u != th && !owns[th] && !owns[u] &&
							bytes.Equal(m.appendThreadKey(nil, th), m.appendThreadKey(nil, u)))
					}
					if !tied {
						t.Fatalf("%s: untied thread %d changed canonical slot under π = %v", sh.name, th, pi)
					}
				}
			}
		}
		if states < 500 {
			t.Fatalf("%s: only %d states reached", sh.name, states)
		}
		t.Logf("%s: %d states, %d orbits", sh.name, states, len(oldToNew))
	}
}

// TestMemoryLocsStaySorted checks the memory's location list against its
// histories across pushes onto clones: the key walks locs, so a clone's
// push must not leak into the memory it was cloned from.
func TestMemoryLocsStaySorted(t *testing.T) {
	m := newMemory(nil)
	m.push(16, 1, 0)
	c := m.clone()
	c.push(8, 2, 1)
	c.push(24, 3, 1)
	m.push(4, 4, 0)
	for _, mem := range []*memory{m, c} {
		if len(mem.locs) != len(mem.hist) {
			t.Fatalf("locs %v, hist has %d locations", mem.locs, len(mem.hist))
		}
		for i, l := range mem.locs {
			if _, ok := mem.hist[l]; !ok || (i > 0 && mem.locs[i-1] >= l) {
				t.Fatalf("locs %v not the sorted history locations", mem.locs)
			}
		}
	}
}
