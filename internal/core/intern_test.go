package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"promising/internal/lang"
)

// TestInternerConcurrent hammers one Interner from many goroutines over an
// overlapping key set: every goroutine must observe the same handle per
// key, exactly one goroutine wins first sight of each key, and handles are
// dense 1..n.
func TestInternerConcurrent(t *testing.T) {
	in := NewInterner()
	const keys = 2000
	const workers = 8
	handles := make([][]Handle, workers)
	fresh := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			handles[w] = make([]Handle, keys)
			for i := 0; i < keys; i++ {
				// Interleave orders so goroutines race on the same keys.
				k := i
				if w%2 == 1 {
					k = keys - 1 - i
				}
				h, f := in.Intern([]byte(fmt.Sprintf("key-%d", k)))
				handles[w][k] = h
				if f {
					fresh[w]++
				}
			}
		}(w)
	}
	wg.Wait()

	total := 0
	for _, n := range fresh {
		total += n
	}
	if total != keys {
		t.Fatalf("%d first-sights, want %d", total, keys)
	}
	if in.Len() != keys {
		t.Fatalf("Len() = %d, want %d", in.Len(), keys)
	}
	seen := make(map[Handle]bool, keys)
	for i := 0; i < keys; i++ {
		h := handles[0][i]
		if h == 0 || uint64(h) > keys {
			t.Fatalf("key %d: handle %d outside dense range 1..%d", i, h, keys)
		}
		if seen[h] {
			t.Fatalf("handle %d assigned to two keys", h)
		}
		seen[h] = true
		for w := 1; w < workers; w++ {
			if handles[w][i] != h {
				t.Fatalf("key %d: worker %d got handle %d, worker 0 got %d", i, w, handles[w][i], h)
			}
		}
	}
}

// TestInternerClaimConcurrent races Claim from several goroutines over
// shared keys, with overlapping want masks, and keys only one goroutine
// claims. Per key there must be one handle and exactly one first claim,
// and the newly claimed sets must be disjoint and add up to the union of
// the wants: every family is claimed once, by exactly one caller.
func TestInternerClaimConcurrent(t *testing.T) {
	in := NewInterner()
	const workers = 6
	const shared = 300
	const own = 50
	type claim struct {
		h     Handle
		newly uint32
		first bool
	}
	// Worker w wants families w and w+1 in its first claim on a key and
	// families w+2 and w+3 in its second, so neighbours' wants overlap.
	wants := func(w int) [2]uint32 { return [2]uint32{0b11 << w, 0b11 << (w + 2)} }
	keys := func(w int) []string {
		var ks []string
		for i := 0; i < shared; i++ {
			k := i
			if w%2 == 1 {
				k = shared - 1 - i
			}
			ks = append(ks, fmt.Sprintf("shared-%d", k))
			if i < own {
				ks = append(ks, fmt.Sprintf("own-%d-%d", w, i))
			}
		}
		return ks
	}
	got := make([]map[string][]claim, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make(map[string][]claim)
			for _, want := range wants(w) {
				for _, k := range keys(w) {
					h, newly, first := in.Claim([]byte(k), want)
					got[w][k] = append(got[w][k], claim{h, newly, first})
				}
			}
		}(w)
	}
	wg.Wait()

	type tally struct {
		h            Handle
		firsts       int
		newly, wants uint32
	}
	per := map[string]*tally{}
	for w := 0; w < workers; w++ {
		ws := wants(w)
		for k, cs := range got[w] {
			tl := per[k]
			if tl == nil {
				tl = &tally{h: cs[0].h}
				per[k] = tl
			}
			for i, c := range cs {
				if c.h != tl.h {
					t.Fatalf("key %s: handles %d and %d", k, c.h, tl.h)
				}
				if c.first {
					tl.firsts++
				}
				if c.newly&^ws[i] != 0 {
					t.Fatalf("key %s: worker %d claimed %b outside its want %b", k, w, c.newly, ws[i])
				}
				if c.newly&tl.newly != 0 {
					t.Fatalf("key %s: families %b claimed twice", k, c.newly&tl.newly)
				}
				tl.newly |= c.newly
				tl.wants |= ws[i]
			}
		}
	}
	if len(per) != shared+workers*own || in.Len() != len(per) {
		t.Fatalf("%d keys claimed, Len() = %d; want %d", len(per), in.Len(), shared+workers*own)
	}
	handles := map[Handle]string{}
	for k, tl := range per {
		if tl.firsts != 1 {
			t.Errorf("key %s: %d first claims, want 1", k, tl.firsts)
		}
		if tl.newly != tl.wants {
			t.Errorf("key %s: claimed %b in all, want the union of the wants %b", k, tl.newly, tl.wants)
		}
		if o, dup := handles[tl.h]; dup {
			t.Errorf("keys %s and %s share handle %d", k, o, tl.h)
		}
		handles[tl.h] = k
	}

	// An interned key is unclaimed: its first Claim reports first, also
	// with an empty want, and a second Claim does not.
	h, _ := in.Intern([]byte("interned"))
	if h2, newly, first := in.Claim([]byte("interned"), 0); h2 != h || newly != 0 || !first {
		t.Errorf("first Claim on an interned key: handle %d (want %d), newly %b, first %v", h2, h, newly, first)
	}
	if _, _, first := in.Claim([]byte("interned"), 0b1); first {
		t.Error("second Claim on an interned key reported first")
	}
}

// TestInternerExportSince checks the delta-export cursor: ExportSince(n)
// returns exactly the encodings interned after a Len() = n observation,
// even when the inserts raced across goroutines, and an export taken at
// the cursor plus the delta re-imports to an equivalent interner.
func TestInternerExportSince(t *testing.T) {
	in := NewInterner()
	for i := 0; i < 100; i++ {
		in.Intern([]byte(fmt.Sprintf("base-%d", i)))
	}
	cursor := in.Len()
	base := in.Export()
	if got := in.ExportSince(cursor); len(got) != 0 {
		t.Fatalf("ExportSince(Len()) returned %d entries, want 0", len(got))
	}

	// Concurrent second wave, racing on an overlapping key set.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				in.Intern([]byte(fmt.Sprintf("delta-%d", (i+13*w)%50)))
			}
		}(w)
	}
	wg.Wait()

	delta := in.ExportSince(cursor)
	if len(delta) != 50 {
		t.Fatalf("ExportSince(%d) returned %d entries, want 50", cursor, len(delta))
	}
	seen := map[string]bool{}
	for _, e := range delta {
		s := string(e)
		if !strings.HasPrefix(s, "delta-") {
			t.Fatalf("delta export contains pre-cursor entry %q", s)
		}
		if seen[s] {
			t.Fatalf("delta export contains %q twice", s)
		}
		seen[s] = true
	}

	// The cursor-time export plus the delta covers the full set: importing
	// the two halves reproduces every key.
	full := in.Export()
	if len(full) != cursor+len(delta) {
		t.Fatalf("Export() has %d entries, want %d", len(full), cursor+len(delta))
	}
	re := NewInterner()
	re.Import(base)
	re.Import(delta)
	if re.Len() != in.Len() {
		t.Fatalf("re-imported interner has %d entries, want %d", re.Len(), in.Len())
	}
	for _, e := range full {
		if _, fresh := re.Intern(e); fresh {
			t.Fatalf("key %q missing after split import", e)
		}
	}

	// ExportSince(0) must equal Export.
	since0 := in.ExportSince(0)
	if len(since0) != len(full) {
		t.Fatalf("ExportSince(0) has %d entries, want %d", len(since0), len(full))
	}
}

// certStressProgram is a small program with promises worth certifying:
// the LB shape, where each thread's store can be promised before its load.
func certStressProgram(t *testing.T) *lang.CompiledProgram {
	t.Helper()
	x, y := lang.Loc(8), lang.Loc(16)
	prog := &lang.Program{
		Arch: lang.ARM,
		Threads: []lang.Stmt{
			lang.Block(lang.Load{Dst: 0, Addr: lang.C(int64(x))}, lang.Store{Addr: lang.C(int64(y)), Data: lang.C(1)}),
			lang.Block(lang.Load{Dst: 0, Addr: lang.C(int64(y))}, lang.Store{Addr: lang.C(int64(x)), Data: lang.C(1)}),
		},
	}
	cp, err := lang.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestCertCacheConcurrent stresses one shared CertCache from many
// goroutines running every certification entry point (the cache's
// Certified and FindAndCertify, and the call-scoped CertifyAndComplete)
// over the machine states of a promise-heavy program, checking all
// goroutines agree with an uncached reference. Run under -race this
// doubles as the interner/cache data-race test.
func TestCertCacheConcurrent(t *testing.T) {
	cp := certStressProgram(t)
	m0 := NewMachine(cp)

	// A few interesting configurations: the initial machine, and each
	// thread having promised its store.
	type config struct {
		m *Machine
	}
	configs := []config{{m: m0}}
	for _, s := range m0.Successors(true) {
		configs = append(configs, config{m: s.M})
		for _, s2 := range s.M.Successors(true) {
			configs = append(configs, config{m: s2.M})
		}
	}

	// Uncached reference results.
	type ref struct {
		certified []bool
		promises  []string
	}
	refs := make([]ref, len(configs))
	promKey := func(ms []Msg) string {
		ss := make([]string, len(ms))
		for i, w := range ms {
			ss[i] = fmt.Sprintf("%d:%d:%d", w.Loc, w.Val, w.TID)
		}
		sort.Strings(ss)
		return fmt.Sprint(ss)
	}
	for i, cfg := range configs {
		for tid := range cfg.m.Threads {
			refs[i].certified = append(refs[i].certified,
				certified(cfg.m.Env(tid), cfg.m.Threads[tid], cfg.m.Mem))
			refs[i].promises = append(refs[i].promises,
				promKey(findAndCertify(cfg.m.Env(tid), cfg.m.Threads[tid], cfg.m.Mem)))
		}
	}

	cc := NewCertCache()
	const workers = 8
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(configs)
				cfg, want := configs[i], refs[i]
				for tid := range cfg.m.Threads {
					env, th := cfg.m.Env(tid), cfg.m.Threads[tid]
					if got := cc.Certified(env, th, cfg.m.Mem); got != want.certified[tid] {
						errs <- fmt.Errorf("config %d tid %d: Certified = %v, want %v", i, tid, got, want.certified[tid])
						return
					}
					if got := promKey(cc.FindAndCertify(env, th, cfg.m.Mem)); got != want.promises[tid] {
						errs <- fmt.Errorf("config %d tid %d: FindAndCertify = %v, want %v", i, tid, got, want.promises[tid])
						return
					}
					r := CertifyAndComplete(env, th, cfg.m.Mem, nil, nil, false)
					if got := promKey(r.Promises); got != want.promises[tid] {
						errs <- fmt.Errorf("config %d tid %d: CertifyAndComplete promises = %v, want %v", i, tid, got, want.promises[tid])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := cc.Stats(); st.Misses == 0 || st.Hits == 0 || st.Entries == 0 {
		t.Errorf("stress run should populate and hit the cache, got %+v", st)
	}
}
