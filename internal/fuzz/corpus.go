package fuzz

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"promising/internal/litmus"
	"promising/internal/store"
)

// The corpus is the campaign's persistent memory: every interesting test —
// one per distinct behaviour signature, plus every disagreement reproducer
// and its shrunk form — lives as a pair of files in the corpus directory:
//
//	<hash>.litmus   the test, in the litmus text format (replayable as-is)
//	<hash>.json     Meta: seed, mutation lineage, per-backend verdicts,
//	                shrink trace
//
// where <hash> is the content address (Identity: the SHA-256 of the
// canonicalised source with the name directive stripped, so renaming a
// test does not duplicate it). A corpus can also live purely in memory
// (dir == ""), which the short-lived campaign tests use.

// Identity returns the content address of a litmus source: SourceHash of
// the text minus its name directive. Campaign dedup, corpus filenames and
// the campaign verdict cache all key on it, so cosmetic renames neither
// duplicate corpus entries nor miss cache hits.
func Identity(src string) string {
	var b strings.Builder
	for _, line := range strings.Split(src, "\n") {
		// Strip name *directives* only: "name MP+fences". A statement line
		// like "name = load [x];" (a register legitimately called name)
		// is content, and must stay part of the address.
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "name "); ok {
			rest = strings.TrimSpace(rest)
			if !strings.HasPrefix(rest, "=") && !strings.HasPrefix(rest, ":=") {
				continue
			}
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return litmus.SourceHash(b.String())
}

// canonIdentityMaxThreads caps the permutation enumeration in
// CanonicalIdentity: beyond this the orbit is left unexplored and the
// plain Identity stands in (the orbit has n! members, each costing one
// Format + hash; 6! = 720 is the most a single candidate may spend).
const canonIdentityMaxThreads = 6

// CanonicalIdentity returns a thread-symmetry-invariant content address:
// the least Identity over every thread permutation of the parsed test,
// with the condition and observation spec remapped to follow the threads
// and the observation list sorted into a permutation-independent order.
// Thread IDs carry no semantics beyond labelling (the same fact the
// explorers' symmetry canonicalization rests on), so two candidates that
// differ only by a thread renumbering share the canonical address and the
// campaign can skip the permuted twin instead of re-running an
// exploration that collapses to the same state space anyway. Corpus
// filenames and verdict-cache keys deliberately stay on the plain
// Identity — the canonical form gates duplicate work, never storage.
//
// Sources that fail to parse, or have fewer than two or more than
// canonIdentityMaxThreads threads, fall back to the plain Identity.
func CanonicalIdentity(src string) string {
	t, err := litmus.Parse(src)
	if err != nil {
		return Identity(src)
	}
	n := len(t.Prog.Threads)
	if n < 2 || n > canonIdentityMaxThreads {
		return Identity(src)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := ""
	for {
		cand := litmus.PermuteThreads(t, perm)
		if cand.Obs != nil {
			sortObs(cand)
		}
		if id := Identity(litmus.Format(cand)); best == "" || id < best {
			best = id
		}
		if !nextPerm(perm) {
			return best
		}
	}
}

// sortObs orders the observed registers by (thread, register name) and
// the observed locations by address — both permutation-independent, so a
// reordered observation list never defeats the orbit minimisation.
// Outcome tuples are never built from the sorted copy; it exists only to
// be formatted and hashed.
func sortObs(t *litmus.Test) {
	sort.Slice(t.Obs.Regs, func(i, j int) bool {
		a, b := t.Obs.Regs[i], t.Obs.Regs[j]
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return t.Prog.RegName(a.TID, a.Reg) < t.Prog.RegName(b.TID, b.Reg)
	})
	sort.Slice(t.Obs.Locs, func(i, j int) bool { return t.Obs.Locs[i] < t.Obs.Locs[j] })
}

// nextPerm advances p to its lexicographic successor, reporting false
// once p is the last (descending) permutation.
func nextPerm(p []int) bool {
	i := len(p) - 2
	for i >= 0 && p[i] >= p[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := len(p) - 1
	for p[j] <= p[i] {
		j--
	}
	p[i], p[j] = p[j], p[i]
	for l, r := i+1, len(p)-1; l < r; l, r = l+1, r-1 {
		p[l], p[r] = p[r], p[l]
	}
	return true
}

// BackendVerdict is one backend's recorded verdict on a corpus entry.
type BackendVerdict struct {
	// Status is pass, timeout, aborted, error or crash (litmus.Status plus
	// the fuzzer's panic status).
	Status string `json:"status"`
	// Fingerprint is the canonical outcome-set hash (complete runs only);
	// two backends agree exactly when their fingerprints are equal.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Outcomes and States size the exploration.
	Outcomes int `json:"outcomes,omitempty"`
	States   int `json:"states,omitempty"`
}

// Meta is the sidecar metadata of one corpus entry.
type Meta struct {
	// Seed is the generator seed (fresh generations only).
	Seed int64 `json:"seed,omitempty"`
	// Profile and Arch record what the entry was generated from.
	Profile string `json:"profile,omitempty"`
	Arch    string `json:"arch,omitempty"`
	// Parent is the corpus entry this one was mutated from; Lineage lists
	// the mutation operators applied, oldest first (accumulated across
	// generations).
	Parent  string   `json:"parent,omitempty"`
	Lineage []string `json:"lineage,omitempty"`
	// Verdicts records the differential run that admitted the entry;
	// Epoch the model-semantics version (backends.SemanticsEpoch) they
	// were computed under. Replay only checks outcome drift against
	// verdicts from the current epoch — after a deliberate semantics fix,
	// old fingerprints are expected to differ and must not be re-flagged
	// as regressions.
	Verdicts map[string]BackendVerdict `json:"verdicts,omitempty"`
	Epoch    string                    `json:"epoch,omitempty"`
	// Coverage is the behaviour signature the entry was admitted for.
	Coverage string `json:"coverage,omitempty"`
	// Kind is "" for coverage entries, "disagreement" or "crash" for
	// findings.
	Kind string `json:"kind,omitempty"`
	// Disagree lists the backends whose outcome set differed from the
	// oracle's (disagreement findings).
	Disagree []string `json:"disagree,omitempty"`
	// ShrunkFrom is the hash of the original (unshrunk) finding;
	// ShrinkTrace the reduction steps that led here.
	ShrunkFrom  string   `json:"shrunk_from,omitempty"`
	ShrinkTrace []string `json:"shrink_trace,omitempty"`
	// CreatedUnix is the admission time (unix seconds).
	CreatedUnix int64 `json:"created_unix,omitempty"`
}

// Entry is one corpus test.
type Entry struct {
	Hash   string
	Source string
	Meta   Meta
}

// Corpus is the deduplicated test store shared by all campaign workers.
type Corpus struct {
	dir string

	mu     sync.Mutex
	byHash map[string]*Entry
	order  []string // insertion order (load order for persisted corpora)
}

// OpenCorpus opens (or creates) the corpus at dir, loading every persisted
// entry. dir == "" yields a memory-only corpus.
func OpenCorpus(dir string) (*Corpus, error) {
	c := &Corpus{dir: dir, byHash: map[string]*Entry{}}
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fuzz: corpus dir: %w", err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fuzz: corpus dir: %w", err)
	}
	names := make([]string, 0, len(des))
	for _, de := range des {
		if !de.IsDir() && strings.HasSuffix(de.Name(), ".litmus") {
			names = append(names, de.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("fuzz: corpus entry %s: %w", name, err)
		}
		e := &Entry{Hash: strings.TrimSuffix(name, ".litmus"), Source: string(raw)}
		if mraw, err := os.ReadFile(filepath.Join(dir, e.Hash+".json")); err == nil {
			// A missing or corrupt sidecar only loses metadata, never the
			// test.
			_ = json.Unmarshal(mraw, &e.Meta)
		}
		c.byHash[e.Hash] = e
		c.order = append(c.order, e.Hash)
	}
	return c, nil
}

// Dir returns the corpus directory ("" for memory-only corpora).
func (c *Corpus) Dir() string { return c.dir }

// Len returns the number of entries.
func (c *Corpus) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byHash)
}

// Entries snapshots the corpus in insertion order. Entries are shallow
// copies; an entry is never changed after Add, so a snapshot stays
// consistent.
func (c *Corpus) Entries() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, 0, len(c.order))
	for _, h := range c.order {
		out = append(out, *c.byHash[h])
	}
	return out
}

// Get returns a snapshot of the entry with the given hash.
func (c *Corpus) Get(hash string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byHash[hash]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// Add inserts a test (content-addressed on Identity(src)), persisting it
// when the corpus has a directory. It reports whether the entry is new; an
// existing entry is returned unchanged.
func (c *Corpus) Add(src string, meta Meta) (Entry, bool, error) {
	hash := Identity(src)
	c.mu.Lock()
	if e, ok := c.byHash[hash]; ok {
		out := *e
		c.mu.Unlock()
		return out, false, nil
	}
	e := &Entry{Hash: hash, Source: src, Meta: meta}
	c.byHash[hash] = e
	c.order = append(c.order, hash)
	out := *e
	c.mu.Unlock()
	// The entry never changes after Add, so its files are written outside
	// the lock: their fsyncs do not stall workers picking from the corpus.
	return out, true, c.persist(&out)
}

// Pick returns a snapshot of a pseudo-random entry (ok == false when the
// corpus is empty). The caller owns rng.
func (c *Corpus) Pick(rng *rand.Rand) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.order) == 0 {
		return Entry{}, false
	}
	return *c.byHash[c.order[rng.Intn(len(c.order))]], true
}

func (c *Corpus) persist(e *Entry) error {
	if c.dir == "" {
		return nil
	}
	if err := store.WriteFile(filepath.Join(c.dir, e.Hash+".litmus"), []byte(e.Source), 0o644); err != nil {
		return fmt.Errorf("fuzz: persist %s: %w", e.Hash, err)
	}
	raw, err := json.MarshalIndent(e.Meta, "", "  ")
	if err != nil {
		return fmt.Errorf("fuzz: persist %s: %w", e.Hash, err)
	}
	if err := store.WriteFile(filepath.Join(c.dir, e.Hash+".json"), append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("fuzz: persist %s: %w", e.Hash, err)
	}
	return nil
}
