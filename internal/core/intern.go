package core

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// The interning layer: exploration-wide state identity.
//
// Everything the explorers deduplicate or memoise on — machine states,
// phase-1 memories, certification search states, phase-2 thread states —
// starts life as a canonical byte encoding (encode.go). Interning maps each
// distinct encoding to a dense 64-bit Handle exactly once, so the byte
// string is copied and hashed into a map a single time per exploration
// instead of once per lookup site, and every downstream table (the
// certification cache, per-thread completion memos) keys on 8-byte handles
// instead of variable-length strings. The engine's seen set is an Interner
// itself, and the interleaving driver's per-state family claims live in
// its entries (Claim), so interning and claiming a state is one lookup
// under one lock.

// Handle is a dense 64-bit identifier for an interned encoding. Handles
// are assigned from 1 in first-sight order; 0 is never issued, so it can
// serve as a sentinel. Two encodings interned through the same Interner
// have equal handles iff their bytes are equal; handles from different
// Interners (or different encoding domains) are not comparable.
type Handle uint64

// internShards is the shard count of an Interner (a power of two,
// comfortably above any plausible worker count so stripes rarely collide).
const internShards = 64

// Interner is a sharded, concurrency-safe map from canonical encodings to
// dense handles. Each entry also carries a claim word (Claim), so a run
// that claims work per state keeps one table, not two. The zero value is
// not usable; call NewInterner.
type Interner struct {
	next   atomic.Uint64
	seed   maphash.Seed
	shards [internShards]internShard
}

type internShard struct {
	mu sync.Mutex
	// m maps each encoding to its entry's index in log.
	m map[string]int32
	// log records insertions in shard-local order. Handles are assigned
	// under the shard lock, so within one shard the logged handles are
	// strictly increasing — which is what lets ExportSince walk each log
	// backwards and stop at the cursor instead of scanning the whole map.
	// The strings share backing bytes with the map keys, so the log costs
	// one entry per state, not a second copy of the encoding.
	log []internEntry
}

type internEntry struct {
	h Handle
	k string
	// claim is the entry's claim word: the families claimed so far (bits
	// 0-29) and claimedBit once any Claim reached the entry.
	claim uint32
}

// claimedBit marks an entry that some Claim has reached, which is what
// lets Claim report the first claim even when its want is empty or the
// entry was interned by Intern (an imported snapshot state).
const claimedBit = 1 << 31

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	in := &Interner{seed: maphash.MakeSeed()}
	for i := range in.shards {
		in.shards[i].m = make(map[string]int32)
	}
	return in
}

// lookup locks b's shard and returns it with b's entry, inserting the
// entry under the next dense handle when the bytes are new (fresh). The
// caller unlocks the shard; the bytes are copied on insertion.
func (in *Interner) lookup(b []byte) (sh *internShard, e *internEntry, fresh bool) {
	sh = &in.shards[maphash.Bytes(in.seed, b)&(internShards-1)]
	sh.mu.Lock()
	i, ok := sh.m[string(b)]
	if !ok {
		i = int32(len(sh.log))
		k := string(b)
		sh.m[k] = i
		sh.log = append(sh.log, internEntry{h: Handle(in.next.Add(1)), k: k})
	}
	return sh, &sh.log[i], !ok
}

// Intern returns the handle of b, assigning the next dense handle when the
// bytes are new; fresh reports first sight. The check-and-insert is atomic
// (exactly one caller wins any race on the same bytes), and the bytes are
// copied on insertion, so callers may recycle b (see GetEncBuf/PutEncBuf).
func (in *Interner) Intern(b []byte) (h Handle, fresh bool) {
	sh, e, fresh := in.lookup(b)
	h = e.h
	sh.mu.Unlock()
	return h, fresh
}

// Claim interns b like Intern and, in the same critical section, claims
// the families in want (at most bits 0-29) there. It returns the handle,
// newly — the part of want no earlier Claim on b took — and first, which
// reports the first Claim on b since it was interned. Concurrent Claims on
// one key therefore see one handle, exactly one first, and disjoint newly
// sets whose union is the union of their wants.
func (in *Interner) Claim(b []byte, want uint32) (h Handle, newly uint32, first bool) {
	sh, e, _ := in.lookup(b)
	h, newly, first = e.h, want&^e.claim, e.claim&claimedBit == 0
	e.claim |= want | claimedBit
	sh.mu.Unlock()
	return h, newly, first
}

// Len returns the number of distinct encodings interned so far.
func (in *Interner) Len() int { return int(in.next.Load()) }

// Export returns a copy of every interned encoding. The order is
// unspecified (callers that need a canonical order — snapshots — sort the
// byte strings); handles are deliberately not exported, because nothing
// may depend on handle values across interner lifetimes. Export must not
// race with Intern calls that the caller wants included.
func (in *Interner) Export() [][]byte { return in.ExportSince(0) }

// ExportSince returns a copy of every encoding interned after the first
// cursor insertions — the high-water-cursor form of Export that makes
// delta snapshots O(new states) instead of O(states). cursor is a Len()
// value observed earlier; ExportSince(0) is Export. The order is
// unspecified, like Export's, and the same no-racing caveat applies.
func (in *Interner) ExportSince(cursor int) [][]byte {
	cursor = max(cursor, 0)
	out := make([][]byte, 0, max(in.Len()-cursor, 0))
	for i := range in.shards {
		sh := &in.shards[i]
		sh.mu.Lock()
		for j := len(sh.log) - 1; j >= 0 && sh.log[j].h > Handle(cursor); j-- {
			out = append(out, []byte(sh.log[j].k))
		}
		sh.mu.Unlock()
	}
	return out
}

// Import interns every encoding in entries (duplicates are harmless),
// rebuilding a set exported from another interner. Handles are reassigned
// in iteration order; only membership survives an export/import cycle.
func (in *Interner) Import(entries [][]byte) {
	for _, b := range entries {
		in.Intern(b)
	}
}
