package core

import (
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
// instead of once per lookup site, and every downstream table (the engine's
// seen set, the certification cache, per-thread completion memos) keys on
// 8-byte handles instead of variable-length strings.

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
// dense handles. The zero value is not usable; call NewInterner.
type Interner struct {
	next   atomic.Uint64
	shards [internShards]internShard
}

type internShard struct {
	mu sync.Mutex
	m  map[string]Handle
	// log records insertions in shard-local order. Handles are assigned
	// under the shard lock, so within one shard the logged handles are
	// strictly increasing — which is what lets ExportSince walk each log
	// backwards and stop at the cursor instead of scanning the whole map.
	// The strings share backing bytes with the map keys, so the log costs
	// one slice header per entry, not a second copy of the encoding.
	log []internEntry
}

type internEntry struct {
	h Handle
	k string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	in := &Interner{}
	for i := range in.shards {
		in.shards[i].m = make(map[string]Handle)
	}
	return in
}

// Intern returns the handle of b, assigning the next dense handle when the
// bytes are new; fresh reports first sight. The check-and-insert is atomic
// (exactly one caller wins any race on the same bytes), and the bytes are
// copied on insertion, so callers may recycle b (see GetEncBuf/PutEncBuf).
func (in *Interner) Intern(b []byte) (h Handle, fresh bool) {
	sh := &in.shards[Hash64(b)&(internShards-1)]
	sh.mu.Lock()
	if h, ok := sh.m[string(b)]; ok {
		sh.mu.Unlock()
		return h, false
	}
	h = Handle(in.next.Add(1))
	k := string(b)
	sh.m[k] = h
	sh.log = append(sh.log, internEntry{h: h, k: k})
	sh.mu.Unlock()
	return h, true
}

// Len returns the number of distinct encodings interned so far.
func (in *Interner) Len() int { return int(in.next.Load()) }

// Export returns a copy of every interned encoding. The order is
// unspecified (callers that need a canonical order — snapshots — sort the
// byte strings); handles are deliberately not exported, because nothing
// may depend on handle values across interner lifetimes. Export must not
// race with Intern calls that the caller wants included.
func (in *Interner) Export() [][]byte {
	out := make([][]byte, 0, in.Len())
	for i := range in.shards {
		sh := &in.shards[i]
		sh.mu.Lock()
		for k := range sh.m {
			out = append(out, []byte(k))
		}
		sh.mu.Unlock()
	}
	return out
}

// ExportSince returns a copy of every encoding interned after the first
// cursor insertions — the high-water-cursor form of Export that makes
// delta snapshots O(new states) instead of O(states). cursor is a Len()
// value observed earlier; ExportSince(0) is Export. The order is
// unspecified, like Export's, and the same no-racing caveat applies.
func (in *Interner) ExportSince(cursor int) [][]byte {
	if cursor <= 0 {
		return in.Export()
	}
	var out [][]byte
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
