package core

import (
	"encoding/binary"
	"sync"
)

// Canonical state encodings. Exploration deduplicates on these byte
// strings — interned to dense handles through the Interner (intern.go) —
// and certification memoises on them; everything observable about a state
// must be included, in a deterministic order.

// FNV-1a constants.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash64 returns the FNV-1a hash of b.
func Hash64(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// encPool recycles encode buffers: state encoding is the hottest allocation
// site of the explorers, and the buffers are same-sized and short-lived.
var encPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// GetEncBuf returns an empty encode buffer from the pool.
func GetEncBuf() []byte { return (*(encPool.Get().(*[]byte)))[:0] }

// PutEncBuf recycles a buffer obtained from GetEncBuf.
func PutEncBuf(b []byte) { encPool.Put(&b) }

func appendInt(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// EncodeThread appends a canonical encoding of th to b.
func EncodeThread(b []byte, th *Thread) []byte {
	b = appendInt(b, int64(len(th.Cont)))
	for _, n := range th.Cont {
		b = appendInt(b, int64(n))
	}
	ts := th.TS
	b = appendInt(b, int64(len(ts.Prom)))
	for _, t := range ts.Prom {
		b = appendInt(b, int64(t))
	}
	b = appendInt(b, int64(len(ts.Regs)))
	for _, rv := range ts.Regs {
		b = appendInt(b, rv.Val)
		b = appendInt(b, int64(rv.View))
	}
	b = append(b, ts.cohEnc()...)
	b = appendInt(b, int64(ts.VROld))
	b = appendInt(b, int64(ts.VWOld))
	b = appendInt(b, int64(ts.VRNew))
	b = appendInt(b, int64(ts.VWNew))
	b = appendInt(b, int64(ts.VCAP))
	b = appendInt(b, int64(ts.VRel))
	b = append(b, ts.fwdbEnc()...)
	if ts.Xclb != nil {
		b = appendInt(b, 1)
		b = appendInt(b, int64(ts.Xclb.Time))
		b = appendInt(b, int64(ts.Xclb.View))
	} else {
		b = appendInt(b, 0)
	}
	b = append(b, ts.localEnc()...)
	if ts.BoundExceeded {
		b = appendInt(b, 1)
	} else {
		b = appendInt(b, 0)
	}
	return b
}

// The bank encoders iterate the sorted-slice banks directly (LocViews,
// FwdBank, Locals keep themselves sorted by location), skipping zero
// entries so a bank that was written and reset encodes like an untouched
// one.
//
// Bank encodings are cached on the TState (the encCoh/encFwdb/encLocal
// fields) and invalidated by the step rules that mutate each bank, so a
// state that only changed one bank since its parent re-serialises only
// that bank. encZeroBank is the canonical encoding of an empty (or
// all-zero) bank, shared so untouched banks never allocate a cache.

var encZeroBank = []byte{0} // varint 0: zero live entries

func (ts *TState) cohEnc() []byte {
	if ts.encCoh == nil {
		if len(ts.Coh) == 0 {
			ts.encCoh = encZeroBank
		} else {
			ts.encCoh = appendLocViews(nil, ts.Coh)
		}
	}
	return ts.encCoh
}

func (ts *TState) fwdbEnc() []byte {
	if ts.encFwdb == nil {
		if len(ts.Fwdb) == 0 {
			ts.encFwdb = encZeroBank
		} else {
			ts.encFwdb = appendFwdb(nil, ts.Fwdb)
		}
	}
	return ts.encFwdb
}

func (ts *TState) localEnc() []byte {
	if ts.encLocal == nil {
		if len(ts.Local) == 0 {
			ts.encLocal = encZeroBank
		} else {
			ts.encLocal = appendLocals(nil, ts.Local)
		}
	}
	return ts.encLocal
}

func appendLocViews(b []byte, m LocViews) []byte {
	n := 0
	for _, e := range m {
		if e.V != 0 {
			n++
		}
	}
	b = appendInt(b, int64(n))
	for _, e := range m {
		if e.V == 0 {
			continue
		}
		b = appendInt(b, e.Loc)
		b = appendInt(b, int64(e.V))
	}
	return b
}

func appendFwdb(b []byte, m FwdBank) []byte {
	n := 0
	for _, e := range m {
		if e.F != (FwdItem{}) {
			n++
		}
	}
	b = appendInt(b, int64(n))
	for _, e := range m {
		if e.F == (FwdItem{}) {
			continue
		}
		b = appendInt(b, e.Loc)
		b = appendInt(b, int64(e.F.Time))
		b = appendInt(b, int64(e.F.View))
		if e.F.Xcl {
			b = appendInt(b, 1)
		} else {
			b = appendInt(b, 0)
		}
	}
	return b
}

func appendLocals(b []byte, m Locals) []byte {
	b = appendInt(b, int64(len(m)))
	for _, e := range m {
		b = appendInt(b, e.Loc)
		b = appendInt(b, e.RV.Val)
		b = appendInt(b, int64(e.RV.View))
	}
	return b
}

// EncodeMemory appends the messages with timestamp > from. Promise-first
// phase 1 interns this encoding as the whole state key (a promise-only
// state is fully determined by the memory contents).
func EncodeMemory(b []byte, mem *Memory, from Time) []byte {
	msgs := mem.Msgs()
	b = appendInt(b, int64(len(msgs)-from))
	for _, w := range msgs[from:] {
		b = appendInt(b, w.Loc)
		b = appendInt(b, w.Val)
		b = appendInt(b, int64(w.TID))
	}
	return b
}

// EncodeMemoryOwners is EncodeMemory (from timestamp 0) that also
// appends to tidAt the offset in b of every message's thread id, in
// timestamp order. A message's TID is the only thread-indexed datum in a
// memory, and a thread id below 64 encodes as the single varint byte
// 2*tid, so the thread-symmetry reduction relabels threads by rewriting
// those bytes in place (explore.Symmetry.CanonicalState). The message
// sequence itself is never reordered: timestamps are thread-neutral.
func EncodeMemoryOwners(b []byte, mem *Memory, tidAt []int) ([]byte, []int) {
	b = appendInt(b, int64(len(mem.msgs)))
	for _, w := range mem.msgs {
		b = appendInt(b, w.Loc)
		b = appendInt(b, w.Val)
		tidAt = append(tidAt, len(b))
		b = appendInt(b, int64(w.TID))
	}
	return b, tidAt
}
