package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"promising/internal/lang"
)

// Decoders for the canonical state encodings of encode.go, used by the
// checkpoint/resume layer (explore.Snapshot) to rebuild frontier states
// from their interned byte strings. Decoding is exact: re-encoding a
// decoded state yields byte-identical output, so a resumed exploration
// deduplicates against an imported seen set exactly as the original run
// would have.

// errTruncated reports an encoding that ended mid-field.
var errTruncated = errors.New("core: truncated state encoding")

// decoder is a sequential varint reader over one encoding.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = errTruncated
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) bool() bool { return d.int() != 0 }

// count reads a non-negative length field, guarding against corrupt or
// hostile encodings requesting absurd allocations (every counted element
// is at least one encoded byte).
func (d *decoder) count() int {
	n := d.int()
	if d.err == nil && (n < 0 || n > int64(len(d.b))) {
		d.err = fmt.Errorf("core: invalid length %d in state encoding", n)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// DecodeMemory rebuilds a Memory from EncodeMemory(·, mem, 0), given the
// program's initial values. The whole input must be consumed.
func DecodeMemory(init map[lang.Loc]lang.Val, b []byte) (*Memory, error) {
	d := &decoder{b: b}
	mem := decodeMemory(d, init)
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("core: %d trailing bytes after memory encoding", len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	return mem, nil
}

func decodeMemory(d *decoder, init map[lang.Loc]lang.Val) *Memory {
	mem := NewMemory(init)
	n := d.count()
	for i := 0; i < n; i++ {
		loc := d.int()
		val := d.int()
		tid := d.int()
		mem.Append(Msg{Loc: loc, Val: val, TID: int(tid)})
	}
	return mem
}

// DecodeMachine rebuilds a Machine from Machine.AppendState for the given
// compiled program. The whole input must be consumed.
func DecodeMachine(cp *lang.CompiledProgram, b []byte) (*Machine, error) {
	d := &decoder{b: b}
	m := &Machine{Prog: cp, envs: newEnvs(cp)}
	m.Mem = decodeMemory(d, cp.Init)
	m.Threads = make([]*Thread, len(cp.Threads))
	for tid := range cp.Threads {
		m.Threads[tid] = decodeThread(d)
	}
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("core: %d trailing bytes after machine encoding", len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	return m, nil
}

// decodeThread is the inverse of EncodeThread. Decoded banks contain only
// the non-zero entries the encoder kept, in the encoder's (sorted) order,
// so re-encoding reproduces the input bytes.
func decodeThread(d *decoder) *Thread {
	th := &Thread{TS: &TState{}}
	ts := th.TS

	n := d.count()
	th.Cont = make([]int32, n)
	for i := range th.Cont {
		th.Cont[i] = int32(d.int())
	}
	n = d.count()
	for i := 0; i < n; i++ {
		ts.Prom = append(ts.Prom, Time(d.int()))
	}
	n = d.count()
	ts.Regs = make([]RegVal, n)
	for i := range ts.Regs {
		ts.Regs[i] = RegVal{Val: d.int(), View: View(d.int())}
	}
	n = d.count()
	for i := 0; i < n; i++ {
		ts.Coh = append(ts.Coh, LocView{Loc: d.int(), V: View(d.int())})
	}
	ts.VROld = View(d.int())
	ts.VWOld = View(d.int())
	ts.VRNew = View(d.int())
	ts.VWNew = View(d.int())
	ts.VCAP = View(d.int())
	ts.VRel = View(d.int())
	n = d.count()
	for i := 0; i < n; i++ {
		f := FwdEntry{Loc: d.int()}
		f.F.Time = Time(d.int())
		f.F.View = View(d.int())
		f.F.Xcl = d.bool()
		ts.Fwdb = append(ts.Fwdb, f)
	}
	if d.bool() {
		ts.Xclb = &XclItem{Time: Time(d.int()), View: View(d.int())}
	}
	n = d.count()
	for i := 0; i < n; i++ {
		e := LocalEntry{Loc: d.int()}
		e.RV = RegVal{Val: d.int(), View: View(d.int())}
		ts.Local = append(ts.Local, e)
	}
	ts.BoundExceeded = d.bool()
	return th
}
