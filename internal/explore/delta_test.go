package explore

import (
	"fmt"
	"testing"

	"promising/internal/lang"
)

// TestDeltaSnapshotByteEquivalence is the deterministic byte-compare of
// the two emission paths over one shared engine state: a seenSet that
// imported a base leg and then grew, snapshotted once through the full
// path (newSnapshot over Export) and once through the delta path
// (newDeltaSnapshot over ExportDelta) followed by ApplyDelta onto the
// base, must marshal to identical bytes. Cooperative checkpoints stop at
// schedule-dependent points, so two engine runs cannot be compared leg
// by leg — but the two emission paths over the same state can, and this
// is exactly the contract ApplyDelta documents.
func TestDeltaSnapshotByteEquivalence(t *testing.T) {
	opts := DefaultOptions()

	// The base leg: a fresh seen-set with its own frontier and outcomes.
	baseSS := newSeenSet()
	var baseSeen [][]byte
	for i := 0; i < 40; i++ {
		k := []byte(fmt.Sprintf("state-%03d", i))
		baseSS.Add(k)
		baseSeen = append(baseSeen, k)
	}
	o1 := Outcome{Regs: []lang.Val{0, 1}, Mem: []lang.Val{1}}
	baseRes := &Result{States: 40, DeadEnds: 2,
		Outcomes: map[string]Outcome{o1.Key(): o1}}
	base := newSnapshot("naive", &opts, baseRes, [][]byte{[]byte("state-007")}, baseSS.Export(), nil)
	base.Test = "test-hash"

	// The resumed leg: import the base (recording the delta cursor), then
	// discover new states and a new outcome.
	ss := newSeenSet()
	ss.Import(base.Seen)
	for i := 40; i < 65; i++ {
		ss.Add([]byte(fmt.Sprintf("state-%03d", i)))
	}
	o2 := Outcome{Regs: []lang.Val{1, 1}, Mem: []lang.Val{2}}
	res := &Result{States: 65, DeadEnds: 3,
		Outcomes: map[string]Outcome{o1.Key(): o1, o2.Key(): o2}}
	frontier := [][]byte{[]byte("state-050"), []byte("state-044")}

	// Full path: what the backend emits without Options.DeltaSnapshot
	// (plus the Leg/Test stamps the resume path applies).
	full := newSnapshot("naive", &opts, res, frontier, ss.Export(), nil)
	full.Leg = base.Leg + 1
	full.Test = base.Test

	// Delta path: backend emission + coordinator-side ApplyDelta, with a
	// wire round trip in between like a real transfer.
	delta := newDeltaSnapshot("naive", &opts, res, frontier, ss, nil, base)
	if !delta.Delta || delta.Leg != base.Leg+1 || delta.BaseSeen != len(base.Seen) {
		t.Fatalf("delta header wrong: Delta=%v Leg=%d BaseSeen=%d", delta.Delta, delta.Leg, delta.BaseSeen)
	}
	if len(delta.Seen) != 25 {
		t.Fatalf("delta carries %d seen entries, want 25 (new states only)", len(delta.Seen))
	}
	draw, err := delta.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalSnapshot(draw)
	if err != nil {
		t.Fatal(err)
	}
	applied, err := ApplyDelta(base, back)
	if err != nil {
		t.Fatal(err)
	}

	fullRaw, err := full.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	appliedRaw, err := applied.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(fullRaw) != string(appliedRaw) {
		t.Errorf("ApplyDelta result differs from the full-path snapshot (%d vs %d bytes)",
			len(appliedRaw), len(fullRaw))
	}
	if len(draw) >= len(fullRaw) {
		t.Errorf("delta wire form (%d bytes) is not smaller than the full snapshot (%d bytes)",
			len(draw), len(fullRaw))
	}

	// A delta must not validate as a resumable snapshot.
	if err := back.Validate("naive", &opts); err == nil {
		t.Error("Validate accepted an unapplied delta snapshot")
	}
}
