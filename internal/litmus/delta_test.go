package litmus

import (
	"testing"

	"promising/internal/explore"
)

// The delta-snapshot suite: a resumed leg run under Options.DeltaSnapshot
// emits only what changed since the snapshot it resumed from, and
// explore.ApplyDelta folds the chain of deltas back into full snapshots
// that carry the run to the exact uninterrupted result. (The
// byte-for-byte comparison of the delta and full emission paths over one
// shared engine state lives in explore's TestDeltaSnapshotByteEquivalence;
// cooperative checkpoints stop at schedule-dependent points, so two
// independent runs cannot be compared leg by leg.)

// runDeltaChain drives tst to completion in checkpointed legs with
// Options.DeltaSnapshot set, applying each emitted delta onto the running
// base exactly the way the daemon's job runner does — including a wire
// round trip of every delta — and returns the final verdict, the number
// of legs, and how many emitted snapshots were actual deltas.
func runDeltaChain(t *testing.T, tst *Test, b ckptBackend, step int) (*Verdict, int, int) {
	t.Helper()
	opts := explore.DefaultOptions()
	opts.Parallelism = 1
	opts.Checkpoint = explore.NewCheckpointAfter(step)
	opts.DeltaSnapshot = true
	v, err := Run(tst, b.run, opts)
	if err != nil {
		t.Fatalf("%s/%s: %v", tst.Name(), b.name, err)
	}
	cur := v.Result.Snapshot
	if cur != nil && cur.Delta {
		t.Fatalf("%s/%s: fresh run emitted a delta snapshot", tst.Name(), b.name)
	}
	legs, deltas := 1, 0
	for cur != nil {
		if legs > 10000 {
			t.Fatalf("%s/%s: runaway checkpoint loop", tst.Name(), b.name)
		}
		ro := explore.DefaultOptions()
		ro.Parallelism = 1
		ro.DeltaSnapshot = true
		ro.Checkpoint = explore.NewCheckpointAfter(v.Result.States + step)
		v, err = RunFrom(tst, b.resume, cur, ro)
		if err != nil {
			t.Fatalf("%s/%s: resume: %v", tst.Name(), b.name, err)
		}
		legs++
		emitted := v.Result.Snapshot
		if emitted == nil {
			break
		}
		if emitted.Delta {
			deltas++
			if emitted.Leg != cur.Leg+1 {
				t.Fatalf("%s/%s: delta leg %d does not chain on base leg %d",
					tst.Name(), b.name, emitted.Leg, cur.Leg)
			}
			// Round-trip the delta through its wire form before applying,
			// the way a coordinator receiving it would.
			raw, err := emitted.Marshal()
			if err != nil {
				t.Fatalf("%s/%s: marshal delta: %v", tst.Name(), b.name, err)
			}
			back, err := explore.UnmarshalSnapshot(raw)
			if err != nil {
				t.Fatalf("%s/%s: unmarshal delta: %v", tst.Name(), b.name, err)
			}
			cur, err = explore.ApplyDelta(cur, back)
			if err != nil {
				t.Fatalf("%s/%s: ApplyDelta: %v", tst.Name(), b.name, err)
			}
			// The applied full snapshot must survive its own wire round
			// trip byte-identically (it is what a coordinator persists).
			araw, err := cur.Marshal()
			if err != nil {
				t.Fatalf("%s/%s: marshal applied: %v", tst.Name(), b.name, err)
			}
			back2, err := explore.UnmarshalSnapshot(araw)
			if err != nil {
				t.Fatalf("%s/%s: unmarshal applied: %v", tst.Name(), b.name, err)
			}
			araw2, err := back2.Marshal()
			if err != nil {
				t.Fatalf("%s/%s: re-marshal applied: %v", tst.Name(), b.name, err)
			}
			if string(araw) != string(araw2) {
				t.Fatalf("%s/%s: applied snapshot wire round trip changed the bytes", tst.Name(), b.name)
			}
			cur = back2
		} else {
			cur = emitted
		}
	}
	return v, legs, deltas
}

// TestDeltaSnapshotChainEquivalence runs the machine backends over a
// catalog subset in delta-checkpointed legs and checks the chain lands on
// the exact uninterrupted result: same outcome-key set, same States, same
// DeadEnds — and that resumed legs really did emit deltas.
func TestDeltaSnapshotChainEquivalence(t *testing.T) {
	totalDeltas := 0
	for _, name := range []string{"MP", "SB", "LB", "IRIW", "PPOCA", "LB+addrs"} {
		tst := CatalogTest(name)
		if tst == nil {
			t.Fatalf("catalog test %q missing", name)
		}
		for _, b := range machineCkptBackends {
			ref, err := Run(tst, b.run, explore.DefaultOptions())
			if err != nil {
				t.Fatalf("%s/%s: baseline: %v", name, b.name, err)
			}
			step := ref.Result.States/6 + 1
			v, legs, deltas := runDeltaChain(t, tst, b, step)
			// legs == 2 means the single resumed leg ran to completion
			// without checkpointing — no delta owed. Three or more legs
			// means at least one resumed leg checkpointed, and in delta
			// mode a machine backend must have emitted it as a delta.
			if legs > 2 && deltas == 0 {
				t.Errorf("%s/%s: %d legs with a mid-chain checkpoint, none emitted a delta", name, b.name, legs)
			}
			totalDeltas += deltas
			if !sameKeys(outcomeKeys(v.Result), outcomeKeys(ref.Result)) {
				t.Errorf("%s/%s: delta-chained outcome set differs from uninterrupted run", name, b.name)
			}
			if v.Result.States != ref.Result.States {
				t.Errorf("%s/%s: delta-chained States = %d, uninterrupted = %d",
					name, b.name, v.Result.States, ref.Result.States)
			}
			if v.Result.DeadEnds != ref.Result.DeadEnds {
				t.Errorf("%s/%s: delta-chained DeadEnds = %d, uninterrupted = %d",
					name, b.name, v.Result.DeadEnds, ref.Result.DeadEnds)
			}
		}
	}
	if totalDeltas < 6 {
		t.Errorf("only %d deltas emitted across the suite; step heuristic too weak to exercise the path", totalDeltas)
	}
}

// TestDeltaSnapshotOtherBackends pins the degraded modes: the flat
// explorer keeps a seen set and must emit real deltas; the axiomatic
// backend has no incremental seen set, so delta mode falls back to full
// snapshots (Delta unset) and the chain still completes correctly.
func TestDeltaSnapshotOtherBackends(t *testing.T) {
	for _, b := range otherCkptBackends {
		tst := CatalogTest("MP")
		ref, err := Run(tst, b.run, explore.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: baseline: %v", b.name, err)
		}
		step := ref.Result.States/4 + 1
		v, legs, deltas := runDeltaChain(t, tst, b, step)
		if b.name == "axiomatic" && deltas != 0 {
			t.Errorf("axiomatic emitted %d deltas; it has no incremental seen set", deltas)
		}
		_ = legs
		if !sameKeys(outcomeKeys(v.Result), outcomeKeys(ref.Result)) {
			t.Errorf("%s: delta-chained outcome set differs from uninterrupted run", b.name)
		}
		if v.Result.States != ref.Result.States {
			t.Errorf("%s: delta-chained States = %d, uninterrupted = %d",
				b.name, v.Result.States, ref.Result.States)
		}
	}
}

// TestApplyDeltaErrors pins ApplyDelta's chain validation: non-delta
// input, a delta as base, a delta applied twice, and resuming an
// unapplied delta are all refused.
func TestApplyDeltaErrors(t *testing.T) {
	tst := CatalogTest("SB")
	b := promisingCkpt

	opts := explore.DefaultOptions()
	opts.Parallelism = 1
	opts.Checkpoint = explore.NewCheckpointAfter(3)
	v, err := Run(tst, b.run, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := v.Result.Snapshot
	if base == nil {
		t.Fatal("no snapshot from a 3-state checkpoint")
	}

	// Resume in delta mode until a leg actually checkpoints (small tests
	// can complete a leg without hitting the budget).
	var delta *explore.Snapshot
	cur := base
	for i := 0; i < 100 && delta == nil; i++ {
		ro := explore.DefaultOptions()
		ro.Parallelism = 1
		ro.DeltaSnapshot = true
		ro.Checkpoint = explore.NewCheckpointAfter(v.Result.States + 3)
		v, err = RunFrom(tst, b.resume, cur, ro)
		if err != nil {
			t.Fatal(err)
		}
		emitted := v.Result.Snapshot
		if emitted == nil {
			t.Skip("exploration completed before a resumed leg checkpointed")
		}
		if emitted.Delta {
			delta = emitted
			break
		}
		cur = emitted
	}
	if delta == nil {
		t.Fatal("no delta emitted in 100 legs")
	}

	if _, err := explore.ApplyDelta(cur, cur); err == nil {
		t.Error("ApplyDelta accepted a non-delta snapshot")
	}
	if _, err := explore.ApplyDelta(delta, delta); err == nil {
		t.Error("ApplyDelta accepted a delta as base")
	}
	applied, err := explore.ApplyDelta(cur, delta)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if _, err := explore.ApplyDelta(applied, delta); err == nil {
		t.Error("ApplyDelta applied the same delta twice")
	}
	if _, err := RunFrom(tst, b.resume, delta, explore.DefaultOptions()); err == nil {
		t.Error("resume from an unapplied delta snapshot succeeded")
	}
}
