package explore

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalSnapshot feeds arbitrary bytes to the snapshot reader the
// daemon and the CLI run over checkpoint files. Neither UnmarshalSnapshot
// nor Validate may panic, and a snapshot that parses must marshal to
// bytes that parse back to a snapshot marshalling to the same bytes.
// Seeds are real checkpoints of LB under both machine explorers.
func FuzzUnmarshalSnapshot(f *testing.F) {
	for _, run := range []func(*testing.F, Options) *Result{
		func(f *testing.F, o Options) *Result { return PromiseFirst(lbProgram(f), lbSpec(), o) },
		func(f *testing.F, o Options) *Result { return Naive(lbProgram(f), lbSpec(), o) },
	} {
		opts := DefaultOptions()
		opts.Checkpoint = NewCheckpointAfter(3)
		snap := run(f, opts).Snapshot
		if snap == nil {
			f.Fatal("seed run finished before its checkpoint")
		}
		raw, err := snap.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := UnmarshalSnapshot(raw)
		if err != nil {
			return
		}
		opts := DefaultOptions()
		_ = s.Validate(s.Backend, &opts)
		once, err := s.Marshal()
		if err != nil {
			t.Fatalf("parsed snapshot does not marshal: %v", err)
		}
		back, err := UnmarshalSnapshot(once)
		if err != nil {
			t.Fatalf("marshalled snapshot does not parse: %v\n%s", err, once)
		}
		twice, err := back.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("round trip changed the snapshot:\n  %s\n  %s", once, twice)
		}
	})
}
