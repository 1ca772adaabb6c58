package obs

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadRecord feeds arbitrary bytes to the JSONL reader the daemon
// runs over every file in its trace store at startup. It must not panic,
// and a record it accepts carries the id it was asked for. The seeds are
// a record file Put writes, and that file cut mid-line.
func FuzzReadRecord(f *testing.F) {
	const id = "job-00000000000000ff"
	s, err := OpenStore(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Put(sampleRecord(id)); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(s.path(id))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)*2/3])
	path := filepath.Join(f.TempDir(), id+".jsonl")
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o600); err != nil {
			t.Fatal(err)
		}
		rec, err := readRecord(path, id)
		if err == nil && rec.ID != id {
			t.Fatalf("record for %s read back as %q", id, rec.ID)
		}
	})
}
