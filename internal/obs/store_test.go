package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func sampleRecord(id string) *JobRecord {
	return &JobRecord{
		ID: id,
		Events: []StageEvent{
			{Seq: 1, TMS: 3, Stage: "compile", Cell: 0, Backend: "promising", Detail: "ok"},
			{Seq: 2, TMS: 9, Stage: "explore", Cell: 0, Backend: "promising", Detail: "128 states", DurMS: 6},
		},
		Status: json.RawMessage(`{"id":"` + id + `","state":"done"}`),
		Index:  json.RawMessage(`{"job_id":"` + id + `","witnesses":[{"cell":0,"outcome":"1:r0=1"}]}`),
		Witnesses: []WitnessRecord{
			{Cell: 0, Outcome: "1:r0=1", Body: json.RawMessage(`{"trace":{"outcome":"1:r0=1"}}`)},
			{Cell: 0, Outcome: "1:r0=0", Body: json.RawMessage(`{"trace":{"outcome":"1:r0=0"}}`)},
		},
	}
}

// TestStoreRoundTrip writes a record, reopens the store from disk, and
// checks every field — raw JSON bodies byte-for-byte — survives.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRecord("job-00000000000000aa")
	if err := s1.Put(rec); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(rec.ID)
	if !ok {
		t.Fatal("record not reloaded")
	}
	if len(got.Events) != len(rec.Events) {
		t.Fatalf("reloaded %d events, want %d", len(got.Events), len(rec.Events))
	}
	for i := range rec.Events {
		if got.Events[i] != rec.Events[i] {
			t.Errorf("event %d: %+v != %+v", i, got.Events[i], rec.Events[i])
		}
	}
	if !bytes.Equal(got.Status, rec.Status) {
		t.Errorf("status body changed: %s != %s", got.Status, rec.Status)
	}
	if !bytes.Equal(got.Index, rec.Index) {
		t.Errorf("index body changed: %s != %s", got.Index, rec.Index)
	}
	if len(got.Witnesses) != 2 {
		t.Fatalf("reloaded %d witnesses, want 2", len(got.Witnesses))
	}
	for i, w := range rec.Witnesses {
		if got.Witnesses[i].Cell != w.Cell || got.Witnesses[i].Outcome != w.Outcome ||
			!bytes.Equal(got.Witnesses[i].Body, w.Body) {
			t.Errorf("witness %d changed: %+v != %+v", i, got.Witnesses[i], w)
		}
	}

	w, ok := got.Witness("1:r0=0", -1)
	if !ok || w.Outcome != "1:r0=0" {
		t.Errorf("Witness lookup by outcome failed: %+v %v", w, ok)
	}
	if _, ok := got.Witness("1:r0=0", 3); ok {
		t.Error("Witness lookup matched the wrong cell")
	}
}

// TestStoreRejectsBadID checks the id guard: a path-traversal or
// otherwise malformed id must not become a file name.
func TestStoreRejectsBadID(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "../../etc/passwd", "job-xyz", "job-00112233445566778899"} {
		if err := s.Put(&JobRecord{ID: id}); err == nil {
			t.Errorf("Put(%q) succeeded", id)
		}
	}
}

// TestStoreTruncatedTail checks crash tolerance: a record whose file lost
// its tail mid-write still loads the intact prefix lines.
func TestStoreTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRecord("job-00000000000000bb")
	if err := s1.Put(rec); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, rec.ID+".jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-20], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(rec.ID)
	if !ok {
		t.Fatal("truncated record dropped entirely; want intact prefix")
	}
	if len(got.Events) != len(rec.Events) {
		t.Errorf("prefix lost events: %d != %d", len(got.Events), len(rec.Events))
	}
}

// TestStorePrune checks retention: beyond max records the oldest files
// (by mtime) are evicted from disk and memory.
func TestStorePrune(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 5)
	for i := range ids {
		ids[i] = fmt.Sprintf("job-%016x", i+1)
		if err := s.Put(&JobRecord{ID: ids[i], Status: json.RawMessage(`{}`)}); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes make the eviction order deterministic even on
		// coarse-granularity filesystems.
		past := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, ids[i]+".jsonl"), past, past); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(&JobRecord{ID: "job-00000000000000ff", Status: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if n := s.Len(); n != 3 {
		t.Fatalf("after prune Len = %d, want 3", n)
	}
	for _, id := range ids[:3] {
		if _, ok := s.Get(id); ok {
			t.Errorf("oldest record %s survived the prune", id)
		}
		if _, err := os.Stat(filepath.Join(dir, id+".jsonl")); !os.IsNotExist(err) {
			t.Errorf("oldest file %s.jsonl still on disk", id)
		}
	}
}

// TestStoreNilSafe checks a daemon without -state-dir (nil store) can
// call every method.
func TestStoreNilSafe(t *testing.T) {
	var s *Store
	if err := s.Put(sampleRecord("job-00000000000000cc")); err != nil {
		t.Errorf("nil Put: %v", err)
	}
	if _, ok := s.Get("job-00000000000000cc"); ok {
		t.Error("nil Get returned a record")
	}
	if s.Len() != 0 {
		t.Error("nil Len != 0")
	}
}

// TestStorePutRemovesTempOnRenameFailure blocks a record's path with a
// non-empty directory, so the write fails after its temp file exists:
// Put must return the error, leave no .tmp-* file beside the target and
// retain nothing.
func TestStorePutRemovesTempOnRenameFailure(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	const id = "job-00000000000000dd"
	if err := os.MkdirAll(filepath.Join(s.path(id), "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(sampleRecord(id)); err == nil {
		t.Fatal("persisting onto a non-empty directory succeeded")
	}
	left, err := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
	if _, ok := s.Get(id); ok {
		t.Error("a failed Put retained the record")
	}
}
