package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"time"

	"promising/internal/explore"
	"promising/internal/store"
)

// Durable job state (-state-dir): the daemon periodically checkpoints
// every running batch cell to disk and, on restart, re-enqueues unfinished
// jobs from their latest snapshots instead of dropping them.
//
// Layout under <state-dir>/jobs:
//
//	<id>.json            job manifest: test specs × backends × options
//	<id>/cell-<n>.done   completed cell's TestReport
//	<id>/cell-<n>.snap   latest checkpoint of a still-running cell
//
// All writes go through store.WriteFile (temp file, fsync, rename,
// directory fsync), so a kill -9 or a power loss can lose at most the
// tail since the last checkpoint interval, never corrupt a file.
// Terminal jobs are removed wholesale.

// jobManifest records everything needed to re-create a batch job.
type jobManifest struct {
	ID       string       `json:"id"`
	Tests    []TestSpec   `json:"tests"`
	Backends []string     `json:"backends"`
	Options  CheckOptions `json:"options,omitzero"`
	Created  time.Time    `json:"created"`
}

// jobStore persists batch-job state under one directory.
type jobStore struct {
	dir string // <state-dir>/jobs
}

// jobIDPat guards disk paths: only ids the daemon itself generated are
// ever read back (newJobID's shape), never arbitrary path fragments.
var jobIDPat = regexp.MustCompile(`^job-[0-9a-f]{16}$`)

func openJobStore(stateDir string) (*jobStore, error) {
	dir := filepath.Join(stateDir, "jobs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("state dir: %v", err)
	}
	return &jobStore{dir: dir}, nil
}

func (st *jobStore) manifestPath(id string) string { return filepath.Join(st.dir, id+".json") }
func (st *jobStore) cellDir(id string) string      { return filepath.Join(st.dir, id) }
func (st *jobStore) donePath(id string, cell int) string {
	return filepath.Join(st.cellDir(id), fmt.Sprintf("cell-%d.done", cell))
}
func (st *jobStore) snapPath(id string, cell int) string {
	return filepath.Join(st.cellDir(id), fmt.Sprintf("cell-%d.snap", cell))
}

// putManifest persists a job's identity at admission time. nil-safe.
func (st *jobStore) putManifest(m jobManifest) error {
	if st == nil {
		return nil
	}
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return store.WriteFile(st.manifestPath(m.ID), raw, 0o600)
}

// putDone persists a completed cell's report. nil-safe.
func (st *jobStore) putDone(id string, cell int, tr *TestReport) error {
	if st == nil {
		return nil
	}
	raw, err := json.Marshal(tr)
	if err != nil {
		return err
	}
	return store.WriteFile(st.donePath(id, cell), raw, 0o600)
}

// putSnap persists a running cell's latest checkpoint, replacing the
// previous one. nil-safe.
func (st *jobStore) putSnap(id string, cell int, snap *explore.Snapshot) error {
	if st == nil {
		return nil
	}
	raw, err := snap.Marshal()
	if err != nil {
		return err
	}
	return store.WriteFile(st.snapPath(id, cell), raw, 0o600)
}

// dropSnap removes a cell's checkpoint (the cell completed). nil-safe.
func (st *jobStore) dropSnap(id string, cell int) {
	if st == nil {
		return
	}
	os.Remove(st.snapPath(id, cell))
}

// remove deletes all state of a terminal job. nil-safe.
func (st *jobStore) remove(id string) {
	if st == nil {
		return
	}
	os.Remove(st.manifestPath(id))
	os.RemoveAll(st.cellDir(id))
}

// manifests scans the store for persisted jobs, oldest first.
func (st *jobStore) manifests() []jobManifest {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil
	}
	var out []jobManifest
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		id, ok := jobIDFromManifest(e.Name())
		if !ok {
			continue
		}
		raw, err := os.ReadFile(st.manifestPath(id))
		if err != nil {
			continue
		}
		var m jobManifest
		if err := json.Unmarshal(raw, &m); err != nil || m.ID != id {
			continue
		}
		out = append(out, m)
	}
	// ReadDir returns sorted names; random ids give no meaningful order,
	// but Created lets us re-enqueue oldest first.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Created.Before(out[j-1].Created); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func jobIDFromManifest(name string) (string, bool) {
	const ext = ".json"
	if len(name) <= len(ext) || name[len(name)-len(ext):] != ext {
		return "", false
	}
	id := name[:len(name)-len(ext)]
	return id, jobIDPat.MatchString(id)
}

// recoveredCells is the per-cell state found on disk for one job.
type recoveredCells struct {
	dones []*TestReport
	snaps []*explore.Snapshot
	// ckptAge is the age of the newest cell checkpoint at recovery time
	// (zero when no cell had checkpointed yet).
	ckptAge time.Duration
	// any reports whether any cell state (done or snapshot) was found —
	// the job demonstrably made progress before the restart.
	any bool
}

// loadCells reads back every cell's persisted state. Unreadable or stale
// (wrong-epoch) snapshots degrade to a from-scratch cell run.
func (st *jobStore) loadCells(id string, cells int) recoveredCells {
	rc := recoveredCells{
		dones: make([]*TestReport, cells),
		snaps: make([]*explore.Snapshot, cells),
	}
	newest := time.Time{}
	for cell := 0; cell < cells; cell++ {
		if raw, err := os.ReadFile(st.donePath(id, cell)); err == nil {
			var tr TestReport
			if json.Unmarshal(raw, &tr) == nil {
				rc.dones[cell] = &tr
				rc.any = true
				continue
			}
		}
		p := st.snapPath(id, cell)
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		snap, err := explore.UnmarshalSnapshot(raw)
		if err != nil {
			continue // stale epoch or corrupt tail: re-run the cell
		}
		rc.snaps[cell] = snap
		rc.any = true
		if fi, err := os.Stat(p); err == nil && fi.ModTime().After(newest) {
			newest = fi.ModTime()
		}
	}
	if !newest.IsZero() {
		rc.ckptAge = time.Since(newest)
	}
	return rc
}
