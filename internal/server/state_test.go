package server

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"promising/internal/explore"
	"promising/internal/litmus"
)

// mediumSrc explores ~10^5 promise-first states (about a second on one
// core): long enough that a short checkpoint interval lands several
// checkpoints mid-run, short enough for CI.
const mediumSrc = `
arch arm
name MEDIUM
locs x y z
thread 0 { store [x] 1; store [y] 1; r0 = load [y]; r1 = load [z]; }
thread 1 { store [y] 2; store [z] 2; r0 = load [z]; r1 = load [x]; }
thread 2 { store [z] 3; store [x] 3; store [y] 3; r0 = load [x]; r1 = load [y]; }
exists 0:r0=0 && 1:r1=0 && 2:r0=0
`

// smallSrc is the ~2·10^4-state variant the race suite uses: the race
// detector slows exploration (and the per-checkpoint seen-set
// serialization) roughly an order of magnitude, which pushed the medium
// workload past any sensible per-cell budget on one core.
const smallSrc = `
arch arm
name SMALLMED
locs x y z
thread 0 { store [x] 1; store [y] 1; r0 = load [y]; r1 = load [z]; }
thread 1 { store [y] 2; store [z] 2; r0 = load [z]; r1 = load [x]; }
thread 2 { store [z] 3; store [x] 3; r0 = load [x]; r1 = load [y]; }
exists 0:r0=0 && 1:r1=0 && 2:r0=0
`

// restartSrc picks the restart-resume workload for the current build.
func restartSrc() string {
	if raceEnabled {
		return smallSrc
	}
	return mediumSrc
}

// uninterruptedOutcomes runs src to completion directly and returns the
// formatted outcome lines (the TestReport.Outcomes shape) and the state
// count.
func uninterruptedOutcomes(t *testing.T, src string) ([]string, int) {
	t.Helper()
	tst, err := litmus.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	v, err := litmus.Run(tst, explore.PromiseFirst, explore.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(litmus.FormatOutcomes(v.Spec, v.Result, tst.Prog), "\n"), v.Result.States
}

func sameLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestJobResumesAcrossRestart is the kill-and-resume equivalence test: a
// daemon abandoned mid-exploration leaves its latest checkpoints in
// -state-dir; a new daemon over the same dir re-enqueues the job under
// its original id, resumes every cell from its snapshot, and completes
// with the outcome set byte-identical to an uninterrupted run.
func TestJobResumesAcrossRestart(t *testing.T) {
	src := restartSrc()
	dir := t.TempDir()
	cfg := Config{
		Workers:            2,
		StateDir:           dir,
		CheckpointInterval: 50 * time.Millisecond,
		DefaultTimeout:     4 * time.Minute,
	}
	s1, c1 := newTestServer(t, cfg)
	ctx := context.Background()

	br, err := c1.Batch(ctx, BatchRequest{
		Tests:    []TestSpec{{Source: src}},
		Backends: []string{"promising"},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the first persisted checkpoint, then "kill" the daemon
	// mid-exploration (Close cancels every in-flight exploration; the
	// abort path drops the in-memory tail, exactly like a crash would —
	// only the disk state survives).
	snapPath := filepath.Join(dir, "jobs", br.JobID, "cell-0.snap")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(snapPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared on disk")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s1.Close()
	if _, err := os.Stat(filepath.Join(dir, "jobs", br.JobID+".json")); err != nil {
		t.Fatalf("job manifest missing after shutdown: %v", err)
	}

	// A fresh daemon over the same state dir recovers and finishes the
	// job under its original id.
	_, c2 := newTestServer(t, cfg)
	var st *JobStatus
	deadline = time.Now().Add(4 * time.Minute)
	for {
		st, err = c2.Job(ctx, br.JobID)
		if err != nil {
			t.Fatalf("recovered job not found: %v", err)
		}
		if st.State != JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered job did not finish: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != JobDone {
		t.Fatalf("recovered job state = %s, want done", st.State)
	}
	if !st.ResumedFromCheckpoint {
		t.Error("job status does not report resumed_from_checkpoint")
	}
	if st.Completed != 1 || len(st.Reports) != 1 || st.Reports[0] == nil {
		t.Fatalf("recovered job reports incomplete: %+v", st)
	}
	rep := st.Reports[0]
	if rep.Status != "pass" {
		t.Fatalf("resumed cell status = %s (%s)", rep.Status, rep.Error)
	}

	refLines, refStates := uninterruptedOutcomes(t, src)
	if !sameLines(rep.Outcomes, refLines) {
		t.Errorf("resumed outcome set differs from uninterrupted run:\n  got  %v\n  want %v", rep.Outcomes, refLines)
	}
	if rep.States != refStates {
		t.Errorf("resumed States = %d, uninterrupted = %d", rep.States, refStates)
	}

	// Terminal jobs release their durable state.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(dir, "jobs", br.JobID+".json")); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Error("finished job's state not removed")
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestUserCancelRemovesJobState checks the other deletion path: an
// explicit DELETE must not leave a canceled job resurrectable.
func TestUserCancelRemovesJobState(t *testing.T) {
	dir := t.TempDir()
	s, c := newTestServer(t, Config{
		Workers:            2,
		StateDir:           dir,
		CheckpointInterval: 10 * time.Millisecond,
	})
	_ = s
	ctx := context.Background()
	br, err := c.Batch(ctx, BatchRequest{
		Tests:    []TestSpec{{Source: slowSrc}},
		Backends: []string{"promising"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CancelJob(ctx, br.JobID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.Job(ctx, br.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == JobCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not reach canceled state")
		}
		time.Sleep(5 * time.Millisecond)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(dir, "jobs", br.JobID+".json")); os.IsNotExist(err) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("canceled job's state not removed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobStoreFailedRenameLeavesNoTempFile blocks a cell's report path
// with a non-empty directory: putDone must return the error and leave no
// temp file.
func TestJobStoreFailedRenameLeavesNoTempFile(t *testing.T) {
	st, err := openJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const id = "job-00000000000000ee"
	if err := os.MkdirAll(filepath.Join(st.donePath(id, 0), "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.putDone(id, 0, &TestReport{Test: "MP"}); err == nil {
		t.Fatal("write over a non-empty directory succeeded")
	}
	tmps, _ := filepath.Glob(filepath.Join(st.cellDir(id), ".tmp-*"))
	if len(tmps) != 0 {
		t.Fatalf("failed rename left temp files: %v", tmps)
	}
}
