package server

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"promising/internal/store"
)

// writeSteps is every step of store.WriteFile, in order.
var writeSteps = []string{"mkdir", "create", "write", "chmod", "sync", "close", "rename", "syncdir"}

// faultSrc is the fault suites' job: it checkpoints a few times at a
// 10ms interval, and under the race detector it is cut down to keep the
// suite's repeated CI run short.
func faultSrc() string {
	if !raceEnabled {
		return smallSrc
	}
	return `
arch arm
name TINYMED
locs x y z
thread 0 { store [x] 1; store [y] 1; r0 = load [y]; r1 = load [z]; }
thread 1 { store [y] 2; store [z] 2; r0 = load [z]; r1 = load [x]; }
thread 2 { store [z] 3; r0 = load [x]; }
exists 0:r0=0 && 1:r1=0 && 2:r0=0
`
}

// durableWrites names each kind of durable write a checkpointed batch
// job makes, by the path it writes under a state dir.
var durableWrites = []struct {
	kind  string
	match func(stateDir, path string) bool
}{
	{"manifest", func(dir, p string) bool {
		return filepath.Dir(p) == filepath.Join(dir, "jobs") && strings.HasSuffix(p, ".json")
	}},
	{"snapshot", func(_, p string) bool { return strings.HasSuffix(p, ".snap") }},
	{"done", func(_, p string) bool { return strings.HasSuffix(p, ".done") }},
	{"obs", func(_, p string) bool { return strings.HasSuffix(p, ".jsonl") }},
}

// failWrites installs a store fault hook failing every write under dir
// that one of kinds matches, at step, and returns the count of failed
// steps. The hook is removed when the test ends.
func failWrites(t *testing.T, dir, step string, kinds ...string) *atomic.Int64 {
	t.Helper()
	var hits atomic.Int64
	injected := errors.New("injected " + step + " failure")
	prev := store.SetFaultForTesting(func(s, p string) error {
		if s != step {
			return nil
		}
		for _, w := range durableWrites {
			for _, k := range kinds {
				if w.kind == k && w.match(dir, p) {
					hits.Add(1)
					return injected
				}
			}
		}
		return nil
	})
	t.Cleanup(func() { store.SetFaultForTesting(prev) })
	return &hits
}

// checkRecovered restarts a daemon over dir (faults off) and checks that
// job id is there and finishes with the uninterrupted run's outcomes and
// state count.
func checkRecovered(t *testing.T, cfg Config, id string, refLines []string, refStates int) *Server {
	t.Helper()
	store.SetFaultForTesting(nil)
	s, c := newTestServer(t, cfg)
	st := waitJob(t, c, id, 2*time.Minute)
	if st.State != JobDone || len(st.Reports) != 1 || st.Reports[0] == nil {
		t.Fatalf("job after restart: state %s, reports %+v", st.State, st.Reports)
	}
	rep := st.Reports[0]
	if !sameLines(rep.Outcomes, refLines) {
		t.Errorf("outcomes after restart differ from the uninterrupted run:\n  got  %v\n  want %v", rep.Outcomes, refLines)
	}
	if rep.States != refStates {
		t.Errorf("States after restart = %d, uninterrupted = %d", rep.States, refStates)
	}
	return s
}

// TestDurableWriteFaultsSurviveRestart fails each kind of durable write
// of a checkpointed batch job (manifest, snapshot, done record, obs
// record) at each step of the write path, then restarts the daemon over
// the same state dir. A manifest failure must be a clean 503 with no
// job registered, no budget held and no manifest left behind; every
// other failure must leave a job that a restart reports done with
// outcomes and state count identical to an uninterrupted run.
func TestDurableWriteFaultsSurviveRestart(t *testing.T) {
	src := faultSrc()
	refLines, refStates := uninterruptedOutcomes(t, src)
	for _, w := range durableWrites {
		for _, step := range writeSteps {
			t.Run(w.kind+"/"+step, func(t *testing.T) {
				dir := t.TempDir()
				cfg := Config{
					Workers:            2,
					StateDir:           dir,
					CheckpointInterval: 10 * time.Millisecond,
					DefaultTimeout:     2 * time.Minute,
				}
				hits := failWrites(t, dir, step, w.kind)
				s1, c1 := newTestServer(t, cfg)
				br, err := c1.Batch(context.Background(), BatchRequest{
					Tests:    []TestSpec{{Source: src}},
					Backends: []string{"promising"},
				})
				if w.kind == "manifest" {
					if err == nil || !strings.Contains(err.Error(), "HTTP 503") {
						t.Fatalf("batch with a failing manifest write: err = %v, want a 503 refusal", err)
					}
					if n := s1.jobs.created(); n != 0 {
						t.Errorf("refused batch registered %d jobs", n)
					}
					if n := s1.pending.Load(); n != 0 {
						t.Errorf("refused batch holds %d pending cells", n)
					}
					left, _ := os.ReadDir(filepath.Join(dir, "jobs"))
					if len(left) != 0 {
						t.Errorf("refused batch left files in the job store: %v", left)
					}
					s1.Close()
					store.SetFaultForTesting(nil)
					if s2, _ := newTestServer(t, cfg); s2.recovered.Load() != 0 {
						t.Error("a refused batch was recovered on restart")
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if st := waitJob(t, c1, br.JobID, 2*time.Minute); st.State != JobDone {
					t.Fatalf("job state = %s, want done", st.State)
				}
				if hits.Load() == 0 {
					t.Fatalf("no %s write reached step %s", w.kind, step)
				}
				s1.Close()
				checkRecovered(t, cfg, br.JobID, refLines, refStates)
			})
		}
	}
}

// TestFailedReportWriteKeepsCheckpoint fails every done-record and obs
// write: the finished job keeps its manifest and its cell's checkpoint
// (the report never reached disk), and a restart resumes the cell from
// that checkpoint to the uninterrupted run's result.
func TestFailedReportWriteKeepsCheckpoint(t *testing.T) {
	src := faultSrc()
	refLines, refStates := uninterruptedOutcomes(t, src)
	dir := t.TempDir()
	cfg := Config{
		Workers:            2,
		StateDir:           dir,
		CheckpointInterval: 10 * time.Millisecond,
		DefaultTimeout:     2 * time.Minute,
	}
	failWrites(t, dir, "write", "done", "obs")
	s1, c1 := newTestServer(t, cfg)
	br, err := c1.Batch(context.Background(), BatchRequest{
		Tests:    []TestSpec{{Source: src}},
		Backends: []string{"promising"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, c1, br.JobID, 2*time.Minute); st.State != JobDone {
		t.Fatalf("job state = %s, want done", st.State)
	}
	s1.Close()
	jobs := filepath.Join(dir, "jobs")
	for _, p := range []string{br.JobID + ".json", filepath.Join(br.JobID, "cell-0.snap")} {
		if _, err := os.Stat(filepath.Join(jobs, p)); err != nil {
			t.Errorf("%s not kept after failed report writes: %v", p, err)
		}
	}
	if _, err := os.Stat(filepath.Join(jobs, br.JobID, "cell-0.done")); !os.IsNotExist(err) {
		t.Errorf("cell-0.done exists after its write failed: %v", err)
	}
	s2 := checkRecovered(t, cfg, br.JobID, refLines, refStates)
	if s2.recovered.Load() != 1 {
		t.Errorf("restart recovered %d jobs, want 1", s2.recovered.Load())
	}
}
