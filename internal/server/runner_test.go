package server

import (
	"context"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"promising/internal/backends"
	"promising/internal/explore"
	"promising/internal/litmus"
)

// statsCounters reads the daemon's /v1/stats counter map.
func statsCounters(t *testing.T, c *Client) map[string]int64 {
	t.Helper()
	var resp StatsResponse
	if err := c.do(context.Background(), http.MethodGet, "/v1/stats", nil, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Counters
}

// assertAccounted checks that the daemon's per-exploration counters equal
// the sum of the given non-cached reports' stats, and that no exploration
// is still holding a worker slot.
func assertAccounted(t *testing.T, name string, c *Client, stats ...*ExploreStatsJSON) {
	t.Helper()
	want := map[string]int64{}
	for _, st := range stats {
		want["promised_cert_cache_hits_total"] += st.CertHits
		want["promised_cert_cache_misses_total"] += st.CertMisses
		want["promised_interned_states_total"] += int64(st.Interned)
		want["promised_symmetry_hits_total"] += st.SymmetryHits
		want["promised_pruned_states_total"] += st.PrunedStates
	}
	want["promised_explorations_inflight"] = 0
	got := statsCounters(t, c)
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %s = %d, want %d", name, k, got[k], v)
		}
	}
}

// runOneCellBatch submits a one-cell batch and waits for it to finish.
func runOneCellBatch(t *testing.T, c *Client, src string, o CheckOptions) *JobStatus {
	t.Helper()
	br, err := c.Batch(context.Background(), BatchRequest{
		Tests:    []TestSpec{{Source: src}},
		Backends: []string{"promising"},
		Options:  o,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJobDone(t, c, br.JobID)
	if len(st.Reports) != 1 || st.Reports[0] == nil {
		t.Fatalf("job reports incomplete: %+v", st)
	}
	return st
}

// waitShardJob polls a shard job until it leaves ShardRunning.
func waitShardJob(t *testing.T, c *Client, id string) ShardJobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var st ShardJobStatus
		if err := c.do(context.Background(), http.MethodGet, "/v1/shards/jobs/"+id, nil, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != ShardRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatal("shard job did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startShardJob posts snap as a shard job of the test src.
func startShardJob(t *testing.T, c *Client, src string, snap *explore.Snapshot, checkpointMS int64) string {
	t.Helper()
	raw, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var resp ShardJobResponse
	if err := c.do(context.Background(), http.MethodPost, "/v1/shards/jobs", ShardJobRequest{
		TestSpec: TestSpec{Source: src}, Snapshot: raw, Attempt: "att-test",
		Options: CheckOptions{Parallelism: 1}, CheckpointMS: checkpointMS,
	}, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.ID
}

// widened checkpoints src's promise-first exploration after a few states.
func widened(t *testing.T, src string, states int) *explore.Snapshot {
	t.Helper()
	tst, err := litmus.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	v, err := litmus.Widen(tst, explore.PromiseFirst, states, explore.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if v.Result.Snapshot == nil {
		t.Fatal("exploration finished inside the widening budget")
	}
	return v.Result.Snapshot
}

// TestExploreStatsAccounting runs one test at Parallelism 1 through the
// three cell paths — /v1/check, a storeless batch cell, and a durable
// batch cell forced into several checkpoint legs — and requires the same
// outcomes, states and ExploreStats from each: a multi-leg cell reports
// the whole run's counters, not its last leg's. Every daemon's /metrics
// per-exploration counters must grow by exactly its reports' stats (a
// multi-leg shard job included), with every worker slot released.
func TestExploreStatsAccounting(t *testing.T) {
	src := smallSrc
	o := CheckOptions{Parallelism: 1}
	ctx := context.Background()

	// One daemon per path, so no report is a verdict-cache hit.
	_, cCheck := newTestServer(t, Config{Workers: 1})
	check, err := cCheck.Check(ctx, CheckRequest{TestSpec: TestSpec{Source: src}, Options: o})
	if err != nil {
		t.Fatal(err)
	}
	if check.Status != "pass" || check.Stats == nil {
		t.Fatalf("check = %s (%s), stats %v", check.Status, check.Error, check.Stats)
	}

	_, cBatch := newTestServer(t, Config{Workers: 1})
	batch := runOneCellBatch(t, cBatch, src, o).Reports[0]

	_, cLegs := newTestServer(t, Config{Workers: 1, StateDir: t.TempDir(), CheckpointInterval: 50 * time.Millisecond})
	legsJob := runOneCellBatch(t, cLegs, src, o)
	legs := legsJob.Reports[0]
	checkpoints := 0
	for _, ss := range legsJob.Trace {
		if ss.Stage == "checkpoint" {
			checkpoints = ss.Count
		}
	}
	if checkpoints == 0 {
		t.Fatal("durable cell ran in one leg; the test needs at least two")
	}

	for _, c := range []struct {
		name string
		tr   *TestReport
	}{{"storeless batch cell", batch}, {"multi-leg batch cell", legs}} {
		if c.tr.Cached {
			t.Fatalf("%s was a cache hit", c.name)
		}
		if !sameLines(c.tr.Outcomes, check.Outcomes) || c.tr.States != check.States {
			t.Errorf("%s: %d outcomes, %d states; /v1/check: %d outcomes, %d states",
				c.name, len(c.tr.Outcomes), c.tr.States, len(check.Outcomes), check.States)
		}
		if !reflect.DeepEqual(c.tr.Stats, check.Stats) {
			t.Errorf("%s stats = %+v, /v1/check stats = %+v", c.name, *c.tr.Stats, *check.Stats)
		}
	}

	_, cShard := newTestServer(t, Config{Workers: 1})
	snap := widened(t, src, 50)
	sj := waitShardJob(t, cShard, startShardJob(t, cShard, src, snap, 50))
	if sj.State != ShardDone || sj.Report == nil || sj.Report.Stats == nil {
		t.Fatalf("shard job ended %s (%s)", sj.State, sj.Error)
	}
	if sj.Leg == snap.Leg {
		t.Fatal("shard job ran in one leg; the test needs at least two")
	}

	assertAccounted(t, "check daemon", cCheck, check.Stats)
	assertAccounted(t, "batch daemon", cBatch, batch.Stats)
	assertAccounted(t, "multi-leg daemon", cLegs, legs.Stats)
	assertAccounted(t, "shard daemon", cShard, sj.Report.Stats)
}

// TestShardJobRefusesForeignSnapshot posts a shard job whose snapshot was
// taken from a different test: the job must fail with the content-hash
// refusal rather than step a foreign frontier.
func TestShardJobRefusesForeignSnapshot(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	st := waitShardJob(t, c, startShardJob(t, c, mediumSrc, widened(t, sbSrc, 3), 0))
	if st.State != ShardFailed || !strings.Contains(st.Error, "snapshot is for test") {
		t.Fatalf("shard job against a different test ended %s (%q); want failed with a snapshot-is-for-test error", st.State, st.Error)
	}
}

// TestCheckpointedCellCertCache runs one checkpointed cell per backend
// and captures the options each leg runs with: only naive reads a
// certification cache, so only its cell may build one (shared by its
// legs); every backend's cell runs with delta snapshots.
func TestCheckpointedCellCertCache(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	tst, err := litmus.Parse(sbSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range backends.Names() {
		var got *explore.Options
		_, err := s.run(context.Background(), exploration{
			test: tst, backend: b, opts: CheckOptions{Parallelism: 1},
			setup: func(eo *explore.Options) { o := *eo; got = &o },
			every: time.Hour,
			sink:  func(int, *explore.Snapshot, *explore.Snapshot) error { return nil },
		})
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if got == nil {
			t.Fatalf("%s: setup never ran", b)
		}
		if want := b == backends.Naive; (got.CertCache != nil) != want {
			t.Errorf("%s: checkpointed cell has a certification cache = %t, want %t", b, got.CertCache != nil, want)
		}
		if !got.DeltaSnapshot {
			t.Errorf("%s: checkpointed cell runs without delta snapshots", b)
		}
	}
}
