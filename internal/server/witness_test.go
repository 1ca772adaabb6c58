package server

// Witness-layer service tests: the witness index/detail endpoints, the
// durable obs record a finished witness job leaves in -state-dir, and the
// kill -9 guarantee — stage events, job status and witness bodies served
// byte-identically by a fresh daemon over the same state dir.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"promising/internal/obs"
)

// rawGet fetches a URL and returns the exact response body bytes.
func rawGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, raw)
	}
	return raw
}

func waitJobDone(t *testing.T, c *Client, id string) *JobStatus {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobRunning {
			if st.State != JobDone {
				t.Fatalf("job ended %s", st.State)
			}
			return st
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWitnessEndpointsSurviveRestart is the acceptance test for the
// durable trace store: run a witness-collecting batch to completion,
// capture the job status, witness index and every witness body over the
// wire, kill the daemon, and check a fresh daemon over the same state
// dir serves all of them byte-identically — plus a terminating SSE
// replay of the stored stage events and witness announcements.
func TestWitnessEndpointsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers:            2,
		StateDir:           dir,
		CheckpointInterval: 20 * time.Millisecond,
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(s1.Handler())
	c1 := NewClient(hs1.URL, hs1.Client())

	br, err := c1.Batch(context.Background(), BatchRequest{
		Tests:    []TestSpec{{Catalog: "MP"}},
		Backends: []string{"promising"},
		Options:  CheckOptions{Witnesses: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJobDone(t, c1, br.JobID)
	// "done" is only ever observable once the job is durable: a second
	// store over the same directory reads the record back from disk.
	disk, err := obs.OpenStore(filepath.Join(dir, "obs"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := disk.Get(br.JobID); !ok {
		t.Fatal("job reads done before its obs record is on disk")
	}
	if len(st.Reports) != 1 || st.Reports[0] == nil {
		t.Fatalf("job reports incomplete: %+v", st)
	}
	rep := st.Reports[0]
	// A witness-collecting cell under a checkpointing daemon refuses the
	// checkpoint explicitly instead of silently dropping it.
	if !rep.CheckpointRefused {
		t.Error("witness cell did not report checkpoint_refused")
	}
	if len(rep.Witnesses) != len(rep.Outcomes) {
		t.Fatalf("%d witnesses for %d outcomes", len(rep.Witnesses), len(rep.Outcomes))
	}
	for _, wt := range rep.Witnesses {
		if !wt.Validated || !wt.Minimized {
			t.Errorf("outcome %q: validated=%t minimized=%t", wt.Outcome, wt.Validated, wt.Minimized)
		}
	}

	// Capture every wire body the witness layer serves.
	statusBody := rawGet(t, hs1.URL+"/v1/jobs/"+br.JobID)
	indexBody := rawGet(t, hs1.URL+"/v1/jobs/"+br.JobID+"/witnesses")
	var idx WitnessIndex
	if err := json.Unmarshal(indexBody, &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Witnesses) != len(rep.Outcomes) {
		t.Fatalf("index has %d witnesses, want %d", len(idx.Witnesses), len(rep.Outcomes))
	}
	witnessBodies := map[string][]byte{}
	for _, info := range idx.Witnesses {
		body := rawGet(t, hs1.URL+"/v1/jobs/"+br.JobID+"/witnesses/"+url.PathEscape(info.Outcome))
		var det WitnessDetail
		if err := json.Unmarshal(body, &det); err != nil {
			t.Fatal(err)
		}
		if det.Trace.Outcome != info.Outcome || !det.Trace.Validated || len(det.Trace.Steps) == 0 {
			t.Errorf("witness detail for %q malformed: %+v", info.Outcome, det.Trace)
		}
		witnessBodies[info.Outcome] = body
	}

	// Witness counters flowed into the shared registry.
	var stats StatsResponse
	if err := json.Unmarshal(rawGet(t, hs1.URL+"/v1/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	if got := stats.Counters["promised_witnesses_total"]; got != int64(len(rep.Outcomes)) {
		t.Errorf("promised_witnesses_total = %d, want %d", got, len(rep.Outcomes))
	}
	if _, ok := stats.Counters["promised_witness_shrink_steps_total"]; !ok {
		t.Error("promised_witness_shrink_steps_total missing from /v1/stats")
	}

	// Kill the daemon. The obs record was persisted when the job finished,
	// so nothing in the shutdown path is load-bearing — like kill -9, only
	// the disk state survives.
	hs1.Close()
	s1.Close()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(s2.Handler())
	defer func() { hs2.Close(); s2.Close() }()

	if got := rawGet(t, hs2.URL+"/v1/jobs/"+br.JobID); !bytes.Equal(got, statusBody) {
		t.Errorf("restarted job status differs:\n  pre  %s\n  post %s", statusBody, got)
	}
	if got := rawGet(t, hs2.URL+"/v1/jobs/"+br.JobID+"/witnesses"); !bytes.Equal(got, indexBody) {
		t.Errorf("restarted witness index differs:\n  pre  %s\n  post %s", indexBody, got)
	}
	for outcome, want := range witnessBodies {
		got := rawGet(t, hs2.URL+"/v1/jobs/"+br.JobID+"/witnesses/"+url.PathEscape(outcome))
		if !bytes.Equal(got, want) {
			t.Errorf("restarted witness %q differs:\n  pre  %s\n  post %s", outcome, want, got)
		}
	}

	// The stored record also replays as a terminating SSE stream: stage
	// events, witness announcements, then a summary.
	events := collectEvents(t, hs2, br.JobID)
	var stages, witnessed, summaries int
	for _, ev := range events {
		switch ev.Kind {
		case EventStage:
			stages++
		case EventWitness:
			witnessed += len(ev.Witnesses)
		case EventSummary:
			summaries++
		}
	}
	if stages == 0 {
		t.Error("replayed stream has no stage events")
	}
	if witnessed != len(rep.Outcomes) {
		t.Errorf("replayed stream announced %d witnesses, want %d", witnessed, len(rep.Outcomes))
	}
	if summaries != 1 {
		t.Errorf("replayed stream has %d summaries, want 1", summaries)
	}
}

// TestWitnessEndpointsLiveJob checks the endpoints against a finished job
// the daemon still holds in memory (no state dir): index and detail are
// served from the live report set.
func TestWitnessEndpointsLiveJob(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2})
	_ = s
	br, err := c.Batch(context.Background(), BatchRequest{
		Tests:    []TestSpec{{Catalog: "SB"}},
		Backends: []string{"promising"},
		Options:  CheckOptions{Witnesses: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJobDone(t, c, br.JobID)
	rep := st.Reports[0]
	if len(rep.Witnesses) == 0 {
		t.Fatal("no witnesses on the live report")
	}

	base := strings.TrimSuffix(c.base, "/")
	var idx WitnessIndex
	if err := json.Unmarshal(rawGet(t, base+"/v1/jobs/"+br.JobID+"/witnesses"), &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Witnesses) != len(rep.Witnesses) {
		t.Fatalf("live index has %d entries, want %d", len(idx.Witnesses), len(rep.Witnesses))
	}
	info := idx.Witnesses[0]
	var det WitnessDetail
	if err := json.Unmarshal(rawGet(t, base+"/v1/jobs/"+br.JobID+"/witnesses/"+url.PathEscape(info.Outcome)), &det); err != nil {
		t.Fatal(err)
	}
	if det.Trace.Outcome != info.Outcome {
		t.Errorf("live detail outcome %q, want %q", det.Trace.Outcome, info.Outcome)
	}

	// Unknown outcome and unknown job both 404.
	for _, path := range []string{
		"/v1/jobs/" + br.JobID + "/witnesses/no-such-outcome",
		"/v1/jobs/job-ffffffffffffffff/witnesses",
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}
