package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"promising/internal/backends"
	"promising/internal/explore"
	"promising/internal/litmus"
)

// swapHandler lets the peer URLs exist before the daemons do: each
// httptest server starts with an empty swapHandler, the URL set is
// collected, and only then is each Server constructed with the full peer
// list as its -peers default.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (sh *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sh.mu.RLock()
	h := sh.h
	sh.mu.RUnlock()
	if h == nil {
		http.Error(w, "daemon not up yet", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// startClusterPeers brings up n in-process daemons that all know the full
// peer list (Config.Peers), returning their URLs, Servers, and httptest
// servers (peers[0] is the conventional coordinator).
func startClusterPeers(t *testing.T, n int, cfg Config) ([]string, []*Server, []*httptest.Server) {
	t.Helper()
	urls := make([]string, n)
	hss := make([]*httptest.Server, n)
	swaps := make([]*swapHandler, n)
	for i := 0; i < n; i++ {
		swaps[i] = &swapHandler{}
		hss[i] = httptest.NewServer(swaps[i])
		urls[i] = hss[i].URL
	}
	srvs := make([]*Server, n)
	for i := 0; i < n; i++ {
		c := cfg
		c.Peers = urls
		s, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		swaps[i].mu.Lock()
		swaps[i].h = s.Handler()
		swaps[i].mu.Unlock()
		srvs[i] = s
	}
	t.Cleanup(func() {
		for i := n - 1; i >= 0; i-- {
			hss[i].Close()
			srvs[i].Close()
		}
	})
	return urls, srvs, hss
}

// waitCluster polls the coordinator until the job leaves JobRunning and
// returns its single report.
func waitCluster(ctx context.Context, c *Client, jobID string, d time.Duration) (*TestReport, error) {
	deadline := time.Now().Add(d)
	for {
		st, err := c.Job(ctx, jobID)
		if err != nil {
			return nil, err
		}
		if st.State != JobRunning {
			if len(st.Reports) == 0 || st.Reports[0] == nil {
				return nil, context.DeadlineExceeded
			}
			return st.Reports[0], nil
		}
		if time.Now().After(deadline) {
			c.CancelJob(ctx, jobID)
			return nil, context.DeadlineExceeded
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// refOutcomes runs the test locally and uninterrupted on the named
// backend, returning the TestReport.Outcomes-shaped lines.
func refOutcomes(t *testing.T, tst *litmus.Test, backend string) []string {
	t.Helper()
	named, err := backends.ResolveNamed(backend)
	if err != nil {
		t.Fatal(err)
	}
	v, err := litmus.Run(tst, named.Run, explore.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(litmus.FormatOutcomes(v.Spec, v.Result, tst.Prog), "\n")
}

// fastClusterOpts keeps cluster runs snappy in tests: tight polling,
// short checkpoint legs, and a small widening budget so even small
// catalog tests actually fan out.
func fastClusterOpts() ClusterOptions {
	return ClusterOptions{PollMS: 10, CheckpointMS: 40, WidenStates: 8}
}

// TestClusterCatalogEquivalence is the acceptance gate for the
// coordinator: the full catalog, on both machine backends, explored
// through a 3-peer cluster with cross-peer dedup live, must produce
// outcome sets byte-identical to uninterrupted single-daemon runs.
func TestClusterCatalogEquivalence(t *testing.T) {
	urls, _, _ := startClusterPeers(t, 3, Config{Workers: 4, DefaultTimeout: 2 * time.Minute})
	coord := NewClient(urls[0], nil)
	ctx := context.Background()

	tests := litmus.Catalog()
	if raceEnabled {
		// The race detector slows exploration ~10×; a representative
		// subset keeps the suite inside CI budgets.
		var sub []*litmus.Test
		for _, name := range []string{"MP", "SB", "LB", "IRIW", "PPOCA", "LB+addrs", "WRC+data+addr", "2+2W"} {
			sub = append(sub, litmus.CatalogTest(name))
		}
		tests = sub
	}

	type cell struct {
		tst     *litmus.Test
		backend string
	}
	var cells []cell
	for _, tst := range tests {
		for _, b := range []string{backends.Promising, backends.Naive} {
			cells = append(cells, cell{tst, b})
		}
	}

	var mu sync.Mutex // serializes t.Errorf detail with its context
	sem := make(chan struct{}, 4)
	var wg sync.WaitGroup
	for _, cl := range cells {
		wg.Add(1)
		go func(cl cell) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			br, err := coord.Cluster(ctx, ClusterRequest{
				TestSpec: TestSpec{Catalog: cl.tst.Name()},
				Backend:  cl.backend,
				Cluster:  fastClusterOpts(),
			})
			if err != nil {
				mu.Lock()
				t.Errorf("%s/%s: submit: %v", cl.tst.Name(), cl.backend, err)
				mu.Unlock()
				return
			}
			tr, err := waitCluster(ctx, coord, br.JobID, 2*time.Minute)
			if err != nil {
				mu.Lock()
				t.Errorf("%s/%s: %v", cl.tst.Name(), cl.backend, err)
				mu.Unlock()
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if tr.Error != "" || tr.Status == string(litmus.StatusError) {
				t.Errorf("%s/%s: cluster run errored: %s", cl.tst.Name(), cl.backend, tr.Error)
				return
			}
			want := refOutcomes(t, cl.tst, cl.backend)
			if !sameLines(tr.Outcomes, want) {
				t.Errorf("%s/%s: cluster outcomes differ from uninterrupted run:\n got: %v\nwant: %v",
					cl.tst.Name(), cl.backend, tr.Outcomes, want)
			}
			if tr.Status != "pass" {
				t.Errorf("%s/%s: cluster status %q (allowed=%v, expect=%s)",
					cl.tst.Name(), cl.backend, tr.Status, tr.Allowed, tr.Expect)
			}
		}(cl)
	}
	wg.Wait()
}

// TestClusterOtherBackends drives the flat and axiomatic backends — one
// with full-snapshot legs only, one resuming via spec replay — through a
// 2-peer cluster on the classic trio.
func TestClusterOtherBackends(t *testing.T) {
	urls, _, _ := startClusterPeers(t, 2, Config{Workers: 4, DefaultTimeout: 2 * time.Minute})
	coord := NewClient(urls[0], nil)
	ctx := context.Background()
	for _, name := range []string{"SB", "MP", "LB"} {
		for _, b := range []string{backends.Flat, backends.Axiomatic} {
			tst := litmus.CatalogTest(name)
			br, err := coord.Cluster(ctx, ClusterRequest{
				TestSpec: TestSpec{Catalog: name},
				Backend:  b,
				Cluster:  fastClusterOpts(),
			})
			if err != nil {
				t.Fatalf("%s/%s: submit: %v", name, b, err)
			}
			tr, err := waitCluster(ctx, coord, br.JobID, 2*time.Minute)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, b, err)
			}
			if tr.Error != "" {
				t.Fatalf("%s/%s: cluster run errored: %s", name, b, tr.Error)
			}
			if want := refOutcomes(t, tst, b); !sameLines(tr.Outcomes, want) {
				t.Errorf("%s/%s: cluster outcomes differ:\n got: %v\nwant: %v", name, b, tr.Outcomes, want)
			}
		}
	}
}

// TestClusterPeerDeathRetry kills a peer daemon mid-run: the coordinator
// must declare its attempt dead, re-dispatch the attempt's last
// checkpoint to a survivor (promised_shard_retries_total), and still
// finish with the uninterrupted outcome set.
func TestClusterPeerDeathRetry(t *testing.T) {
	src := restartSrc()
	urls, srvs, hss := startClusterPeers(t, 3, Config{
		Workers: 4, DefaultTimeout: 4 * time.Minute, StatsInterval: 20 * time.Millisecond,
	})
	coord := NewClient(urls[0], nil)
	ctx := context.Background()

	br, err := coord.Cluster(ctx, ClusterRequest{
		TestSpec: TestSpec{Source: src},
		Shards:   3,
		Options:  CheckOptions{TimeoutMS: 180_000},
		Cluster: ClusterOptions{
			PollMS: 20, CheckpointMS: 40, WidenStates: 24,
			FailAfter: 2, NoRebalance: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Wait until some non-coordinator peer is running an attempt, then
	// kill that peer's HTTP frontend (the in-process daemon lives on as a
	// zombie — exactly the partial-kill the revocation protocol covers).
	victim := -1
	deadline := time.Now().Add(60 * time.Second)
	for victim < 0 {
		if time.Now().After(deadline) {
			t.Fatal("no attempt landed on a killable peer before the deadline")
		}
		st, err := coord.Job(ctx, br.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobRunning {
			t.Fatalf("cluster finished before a peer could be killed (state %s); shrink WidenStates", st.State)
		}
		for _, ss := range st.Shards {
			if ss.State != ShardRunning {
				continue
			}
			for i := 1; i < len(urls); i++ {
				if ss.Peer == urls[i] {
					victim = i
				}
			}
		}
		if victim < 0 {
			time.Sleep(10 * time.Millisecond)
		}
	}
	hss[victim].Close()

	tr, err := waitCluster(ctx, coord, br.JobID, 4*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Error != "" {
		t.Fatalf("cluster run errored after peer death: %s", tr.Error)
	}
	if got := srvs[0].shardRetries.Load(); got < 1 {
		t.Errorf("promised_shard_retries_total = %d after killing a peer, want >= 1", got)
	}

	st, err := coord.Job(ctx, br.JobID)
	if err != nil {
		t.Fatal(err)
	}
	retried := false
	for _, ss := range st.Shards {
		if ss.Source == ShardSourceRetry {
			retried = true
		}
	}
	if !retried {
		t.Error("final shard map records no retry-sourced attempt")
	}

	want, _ := uninterruptedOutcomes(t, src)
	if !sameLines(tr.Outcomes, want) {
		t.Errorf("outcomes after peer death differ from uninterrupted run:\n got: %v\nwant: %v", tr.Outcomes, want)
	}
}

// TestClusterRebalanceSteals forces a steal: one shard on a two-peer
// cluster with a threshold of one frontier entry means the coordinator
// must checkpoint the straggler, split its frontier, and hand half to the
// idle peer — without changing the outcome set.
func TestClusterRebalanceSteals(t *testing.T) {
	src := restartSrc()
	urls, srvs, _ := startClusterPeers(t, 2, Config{
		Workers: 4, DefaultTimeout: 4 * time.Minute, StatsInterval: 20 * time.Millisecond,
	})
	coord := NewClient(urls[0], nil)
	ctx := context.Background()

	br, err := coord.Cluster(ctx, ClusterRequest{
		TestSpec: TestSpec{Source: src},
		Shards:   1,
		Options:  CheckOptions{TimeoutMS: 180_000},
		Cluster: ClusterOptions{
			PollMS: 20, CheckpointMS: 40, WidenStates: 24,
			RebalanceFrontier: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := waitCluster(ctx, coord, br.JobID, 4*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Error != "" {
		t.Fatalf("cluster run errored: %s", tr.Error)
	}
	if got := srvs[0].shardSteals.Load(); got < 1 {
		t.Errorf("promised_shard_steals_total = %d with a 1-entry threshold and an idle peer, want >= 1", got)
	}
	st, err := coord.Job(ctx, br.JobID)
	if err != nil {
		t.Fatal(err)
	}
	stolen := false
	for _, ss := range st.Shards {
		if ss.Source == ShardSourceSteal {
			stolen = true
		}
	}
	if !stolen {
		t.Error("final shard map records no steal-sourced attempt")
	}
	want, _ := uninterruptedOutcomes(t, src)
	if !sameLines(tr.Outcomes, want) {
		t.Errorf("outcomes after rebalance differ from uninterrupted run:\n got: %v\nwant: %v", tr.Outcomes, want)
	}
}

// TestShardSeenClaimProtocol pins the claim table's semantics over the
// wire: whole-state claims (no masks) are first-claimant-wins, purging
// frees the claims, a revoked attempt is granted nothing ever again, and
// per-family masks deny exactly the families other attempts hold.
func TestShardSeenClaimProtocol(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	keys := [][]byte{[]byte("k1"), []byte("k2")}

	seen := func(group, attempt string, revoked []string, masks []uint32) []uint32 {
		t.Helper()
		var resp SeenResponse
		if err := c.do(ctx, http.MethodPost, "/v1/shards/"+group+"/seen",
			SeenRequest{Attempt: attempt, Revoked: revoked, Keys: keys, Masks: masks}, &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Denied
	}
	all := explore.AllFamilies

	if den := seen("g1", "A", nil, nil); den[0] != 0 || den[1] != 0 {
		t.Fatalf("first claim denied: %v", den)
	}
	if den := seen("g1", "B", nil, nil); den[0] != all || den[1] != all {
		t.Fatalf("second attempt not fully denied against A's claims: %v", den)
	}
	if got := s.dedupHits.Load(); got < 2 {
		t.Errorf("promised_shard_dedup_hits_total = %d, want >= 2", got)
	}

	// Purge A: B's next query claims the freed keys.
	if err := c.do(ctx, http.MethodPost, "/v1/shards/g1/purge", PurgeRequest{Attempt: "A"}, nil); err != nil {
		t.Fatal(err)
	}
	if den := seen("g1", "B", nil, nil); den[0] != 0 || den[1] != 0 {
		t.Fatalf("B denied the purged keys: %v", den)
	}
	// A is revoked: everything it asks about is someone else's now, even
	// keys nobody claims.
	if den := seen("g1", "A", nil, nil); den[0] != all || den[1] != all {
		t.Fatalf("revoked attempt was granted a claim: %v", den)
	}
	// The Revoked list piggybacked on a query folds in like a purge.
	if den := seen("g1", "C", []string{"B"}, nil); den[0] != 0 || den[1] != 0 {
		t.Fatalf("C denied keys freed by piggybacked revocation: %v", den)
	}
	// Group drop clears the table.
	if err := c.do(ctx, http.MethodDelete, "/v1/shards/g1", nil, nil); err != nil {
		t.Fatal(err)
	}
	if den := seen("g1", "D", nil, nil); den[0] != 0 || den[1] != 0 {
		t.Fatalf("fresh group answered denials: %v", den)
	}

	// Per-family grants: distinct attempts hold disjoint family sets of
	// the same state, and only the overlap is denied.
	if den := seen("g2", "C", nil, []uint32{1, 1}); den[0] != 0 || den[1] != 0 {
		t.Fatalf("C's family-0 claim denied on fresh keys: %v", den)
	}
	if den := seen("g2", "D", nil, []uint32{3, 3}); den[0] != 1 || den[1] != 1 {
		t.Fatalf("D claiming families {0,1} should be denied exactly family 0: %v", den)
	}
	// C's own grant is never denied back to it; D's family-1 grant is.
	if den := seen("g2", "C", nil, []uint32{3, 3}); den[0] != 2 || den[1] != 2 {
		t.Fatalf("C re-claiming families {0,1} should be denied exactly family 1: %v", den)
	}
}

// TestShardGroupsRetainRevocationsAcrossEviction pins the registry's
// eviction semantics: groups are collected by idleness, not insertion
// order, and an evicted group's revocation list survives recreation so a
// revoked zombie is still granted nothing.
func TestShardGroupsRetainRevocationsAcrossEviction(t *testing.T) {
	sg := newShardGroups()
	sg.get("cluster").apply("", []string{"zombie"}, nil, nil)

	// Recently used groups are never evicted, regardless of how many
	// newer groups arrive.
	for i := 0; i < 2*keepGroups; i++ {
		sg.get(fmt.Sprintf("fresh-%d", i))
	}
	sg.mu.Lock()
	_, live := sg.m["cluster"]
	sg.mu.Unlock()
	if !live {
		t.Fatal("active group evicted by insertion order")
	}

	// Backdate the group past the idle TTL: the next registry growth
	// collects it, parking its revocation list.
	sg.mu.Lock()
	sg.lastUse["cluster"] = time.Now().Add(-2 * groupIdleTTL)
	sg.mu.Unlock()
	sg.get("trigger")
	sg.mu.Lock()
	_, live = sg.m["cluster"]
	sg.mu.Unlock()
	if live {
		t.Fatal("idle group not evicted")
	}

	// Recreating the group restores the parked revocations.
	den, _ := sg.get("cluster").apply("zombie", nil, [][]byte{[]byte("k")}, nil)
	if den[0] != explore.AllFamilies {
		t.Fatalf("revoked attempt granted a claim after group eviction+recreation: %v", den)
	}
}
