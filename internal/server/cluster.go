package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"promising/internal/backends"
	"promising/internal/core"
	"promising/internal/explore"
	"promising/internal/litmus"
	"promising/internal/obs"
)

// Distributed exploration coordinator.
//
// A cluster run (POST /v1/cluster) explores one test across several peer
// daemons: the coordinating daemon widens the exploration until the
// frontier supports the requested shard count, splits the checkpoint
// (explore.Snapshot.Split) and dispatches one asynchronous *shard job*
// per part (POST /v1/shards/jobs). Shard jobs explore in checkpoint legs
// and publish each leg as a delta snapshot, so the coordinator's view of
// a shard's progress costs O(new states) per poll, not O(states).
//
// Three mechanisms ride on that loop:
//
//   - Cross-peer dedup: the cluster's state-key space is hash-partitioned
//     across the peer list; each shard reports the thread families it
//     newly claims at locally discovered states to the owning peer
//     (batched, asynchronous — never blocking an engine worker) and skips
//     expanding families another live attempt was granted. Claims are per
//     (state, family) in the state's canonical frame — the granularity
//     that keeps dedup sound under independence pruning — and are
//     attempt-scoped and revocable, so dedup is a pure work-saving: a
//     missed, late or failed verdict costs re-exploration, never outcomes
//     (soundness argument on shardGroup below).
//   - Live rebalancing: the coordinator samples per-shard frontier and
//     throughput; a straggler with a deep frontier is checkpointed
//     mid-run, its frontier Split(2), and one half reassigned to the
//     idlest peer (promised_shard_steals_total).
//   - Shard retry: a dead or failed attempt is revoked (its claims are
//     purged so they grant nothing and block nobody) and its last
//     coordinator-held checkpoint is re-dispatched to a surviving peer
//     (promised_shard_retries_total).

// ---------------------------------------------------------------------
// Wire types.

// SeenRequest is the body of POST /v1/shards/{group}/seen: a batch of
// claim requests — canonical state keys one shard attempt discovered,
// each with the thread families the attempt claimed there — reported to
// the peer owning their hash partition.
type SeenRequest struct {
	// Attempt identifies the reporting shard attempt; claims are granted
	// to it and die with it (revocation).
	Attempt string `json:"attempt"`
	// Revoked lists attempts the coordinator has declared dead. The owner
	// folds the revocations in before answering, which closes the race
	// where a purge could not reach this peer: the successor attempt's own
	// queries carry the revocation that frees its predecessor's claims.
	Revoked []string `json:"revoked,omitempty"`
	// Keys are the discovered canonical state encodings.
	Keys [][]byte `json:"keys"`
	// Masks[i] is the canonical thread-family set the attempt newly
	// claimed at Keys[i] (explore.AllFamilies for whole-state backends).
	// Empty means AllFamilies for every key.
	Masks []uint32 `json:"masks,omitempty"`
}

// SeenResponse answers a seen batch: Denied[i] is the subset of Masks[i]
// already granted to another live attempt. The reporter must not expand
// those families (their claimants do) and drops the state outright when
// every family it would expand is denied.
type SeenResponse struct {
	Denied []uint32 `json:"denied"`
}

// PurgeRequest is the body of POST /v1/shards/{group}/purge: revoke an
// attempt and free its claims.
type PurgeRequest struct {
	Attempt string `json:"attempt"`
}

// ShardJobRequest is the body of POST /v1/shards/jobs: explore one full
// (non-delta) snapshot asynchronously in checkpoint legs, publishing each
// leg as a delta.
type ShardJobRequest struct {
	TestSpec
	// Backend defaults to the snapshot's own backend tag.
	Backend string `json:"backend,omitempty"`
	// Snapshot is the full snapshot to resume (Split shard or retry
	// checkpoint); delta snapshots are refused.
	Snapshot json.RawMessage `json:"snapshot"`
	Options  CheckOptions    `json:"options,omitzero"`
	// Group names the cluster's dedup claim-table namespace; empty
	// disables cross-peer dedup for this job.
	Group string `json:"group,omitempty"`
	// Attempt is this job's claim identity (unique per dispatch; a
	// retried shard is a fresh attempt).
	Attempt string `json:"attempt"`
	// Peers is the cluster's stable peer list (ownership hashing); Self is
	// this daemon's index in it.
	Peers []string `json:"peers,omitempty"`
	Self  int      `json:"self,omitempty"`
	// Revoked seeds the attempt's revocation list (attempts already
	// declared dead at dispatch time).
	Revoked []string `json:"revoked,omitempty"`
	// NoDedup disables the remote-seen hook even with peers configured.
	NoDedup bool `json:"no_dedup,omitempty"`
	// CheckpointMS is the leg length (default 2000).
	CheckpointMS int64 `json:"checkpoint_ms,omitempty"`
}

// ShardJobResponse acknowledges a shard job.
type ShardJobResponse struct {
	ID string `json:"id"`
}

// Shard-job lifecycle states (ShardJobStatus.State).
const (
	ShardRunning = "running"
	ShardDone    = "done"
	ShardStopped = "stopped"
	ShardFailed  = "failed"
)

// ShardJobStatus is the body of GET /v1/shards/jobs/{id}.
type ShardJobStatus struct {
	ID      string `json:"id"`
	Attempt string `json:"attempt"`
	State   string `json:"state"`
	// Leg is the newest applied checkpoint leg (snapshots up to it are
	// fetchable via the snapshot endpoint).
	Leg int `json:"leg"`
	// States/Frontier/StatesPerSec are the live in-flight sample.
	States       int64   `json:"states"`
	Frontier     int     `json:"frontier"`
	StatesPerSec float64 `json:"states_per_sec"`
	DedupHits    int64   `json:"dedup_hits,omitempty"`
	DedupDrops   int64   `json:"dedup_drops,omitempty"`
	// Report is the final mergeable result (state "done").
	Report *ShardReport `json:"report,omitempty"`
	Error  string       `json:"error,omitempty"`
}

// SnapshotChunk is the body of GET /v1/shards/jobs/{id}/snapshot?since=N:
// either the delta legs (N, Leg] (oldest first, each applicable in order
// with explore.ApplyDelta), or the latest full snapshot when the range is
// unavailable (pruned, non-delta backend, or ?full=1).
type SnapshotChunk struct {
	Leg    int               `json:"leg"`
	Full   json.RawMessage   `json:"full,omitempty"`
	Deltas []json.RawMessage `json:"deltas,omitempty"`
}

// ClusterOptions tunes the coordinator loop.
type ClusterOptions struct {
	// PollMS is the status/delta poll interval (default 500).
	PollMS int64 `json:"poll_ms,omitempty"`
	// CheckpointMS is the shard jobs' leg length (default 2000).
	CheckpointMS int64 `json:"checkpoint_ms,omitempty"`
	// WidenStates is the widening budget before the split (default
	// 32 × shards).
	WidenStates int `json:"widen_states,omitempty"`
	// RebalanceFrontier is the straggler threshold: a shard whose sampled
	// frontier reaches it while another peer is idle gets split (default
	// 64). Ignored with NoRebalance.
	RebalanceFrontier int  `json:"rebalance_frontier,omitempty"`
	NoRebalance       bool `json:"no_rebalance,omitempty"`
	NoDedup           bool `json:"no_dedup,omitempty"`
	// MaxRetries bounds dead-shard re-dispatches (default len(peers)).
	MaxRetries int `json:"max_retries,omitempty"`
	// FailAfter is how many consecutive failed status polls declare an
	// attempt dead (default 3).
	FailAfter int `json:"fail_after,omitempty"`
}

// ClusterRequest is the body of POST /v1/cluster.
type ClusterRequest struct {
	TestSpec
	Backend string `json:"backend,omitempty"`
	// Shards is the initial shard-attempt count (default len(peers)).
	Shards int `json:"shards,omitempty"`
	// Peers lists the cluster's daemons (base URLs). Defaults to the
	// coordinator's -peers configuration.
	Peers   []string       `json:"peers,omitempty"`
	Options CheckOptions   `json:"options,omitzero"`
	Cluster ClusterOptions `json:"cluster,omitzero"`
}

// Shard-attempt provenance (ShardState.Source).
const (
	ShardSourceInitial = "initial"
	ShardSourceRetry   = "retry"
	ShardSourceSteal   = "steal"
)

// ShardState is one row of a cluster job's live shard map
// (JobStatus.Shards): which peer runs which attempt, how it got there,
// and its sampled progress.
type ShardState struct {
	Attempt      string  `json:"attempt"`
	Peer         string  `json:"peer"`
	Source       string  `json:"source"`
	State        string  `json:"state"`
	Leg          int     `json:"leg"`
	States       int64   `json:"states"`
	Frontier     int     `json:"frontier"`
	StatesPerSec float64 `json:"states_per_sec"`
	DedupHits    int64   `json:"dedup_hits,omitempty"`
	DedupDrops   int64   `json:"dedup_drops,omitempty"`
}

// ---------------------------------------------------------------------
// Claim tables: the owner side of cross-peer dedup.
//
// Claims are per (state key, thread family), in the state's canonical
// thread frame (explore.CanonMask — a deterministic function of the
// state, so a family bit means the same on every peer). Whole-state
// backends (promise-first, or machine backends with pruning off) claim
// explore.AllFamilies and degenerate to first-claimant-wins per state.
//
// Soundness invariant: an outcome is lost only if some (reachable state,
// awake family) expansion is skipped by every attempt whose arrival had
// the family awake while no live attempt expands it. An attempt skips a
// family only against a *grant* to another attempt, and a grant is
// issued only to an attempt that requested the family because it was
// awake — newly claimed in its local seen set — at one of its own
// arrivals. The grantee therefore holds a frontier entry expanding
// exactly that family (its own grant is never denied back to it), and
// either expands it or leaves it, todo mask included, in its
// checkpointed frontier. This per-family granularity is what whole-state
// claims lack under independence pruning: a whole-state claimant may
// have slept a family at every one of its arrivals and would never
// expand it — the sleep-set "ignoring problem" re-introduced across
// shards, a lost-interleaving bug, not just lost work.
//
// Grants are honoured only while their attempt is live: when the
// coordinator declares an attempt dead it revokes it (purge, plus the
// Revoked list every successor query carries), which frees its grants
// before — or atomically with — the successor's own claim queries. The
// successor resumes the dead attempt's last checkpoint, so every
// (state, family) the dead attempt was granted is either inside that
// checkpoint (seen set/outcomes/frontier aux) or re-reachable from its
// frontier, where the successor re-claims it. A revoked attempt is also
// never *granted* anything again (every query answers fully denied), so
// a zombie — a process whose daemon was only partially killed — can
// keep exploring without stealing work from the successor.

// shardGroup is one cluster's claim table on one owner daemon.
type shardGroup struct {
	mu      sync.Mutex
	claims  map[string]*keyClaim // state key → per-attempt family grants
	revoked map[string]bool
}

// keyClaim records which attempt holds which families of one state key
// (parallel slices — a key rarely has more than one claimant).
type keyClaim struct {
	attempts []string
	masks    []uint32
}

func (kc *keyClaim) remove(attempt string) {
	for j, a := range kc.attempts {
		if a == attempt {
			kc.attempts = append(kc.attempts[:j], kc.attempts[j+1:]...)
			kc.masks = append(kc.masks[:j], kc.masks[j+1:]...)
			return
		}
	}
}

// apply answers one seen batch: fold in revocations, then try to claim
// each (key, mask) for the attempt. Returns the per-key denied family
// sets and the number of keys with at least one denied family. An empty
// masks slice means AllFamilies for every key.
func (g *shardGroup) apply(attempt string, revoked []string, keys [][]byte, masks []uint32) ([]uint32, int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, a := range revoked {
		if !g.revoked[a] {
			g.revoked[a] = true
			for k, kc := range g.claims {
				kc.remove(a)
				if len(kc.attempts) == 0 {
					delete(g.claims, k)
				}
			}
		}
	}
	maskAt := func(i int) uint32 {
		if i < len(masks) {
			return masks[i]
		}
		return explore.AllFamilies
	}
	denied := make([]uint32, len(keys))
	var hits int64
	if g.revoked[attempt] {
		// A revoked attempt is granted nothing: everything it asks about
		// is someone else's now.
		for i := range denied {
			if denied[i] = maskAt(i); denied[i] != 0 {
				hits++
			}
		}
		return denied, hits
	}
	for i, k := range keys {
		m := maskAt(i)
		if m == 0 {
			continue
		}
		ks := string(k)
		kc := g.claims[ks]
		if kc == nil {
			kc = &keyClaim{}
			g.claims[ks] = kc
		}
		var others, own uint32
		ownIdx := -1
		for j, a := range kc.attempts {
			if a == attempt {
				own, ownIdx = kc.masks[j], j
			} else {
				others |= kc.masks[j]
			}
		}
		if denied[i] = m & others; denied[i] != 0 {
			hits++
		}
		if grant := m &^ (others | own); grant != 0 {
			if ownIdx >= 0 {
				kc.masks[ownIdx] |= grant
			} else {
				kc.attempts = append(kc.attempts, attempt)
				kc.masks = append(kc.masks, grant)
			}
		}
	}
	return denied, hits
}

// shardGroups is a daemon's group registry. Abandoned groups (a
// coordinator that died before DELETE) are collected by idleness, never
// by insertion order: an active cluster's claim table — revocation list
// included — must not vanish mid-run, or a revoked zombie could re-claim
// states that live attempts then drop. If the hard cap ever forces an
// eviction anyway, the evicted group's revocation list is parked by name
// so a recreated group still grants a revoked zombie nothing.
type shardGroups struct {
	mu      sync.Mutex
	m       map[string]*shardGroup
	lastUse map[string]time.Time
	// evictedRevoked parks evicted groups' revocation lists (bounded
	// FIFO over evOrder).
	evictedRevoked map[string]map[string]bool
	evOrder        []string
}

const (
	keepGroups             = 64             // idle-collection threshold
	hardMaxGroups          = 8 * keepGroups // forced-eviction cap
	groupIdleTTL           = 15 * time.Minute
	keepEvictedRevocations = 256
)

func newShardGroups() *shardGroups {
	return &shardGroups{
		m:              make(map[string]*shardGroup),
		lastUse:        make(map[string]time.Time),
		evictedRevoked: make(map[string]map[string]bool),
	}
}

func (s *shardGroups) get(name string) *shardGroup {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.m[name]
	if !ok {
		g = &shardGroup{claims: map[string]*keyClaim{}, revoked: map[string]bool{}}
		if rv, ok := s.evictedRevoked[name]; ok {
			g.revoked = rv
			s.unparkLocked(name)
		}
		s.m[name] = g
		s.evictLocked(now)
	}
	s.lastUse[name] = now
	return g
}

// evictLocked collects idle groups past the soft cap and, only if the
// hard cap is still exceeded (which would take keepGroups*8 clusters
// active inside one TTL), the least recently used groups regardless —
// parking their revocation lists for recreation.
func (s *shardGroups) evictLocked(now time.Time) {
	if len(s.m) <= keepGroups {
		return
	}
	for name, last := range s.lastUse {
		if now.Sub(last) > groupIdleTTL {
			s.evictOneLocked(name)
		}
	}
	for len(s.m) > hardMaxGroups {
		oldest, oldestT := "", now.Add(time.Second)
		for name, last := range s.lastUse {
			if last.Before(oldestT) {
				oldest, oldestT = name, last
			}
		}
		if oldest == "" {
			return
		}
		s.evictOneLocked(oldest)
	}
}

func (s *shardGroups) evictOneLocked(name string) {
	g := s.m[name]
	delete(s.m, name)
	delete(s.lastUse, name)
	if g == nil || len(g.revoked) == 0 {
		return
	}
	if _, ok := s.evictedRevoked[name]; !ok {
		s.evOrder = append(s.evOrder, name)
		for len(s.evOrder) > keepEvictedRevocations {
			delete(s.evictedRevoked, s.evOrder[0])
			s.evOrder = s.evOrder[1:]
		}
	}
	s.evictedRevoked[name] = g.revoked
}

func (s *shardGroups) unparkLocked(name string) {
	delete(s.evictedRevoked, name)
	for i, n := range s.evOrder {
		if n == name {
			s.evOrder = append(s.evOrder[:i], s.evOrder[i+1:]...)
			break
		}
	}
}

func (s *shardGroups) drop(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, name)
	delete(s.lastUse, name)
	s.unparkLocked(name)
}

// applySeen is the one claim entry point (HTTP handler and the local
// short-circuit of remoteDedup), so the owner-side dedup counter cannot
// drift between the two paths.
func (s *Server) applySeen(group, attempt string, revoked []string, keys [][]byte, masks []uint32) []uint32 {
	denied, hits := s.groups.get(group).apply(attempt, revoked, keys, masks)
	if hits > 0 {
		s.dedupHits.Add(hits)
	}
	return denied
}

func (s *Server) handleShardSeen(w http.ResponseWriter, r *http.Request) {
	var req SeenRequest
	if !decodeBodyLimit(w, r, &req, 64<<20) {
		return
	}
	if req.Attempt == "" {
		writeErr(w, http.StatusBadRequest, "seen batch without attempt id")
		return
	}
	if len(req.Masks) != 0 && len(req.Masks) != len(req.Keys) {
		writeErr(w, http.StatusBadRequest, "seen batch with %d masks for %d keys", len(req.Masks), len(req.Keys))
		return
	}
	writeJSON(w, http.StatusOK, SeenResponse{
		Denied: s.applySeen(r.PathValue("group"), req.Attempt, req.Revoked, req.Keys, req.Masks),
	})
}

func (s *Server) handleShardPurge(w http.ResponseWriter, r *http.Request) {
	var req PurgeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Attempt == "" {
		writeErr(w, http.StatusBadRequest, "purge without attempt id")
		return
	}
	s.groups.get(r.PathValue("group")).apply("", []string{req.Attempt}, nil, nil)
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleShardGroupDrop(w http.ResponseWriter, r *http.Request) {
	s.groups.drop(r.PathValue("group"))
	writeJSON(w, http.StatusOK, struct{}{})
}

// ---------------------------------------------------------------------
// remoteDedup: the reporter side, implementing explore.RemoteSeen.

// dedupBatchSize is how many pending keys trigger an early flush;
// dedupFlushInterval is the time-based flush. dedupMaxPend bounds the
// pending buffer: past it, Discovered answers optimistically (claim
// granted locally, nothing reported) instead of queueing — a dedup miss,
// re-exploration at worst, so a slow peer cannot grow memory unboundedly.
const (
	dedupBatchSize     = 256
	dedupFlushInterval = 25 * time.Millisecond
	dedupMaxPend       = 1 << 16
)

type pendKey struct {
	k    string
	h    core.Handle
	mask uint32
}

// remoteDedup batches locally claimed (state key, family mask) pairs to
// their owning peers and answers ShouldDrop from the asynchronously
// arriving denial verdicts. Engine workers only ever touch in-memory
// structures: self-owned keys claim synchronously on the local daemon's
// table, remote-owned keys append to a per-owner batch drained by
// per-owner flush goroutines (one in flight per owner, so a slow peer
// delays only its own verdicts). Any network failure degrades to
// "nothing denied" — re-exploration, never lost outcomes.
type remoteDedup struct {
	srv            *Server
	group, attempt string
	revoked        []string
	peers          []*Client // index-aligned with the cluster peer list
	self           int
	ctx            context.Context
	cancel         context.CancelFunc

	hits  atomic.Int64 // claims denied (synchronous + async verdicts)
	drops atomic.Int64 // entries dropped at process time

	mu       sync.Mutex
	pend     map[int][]pendKey
	pendN    int
	inflight map[int]bool // owners with a send in progress
	kick     chan struct{}

	dmu     sync.RWMutex
	dropSet map[core.Handle]uint32 // handle → denied canonical families
}

// newRemoteDedup wires the hook for one shard job. peerURLs is the stable
// cluster peer list; self is this daemon's index in it (its partition is
// claimed in-process on srv's own table).
func newRemoteDedup(srv *Server, group, attempt string, revoked []string, peerURLs []string, self int) *remoteDedup {
	ctx, cancel := context.WithCancel(srv.base)
	rd := &remoteDedup{
		srv:      srv,
		group:    group,
		attempt:  attempt,
		revoked:  append([]string(nil), revoked...),
		self:     self,
		ctx:      ctx,
		cancel:   cancel,
		pend:     map[int][]pendKey{},
		inflight: map[int]bool{},
		kick:     make(chan struct{}, 1),
		dropSet:  map[core.Handle]uint32{},
	}
	rd.peers = make([]*Client, len(peerURLs))
	hc := &http.Client{Timeout: 10 * time.Second}
	for i, u := range peerURLs {
		if i != self {
			rd.peers[i] = NewClient(u, hc)
		}
	}
	go rd.flusher()
	return rd
}

func (rd *remoteDedup) owner(key []byte) int {
	h := fnv.New64a()
	h.Write(key)
	return int(h.Sum64() % uint64(len(rd.peers)))
}

// Discovered implements explore.RemoteSeen: self-owned keys claim
// synchronously (map work under the group lock), remote-owned keys are
// batched and answered optimistically (nothing denied yet; a later
// verdict lands in the drop set). Never blocks on the network.
func (rd *remoteDedup) Discovered(key []byte, h core.Handle, mask uint32) uint32 {
	o := rd.owner(key)
	if o == rd.self {
		denied := rd.srv.applySeen(rd.group, rd.attempt, rd.revoked, [][]byte{key}, []uint32{mask})
		if denied[0] != 0 {
			rd.hits.Add(1)
		}
		return denied[0]
	}
	rd.mu.Lock()
	if rd.pendN >= dedupMaxPend {
		rd.mu.Unlock()
		return 0 // buffer full: dedup miss, explore locally (sound)
	}
	rd.pend[o] = append(rd.pend[o], pendKey{k: string(key), h: h, mask: mask})
	rd.pendN++
	full := rd.pendN >= dedupBatchSize
	rd.mu.Unlock()
	if full {
		select {
		case rd.kick <- struct{}{}:
		default:
		}
	}
	return 0
}

// ShouldDrop implements explore.RemoteSeen: true once async verdicts
// denied every family in mask (a partial denial keeps the entry — it
// expands its still-granted families; redundant work is sound, a missed
// family is not).
func (rd *remoteDedup) ShouldDrop(h core.Handle, mask uint32) bool {
	rd.dmu.RLock()
	den := rd.dropSet[h]
	rd.dmu.RUnlock()
	if mask == 0 || den == 0 || mask&^den != 0 {
		return false
	}
	rd.drops.Add(1)
	return true
}

func (rd *remoteDedup) flusher() {
	tick := time.NewTicker(dedupFlushInterval)
	defer tick.Stop()
	for {
		select {
		case <-rd.ctx.Done():
			return
		case <-tick.C:
		case <-rd.kick:
		}
		rd.flush()
	}
}

// flush hands each owner's batch to its own send goroutine, skipping
// owners with a send already in flight (their batch keeps accumulating
// and goes out with the next flush): one slow peer stalls only its own
// verdicts, never the other owners' or the flusher loop.
func (rd *remoteDedup) flush() {
	rd.mu.Lock()
	for o, batch := range rd.pend {
		if rd.peers[o] == nil || len(batch) == 0 || rd.inflight[o] {
			continue
		}
		delete(rd.pend, o)
		rd.pendN -= len(batch)
		rd.inflight[o] = true
		go rd.send(o, batch)
	}
	rd.mu.Unlock()
}

func (rd *remoteDedup) send(o int, batch []pendKey) {
	defer func() {
		rd.mu.Lock()
		delete(rd.inflight, o)
		rd.mu.Unlock()
	}()
	keys := make([][]byte, len(batch))
	masks := make([]uint32, len(batch))
	for i, pk := range batch {
		keys[i] = []byte(pk.k)
		masks[i] = pk.mask
	}
	var resp SeenResponse
	err := rd.peers[o].do(rd.ctx, http.MethodPost, "/v1/shards/"+rd.group+"/seen",
		SeenRequest{Attempt: rd.attempt, Revoked: rd.revoked, Keys: keys, Masks: masks}, &resp)
	if err != nil || len(resp.Denied) != len(batch) {
		return // unreachable owner: explore locally (sound)
	}
	var hits int64
	rd.dmu.Lock()
	for i, den := range resp.Denied {
		if den != 0 {
			rd.dropSet[batch[i].h] |= den
			hits++
		}
	}
	rd.dmu.Unlock()
	if hits > 0 {
		rd.hits.Add(hits)
	}
}

func (rd *remoteDedup) Close() { rd.cancel() }

// ---------------------------------------------------------------------
// Shard jobs: asynchronous leg-checkpointed shard explorations.

// shardJob is one attempt's server-side state. The leg loop applies each
// emitted delta onto its held full snapshot and retains the marshaled
// legs, so the snapshot endpoint can serve either the delta range or the
// full without re-serializing under load (snapshots are marshaled once,
// at the leg boundary, while the run is paused).
type shardJob struct {
	id      string
	attempt string
	ctx     context.Context
	cancel  context.CancelFunc
	sampler *obs.Sampler
	rd      *remoteDedup

	mu         sync.Mutex
	state      string
	errMsg     string
	leg        int               // leg of the newest applied full
	fullRaw    json.RawMessage   // marshaled newest applied full
	deltaRaws  []json.RawMessage // legs firstDelta .. leg, oldest first
	firstDelta int
	report     *ShardReport
	stopReq    bool
	ck         *explore.Checkpoint
}

// keepDeltas bounds the retained per-leg deltas; older requests fall back
// to the full snapshot.
const keepDeltas = 64

func (sj *shardJob) status() ShardJobStatus {
	sj.mu.Lock()
	st := ShardJobStatus{
		ID: sj.id, Attempt: sj.attempt, State: sj.state,
		Leg: sj.leg, Report: sj.report, Error: sj.errMsg,
	}
	sj.mu.Unlock()
	if s := sj.sampler.Latest(); s != nil {
		st.States = s.States
		st.Frontier = s.Frontier
		st.StatesPerSec = s.StatesPerSec
	}
	if st.Report != nil {
		st.States = int64(st.Report.States)
		st.Frontier = 0
	}
	if sj.rd != nil {
		st.DedupHits = sj.rd.hits.Load()
		st.DedupDrops = sj.rd.drops.Load()
	}
	return st
}

func (sj *shardJob) fail(err error) {
	sj.mu.Lock()
	sj.state = ShardFailed
	sj.errMsg = err.Error()
	sj.mu.Unlock()
}

// shardJobTable registers shard jobs, pruning the oldest terminal ones.
type shardJobTable struct {
	mu    sync.Mutex
	m     map[string]*shardJob
	order []string
}

func newShardJobTable() *shardJobTable {
	return &shardJobTable{m: map[string]*shardJob{}}
}

func (t *shardJobTable) add(sj *shardJob) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[sj.id] = sj
	t.order = append(t.order, sj.id)
	for len(t.m) > keepJobs {
		pruned := false
		for i, id := range t.order {
			if old, ok := t.m[id]; ok {
				old.mu.Lock()
				terminal := old.state != ShardRunning
				old.mu.Unlock()
				if terminal {
					delete(t.m, id)
					t.order = append(t.order[:i], t.order[i+1:]...)
					pruned = true
					break
				}
			}
		}
		if !pruned {
			break
		}
	}
}

func (t *shardJobTable) get(id string) (*shardJob, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sj, ok := t.m[id]
	return sj, ok
}

func newShardJobID() string {
	var b [8]byte
	rand.Read(b[:])
	return "shard-" + hex.EncodeToString(b[:])
}

func (s *Server) handleShardJobStart(w http.ResponseWriter, r *http.Request) {
	var req ShardJobRequest
	if !decodeBodyLimit(w, r, &req, 256<<20) {
		return
	}
	t, err := resolveTest(req.TestSpec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := checkOptionsValid(req.Options); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	snap, err := explore.UnmarshalSnapshot(req.Snapshot)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if snap.Delta {
		writeErr(w, http.StatusBadRequest, "shard job needs a full snapshot; ApplyDelta leg %d onto its base first", snap.Leg)
		return
	}
	backend := req.Backend
	if backend == "" {
		backend = snap.Backend
	}
	if _, err := backends.ResolveResumer(backend); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Attempt == "" {
		writeErr(w, http.StatusBadRequest, "shard job without attempt id")
		return
	}

	ctx, cancel := context.WithCancel(s.base)
	sj := &shardJob{
		id:         newShardJobID(),
		attempt:    req.Attempt,
		ctx:        ctx,
		cancel:     cancel,
		sampler:    obs.NewSampler(s.cfg.StatsInterval),
		state:      ShardRunning,
		leg:        snap.Leg,
		fullRaw:    req.Snapshot,
		firstDelta: snap.Leg + 1,
	}
	if req.Group != "" && !req.NoDedup && len(req.Peers) > 0 && req.Self >= 0 && req.Self < len(req.Peers) {
		sj.rd = newRemoteDedup(s, req.Group, req.Attempt, req.Revoked, req.Peers, req.Self)
	}
	s.shardJobs.add(sj)
	go s.runShardJob(sj, t, backend, snap, req)
	s.logf("promised: shard job %s started (attempt %s, %s, frontier=%d, leg=%d)",
		sj.id, sj.attempt, t.Name(), len(snap.Frontier), snap.Leg)
	writeJSON(w, http.StatusAccepted, ShardJobResponse{ID: sj.id})
}

// runShardJob explores the shard in checkpoint legs, publishing each leg
// (publish), until the shard completes, fails, or is stopped for
// rebalancing.
func (s *Server) runShardJob(sj *shardJob, t *litmus.Test, backend string, snap *explore.Snapshot, req ShardJobRequest) {
	defer sj.cancel()
	if sj.rd != nil {
		defer sj.rd.Close()
	}
	every := 2 * time.Second
	if req.CheckpointMS > 0 {
		every = time.Duration(req.CheckpointMS) * time.Millisecond
	}
	stopped := false
	v, err := s.run(sj.ctx, exploration{
		test: t, backend: backend, opts: req.Options, resume: snap,
		sampler: sj.sampler,
		setup: func(eo *explore.Options) {
			if rd := sj.rd; rd != nil {
				eo.Remote = rd
				eo.StatsProbe = func(st *obs.StatsSnapshot) {
					st.DedupHits = rd.hits.Load()
					st.DedupDrops = rd.drops.Load()
				}
			}
		},
		every: every,
		sink:  sj.publish,
		startLeg: func(ck *explore.Checkpoint) bool {
			sj.mu.Lock()
			defer sj.mu.Unlock()
			sj.ck = ck
			stopped = sj.stopReq
			return !stopped
		},
	})
	switch {
	case err != nil:
		sj.fail(err)
	case stopped:
		// The held full is final: the stop landed between legs.
		sj.mu.Lock()
		sj.state = ShardStopped
		leg := sj.leg
		sj.mu.Unlock()
		s.logf("promised: shard job %s stopped at leg %d (attempt %s)", sj.id, leg, sj.attempt)
	default:
		// Complete (or timed out/aborted, which the report flags).
		s.shards.Add(1)
		sr := shardReportOf(v.Result, v.Elapsed.Microseconds())
		sj.mu.Lock()
		sj.report = &sr
		sj.state = ShardDone
		sj.mu.Unlock()
		s.logf("promised: shard job %s done (attempt %s, %d states, %d outcomes)",
			sj.id, sj.attempt, v.Result.States, len(sr.Outcomes))
	}
}

// publish is a shard job's leg sink: it retains the leg's marshaled delta
// and the applied full, so the snapshot endpoint serves either without
// re-serializing under load.
func (sj *shardJob) publish(_ int, full, emitted *explore.Snapshot) error {
	var deltaRaw json.RawMessage
	if emitted.Delta {
		raw, err := emitted.Marshal()
		if err != nil {
			return err
		}
		deltaRaw = raw
	}
	fullRaw, err := full.Marshal()
	if err != nil {
		return err
	}
	sj.mu.Lock()
	defer sj.mu.Unlock()
	sj.leg = full.Leg
	sj.fullRaw = fullRaw
	if deltaRaw == nil {
		// Backend without a seen-set (axiomatic): every leg is full.
		sj.deltaRaws = nil
		sj.firstDelta = full.Leg + 1
		return nil
	}
	sj.deltaRaws = append(sj.deltaRaws, deltaRaw)
	if len(sj.deltaRaws) > keepDeltas {
		drop := len(sj.deltaRaws) - keepDeltas
		sj.deltaRaws = sj.deltaRaws[drop:]
		sj.firstDelta += drop
	}
	return nil
}

func (s *Server) handleShardJob(w http.ResponseWriter, r *http.Request) {
	sj, ok := s.shardJobs.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no shard job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, sj.status())
}

func (s *Server) handleShardJobSnapshot(w http.ResponseWriter, r *http.Request) {
	sj, ok := s.shardJobs.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no shard job %q", r.PathValue("id"))
		return
	}
	q := r.URL.Query()
	since := -1
	if v := q.Get("since"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad since: %v", err)
			return
		}
		since = n
	}
	sj.mu.Lock()
	chunk := SnapshotChunk{Leg: sj.leg}
	if q.Get("full") == "1" || since < 0 || since < sj.firstDelta-1 || since > sj.leg {
		chunk.Full = sj.fullRaw
	} else {
		chunk.Deltas = sj.deltaRaws[since+1-sj.firstDelta:]
	}
	sj.mu.Unlock()
	writeJSON(w, http.StatusOK, chunk)
}

func (s *Server) handleShardJobStop(w http.ResponseWriter, r *http.Request) {
	sj, ok := s.shardJobs.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no shard job %q", r.PathValue("id"))
		return
	}
	sj.mu.Lock()
	sj.stopReq = true
	ck := sj.ck
	sj.mu.Unlock()
	if ck != nil {
		ck.Request()
	}
	writeJSON(w, http.StatusOK, sj.status())
}

// ---------------------------------------------------------------------
// The coordinator.

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	var req ClusterRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Backend == "" {
		req.Backend = backends.Promising
	}
	if _, err := backends.Resolve(req.Backend); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, err := backends.ResolveResumer(req.Backend); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := checkOptionsValid(req.Options); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	t, err := resolveTest(req.TestSpec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	peers := req.Peers
	if len(peers) == 0 {
		peers = s.cfg.Peers
	}
	if len(peers) == 0 {
		writeErr(w, http.StatusBadRequest, "cluster request without peers (and no -peers configured)")
		return
	}
	if len(peers) > 16 {
		writeErr(w, http.StatusBadRequest, "too many peers: %d > 16", len(peers))
		return
	}
	shards := req.Shards
	if shards <= 0 {
		shards = len(peers)
	}
	shards = clamp(shards, 1, 64)

	ctx, cancel := context.WithCancel(s.base)
	j := &job{
		id:       newJobID(),
		kind:     jobKindCluster,
		ctx:      ctx,
		cancel:   cancel,
		start:    time.Now(),
		state:    JobRunning,
		total:    1,
		reports:  make([]*TestReport, 1),
		subs:     map[chan JobEvent]*jobSub{},
		samplers: map[int]*obs.Sampler{},
	}
	j.tracer = j.newTracer()
	s.jobs.add(j)
	go s.runCluster(j, t, req.TestSpec, req.Backend, shards, peers, req.Options, req.Cluster)
	s.logf("promised: cluster job %s started (%s, backend=%s, %d shards, %d peers)",
		j.id, t.Name(), req.Backend, shards, len(peers))
	writeJSON(w, http.StatusAccepted, BatchResponse{JobID: j.id, Cells: shards})
}

// clusterAttempt is the coordinator's view of one dispatched shard.
type clusterAttempt struct {
	id     string
	jobID  string
	peer   int
	source string
	state  string // running → done | stopped | dead | failed
	// full is the coordinator-held applied full snapshot; leg its leg.
	full *explore.Snapshot
	leg  int
	// live is the latest polled status; fails counts consecutive poll
	// failures; stopping marks an issued rebalance stop.
	live     ShardJobStatus
	fails    int
	stopping bool
	report   *ShardReport
}

func newAttemptID(n int) string {
	var b [4]byte
	rand.Read(b[:])
	return fmt.Sprintf("att-%d-%s", n, hex.EncodeToString(b[:]))
}

// runCluster is the coordinator loop for one cluster job.
func (s *Server) runCluster(j *job, t *litmus.Test, spec TestSpec, backend string, shards int, peerURLs []string, o CheckOptions, co ClusterOptions) {
	start := time.Now()
	finish := func(tr TestReport) {
		j.record(0, tr)
		j.finish()
		st := j.status()
		s.logf("promised: cluster job %s %s (%s)", j.id, st.State, tr.Status)
	}
	failJob := func(err error) {
		finish(TestReport{Test: t.Name(), Arch: t.Prog.Arch.String(), Expect: t.Expect.String(),
			Backend: backend, Status: string(litmus.StatusError), Error: err.Error()})
	}

	// Widen on this daemon until the frontier supports the fan-out (the
	// one-leg form of litmus.Widen).
	widenStates := co.WidenStates
	if widenStates <= 0 {
		widenStates = 32 * shards
	}
	v, err := s.run(j.ctx, exploration{
		test: t, backend: backend, opts: o,
		trace: j.tracer.Scope(0, backend),
		setup: func(eo *explore.Options) {
			eo.Checkpoint = explore.NewCheckpointAfter(widenStates)
		},
	})
	if err != nil {
		failJob(err)
		return
	}
	parent := v.Result.Snapshot
	if parent == nil {
		// Completed inside the widening budget: the verdict is final.
		finish(ReportJSON(litmus.Report{Test: t, Backend: backend, Verdict: v}))
		return
	}
	j.tracer.Scope(0, backend).Emit("widen", fmt.Sprintf("%d states, %d pending", parent.States, len(parent.Frontier)))

	var gb [6]byte
	rand.Read(gb[:])
	group := "grp-" + hex.EncodeToString(gb[:])
	hc := &http.Client{Timeout: 30 * time.Second}
	clients := make([]*Client, len(peerURLs))
	for i, u := range peerURLs {
		clients[i] = NewClient(u, hc)
	}

	pollIv := 500 * time.Millisecond
	if co.PollMS > 0 {
		pollIv = time.Duration(co.PollMS) * time.Millisecond
	}
	ckMS := co.CheckpointMS
	if ckMS <= 0 {
		ckMS = 2000
	}
	failAfter := co.FailAfter
	if failAfter <= 0 {
		failAfter = 3
	}
	maxRetries := co.MaxRetries
	if maxRetries <= 0 {
		maxRetries = len(peerURLs)
	}
	rebalanceAt := co.RebalanceFrontier
	if rebalanceAt <= 0 {
		rebalanceAt = 64
	}
	maxAttempts := shards + 4*len(peerURLs) + maxRetries

	var (
		attempts []*clusterAttempt
		revoked  []string
		rebases  []*explore.Snapshot // stopped stragglers' folded-once parents
		nAttempt int
		retries  int
	)
	call := func(fn func(ctx context.Context) error) error {
		ctx, cancel := context.WithTimeout(j.ctx, 30*time.Second)
		defer cancel()
		return fn(ctx)
	}
	// dispatch returns the attempt id even on error so the caller can
	// revoke a failed dispatch: a request that timed out after reaching
	// the peer (lost response) leaves an orphan attempt running there,
	// and an unrevoked orphan would keep claiming states its retried
	// sibling then never expands.
	dispatch := func(snap *explore.Snapshot, peer int, source string) (string, error) {
		nAttempt++
		a := &clusterAttempt{
			id: newAttemptID(nAttempt), peer: peer, source: source,
			state: ShardRunning, full: snap, leg: snap.Leg,
		}
		raw, err := snap.Marshal()
		if err != nil {
			return a.id, err
		}
		err = call(func(ctx context.Context) error {
			var resp ShardJobResponse
			err := clients[peer].do(ctx, http.MethodPost, "/v1/shards/jobs", ShardJobRequest{
				TestSpec: spec, Backend: backend, Snapshot: raw, Options: o,
				Group: group, Attempt: a.id, Peers: peerURLs, Self: peer,
				Revoked: revoked, NoDedup: co.NoDedup, CheckpointMS: ckMS,
			}, &resp)
			a.jobID = resp.ID
			return err
		})
		if err != nil {
			return a.id, err
		}
		attempts = append(attempts, a)
		j.tracer.Scope(0, backend).Emit("dispatch",
			fmt.Sprintf("%s → %s (%s, frontier=%d)", a.id, peerURLs[peer], source, len(snap.Frontier)))
		return a.id, nil
	}
	// revoke appends the attempt to the revocation list every later seen
	// query carries and best-effort purges it from every reachable owner
	// (skipPeer excludes a peer already known dead).
	revoke := func(attempt string, skipPeer int) {
		revoked = append(revoked, attempt)
		for i, c := range clients {
			if i == skipPeer {
				continue
			}
			c := c
			call(func(ctx context.Context) error {
				return c.do(ctx, http.MethodPost, "/v1/shards/"+group+"/purge", PurgeRequest{Attempt: attempt}, nil)
			})
		}
	}
	publishShards := func() {
		states := make([]ShardState, 0, len(attempts))
		for _, a := range attempts {
			ss := ShardState{
				Attempt: a.id, Peer: peerURLs[a.peer], Source: a.source, State: a.state,
				Leg: a.live.Leg, States: a.live.States, Frontier: a.live.Frontier,
				StatesPerSec: a.live.StatesPerSec,
				DedupHits:    a.live.DedupHits, DedupDrops: a.live.DedupDrops,
			}
			if a.report != nil {
				ss.States = int64(a.report.States)
				ss.Frontier = 0
				ss.StatesPerSec = 0
			}
			states = append(states, ss)
		}
		j.setShards(states)
	}
	// catchUp advances the coordinator-held full to the attempt's newest
	// published leg (deltas when available, full otherwise).
	catchUp := func(a *clusterAttempt) error {
		var chunk SnapshotChunk
		if err := call(func(ctx context.Context) error {
			return clients[a.peer].do(ctx, http.MethodGet,
				"/v1/shards/jobs/"+a.jobID+"/snapshot?since="+strconv.Itoa(a.leg), nil, &chunk)
		}); err != nil {
			return err
		}
		if chunk.Full != nil {
			full, err := explore.UnmarshalSnapshot(chunk.Full)
			if err != nil {
				return err
			}
			if full.Delta {
				return fmt.Errorf("promised: peer served a delta as full snapshot")
			}
			a.full, a.leg = full, full.Leg
			return nil
		}
		for _, raw := range chunk.Deltas {
			d, err := explore.UnmarshalSnapshot(raw)
			if err != nil {
				return err
			}
			full, err := explore.ApplyDelta(a.full, d)
			if err != nil {
				return err
			}
			a.full, a.leg = full, full.Leg
		}
		return nil
	}
	// declareDead revokes the attempt cluster-wide (best-effort purge now;
	// the successor's own seen queries carry the revocation for any owner
	// the purge cannot reach) and re-dispatches its last held checkpoint
	// to a surviving peer.
	declareDead := func(a *clusterAttempt, peerDead bool) error {
		a.state = "dead"
		skip := -1
		if peerDead {
			skip = a.peer
		}
		revoke(a.id, skip)
		if retries >= maxRetries {
			return fmt.Errorf("promised: shard attempt %s died and the retry budget (%d) is spent", a.id, maxRetries)
		}
		retries++
		s.shardRetries.Add(1)
		peer := a.peer
		if peerDead {
			// Any other peer; round-robin from the dead one.
			peer = (a.peer + 1 + retries) % len(peerURLs)
			if peer == a.peer && len(peerURLs) > 1 {
				peer = (peer + 1) % len(peerURLs)
			}
		}
		_, err := dispatch(a.full, peer, ShardSourceRetry)
		return err
	}

	// Initial dispatch: one attempt per non-empty Split part, peers
	// round-robin.
	for i, part := range parent.Split(shards) {
		if len(part.Frontier) == 0 {
			continue
		}
		if id, err := dispatch(part, i%len(peerURLs), ShardSourceInitial); err != nil {
			// A peer down at dispatch time consumes a retry immediately.
			// The failed attempt is revoked first: a lost response (not a
			// lost request) means the attempt may be running as an orphan.
			if retries >= maxRetries {
				failJob(err)
				return
			}
			retries++
			s.shardRetries.Add(1)
			revoke(id, -1)
			if _, err := dispatch(part, (i+1)%len(peerURLs), ShardSourceRetry); err != nil {
				failJob(err)
				return
			}
		}
	}
	publishShards()

	cleanup := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, c := range clients {
			c.do(ctx, http.MethodDelete, "/v1/shards/"+group, nil, nil)
		}
	}
	defer cleanup()

	ticker := time.NewTicker(pollIv)
	defer ticker.Stop()
	for {
		running := 0
		for _, a := range attempts {
			if a.state == ShardRunning {
				running++
			}
		}
		if running == 0 {
			break
		}
		select {
		case <-j.ctx.Done():
			for _, a := range attempts {
				if a.state == ShardRunning {
					a := a
					call(func(ctx context.Context) error {
						return clients[a.peer].do(ctx, http.MethodPost, "/v1/shards/jobs/"+a.jobID+"/stop", nil, nil)
					})
				}
			}
			finish(TestReport{Test: t.Name(), Arch: t.Prog.Arch.String(), Expect: t.Expect.String(),
				Backend: backend, Status: StatusCanceled, Error: j.ctx.Err().Error()})
			return
		case <-ticker.C:
		}

		for _, a := range attempts {
			if a.state != ShardRunning {
				continue
			}
			var st ShardJobStatus
			err := call(func(ctx context.Context) error {
				return clients[a.peer].do(ctx, http.MethodGet, "/v1/shards/jobs/"+a.jobID, nil, &st)
			})
			if err != nil {
				a.fails++
				if a.fails >= failAfter {
					s.logf("promised: cluster %s: attempt %s unreachable on %s, retrying elsewhere", j.id, a.id, peerURLs[a.peer])
					if derr := declareDead(a, true); derr != nil {
						failJob(derr)
						return
					}
				}
				continue
			}
			a.fails = 0
			a.live = st
			switch st.State {
			case ShardFailed:
				s.logf("promised: cluster %s: attempt %s failed on %s: %s", j.id, a.id, peerURLs[a.peer], st.Error)
				if derr := declareDead(a, false); derr != nil {
					failJob(derr)
					return
				}
			case ShardDone:
				a.state = ShardDone
				a.report = st.Report
			case ShardStopped:
				// Rebalance handshake completed: catch the held full up to
				// the final leg, keep it as a folded-once parent, and split
				// its frontier between the straggler's peer and the idlest.
				if a.leg < st.Leg || a.leg == 0 {
					if err := catchUp(a); err != nil || a.leg < st.Leg {
						if derr := declareDead(a, false); derr != nil {
							failJob(derr)
							return
						}
						continue
					}
				}
				a.state = ShardStopped
				rebases = append(rebases, a.full)
				halves := a.full.Split(2)
				idle := idlestPeer(attempts, len(peerURLs), a.peer)
				s.shardSteals.Add(1)
				j.tracer.Scope(0, backend).Emit("steal",
					fmt.Sprintf("%s split at leg %d: frontier %d → %s", a.id, a.leg, len(a.full.Frontier), peerURLs[idle]))
				targets := []int{a.peer, idle}
				for hi, half := range halves {
					if len(half.Frontier) == 0 {
						continue
					}
					if _, err := dispatch(half, targets[hi], ShardSourceSteal); err != nil {
						failJob(err)
						return
					}
				}
			default:
				// Still running: keep the held full fresh so a later death
				// retries from recent progress, and deltas stay shallow.
				if st.Leg > a.leg {
					if err := catchUp(a); err != nil {
						a.fails++ // snapshot fetch failures count like polls
					}
				}
			}
		}

		// Rebalance: one straggler split in flight at a time.
		if !co.NoRebalance && len(attempts) < maxAttempts {
			stopping := false
			for _, a := range attempts {
				if a.state == ShardRunning && a.stopping {
					stopping = true
				}
			}
			if !stopping {
				if a := pickStraggler(attempts, len(peerURLs), rebalanceAt); a != nil {
					a.stopping = true
					a := a
					if err := call(func(ctx context.Context) error {
						return clients[a.peer].do(ctx, http.MethodPost, "/v1/shards/jobs/"+a.jobID+"/stop", nil, nil)
					}); err != nil {
						a.stopping = false
					}
				}
			}
		}
		publishShards()
	}

	// Merge: shard reports union under the widening parent (folded once),
	// then each stopped straggler's parent folds its own progress once.
	var results []*explore.Result
	for _, a := range attempts {
		if a.state == ShardDone && a.report != nil {
			results = append(results, a.report.Result())
		}
	}
	endMerge := j.tracer.Scope(0, backend).Span("merge")
	merged := explore.MergeShards(parent, results)
	for _, rp := range rebases {
		explore.MergeSnapshotInto(rp, merged)
	}
	endMerge(fmt.Sprintf("%d attempts, %d outcomes", len(attempts), len(merged.Outcomes)))
	fv := &litmus.Verdict{Test: t, Result: merged, Spec: t.Spec(), Elapsed: time.Since(start)}
	if t.Cond != nil {
		fv.Allowed = litmus.Satisfiable(t.Cond, fv.Spec, merged)
	}
	publishShards()
	finish(ReportJSON(litmus.Report{Test: t, Backend: backend, Verdict: fv}))
}

// idlestPeer picks the peer with the fewest running attempts, preferring
// any index other than avoid on ties.
func idlestPeer(attempts []*clusterAttempt, peers, avoid int) int {
	load := make([]int, peers)
	for _, a := range attempts {
		if a.state == ShardRunning {
			load[a.peer]++
		}
	}
	best, bestLoad := (avoid+1)%peers, int(^uint(0)>>1)
	order := make([]int, 0, peers)
	for i := 1; i <= peers; i++ {
		order = append(order, (avoid+i)%peers)
	}
	for _, i := range order {
		if load[i] < bestLoad {
			best, bestLoad = i, load[i]
		}
	}
	return best
}

// pickStraggler returns the running attempt with the deepest sampled
// frontier at or past the threshold — but only while some peer is idle
// (splitting without spare capacity just adds overhead).
func pickStraggler(attempts []*clusterAttempt, peers, threshold int) *clusterAttempt {
	load := make([]int, peers)
	for _, a := range attempts {
		if a.state == ShardRunning {
			load[a.peer]++
		}
	}
	idle := false
	for _, l := range load {
		if l == 0 {
			idle = true
			break
		}
	}
	if !idle {
		return nil
	}
	var best *clusterAttempt
	for _, a := range attempts {
		if a.state != ShardRunning || a.stopping || a.live.Frontier < threshold {
			continue
		}
		if best == nil || a.live.Frontier > best.live.Frontier {
			best = a
		}
	}
	return best
}

// sortPeers is a test helper: deterministic order for peer URL sets.
func sortPeers(urls []string) []string {
	out := append([]string(nil), urls...)
	sort.Strings(out)
	return out
}
