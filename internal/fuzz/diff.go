package fuzz

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"promising/internal/backends"
	"promising/internal/cache"
	"promising/internal/explore"
	"promising/internal/lang"
	"promising/internal/litmus"
)

// The differential runner: one candidate through every configured backend,
// the first backend (promise-first) acting as the oracle. Verdicts of
// complete explorations are remembered in a content-addressed verdict
// cache, so re-encountering a test — a mutation cycle, a campaign re-run
// over a persisted corpus — costs a lookup instead of an exploration.

// Cell statuses beyond litmus.Status: a backend that panicked.
const statusCrash = "crash"

// CellResult is one backend's verdict on one candidate.
type CellResult struct {
	Backend string `json:"backend"`
	// Status is pass, timeout, aborted (litmus.Status vocabulary; there is
	// no expectation to fail against) or crash.
	Status string `json:"status"`
	// Fingerprint is the canonical hash of the outcome set (complete runs
	// only): equal fingerprints ⇔ equal outcome sets.
	Fingerprint string `json:"fingerprint,omitempty"`
	Outcomes    int    `json:"outcomes,omitempty"`
	States      int    `json:"states,omitempty"`
	Cached      bool   `json:"cached,omitempty"`
	// Panic carries the recovered panic message and stack (crash cells).
	Panic string `json:"panic,omitempty"`

	// res is the live exploration result (nil for cached cells); the
	// campaign uses it to render outcome diffs in findings.
	res *explore.Result
}

// DiffVerdict is the differential result of one candidate.
type DiffVerdict struct {
	Cells []CellResult
	// Disagree lists backends whose complete outcome set differs from the
	// oracle's (only when the oracle itself completed).
	Disagree []string
	// Incomplete lists backends (possibly the oracle) whose run was cut
	// short by a budget — their cells are not comparable.
	Incomplete []string
	// Crashed lists backends that panicked.
	Crashed []string
	// CacheHits counts cells answered by the verdict cache.
	CacheHits int
}

// Failed reports whether the differential verdict is a finding.
func (d *DiffVerdict) Failed() bool { return len(d.Disagree) > 0 || len(d.Crashed) > 0 }

// Cell returns the named backend's cell.
func (d *DiffVerdict) Cell(backend string) *CellResult {
	for i := range d.Cells {
		if d.Cells[i].Backend == backend {
			return &d.Cells[i]
		}
	}
	return nil
}

// differ runs candidates through the backend set.
type differ struct {
	backends []litmus.NamedRunner
	timeout  time.Duration
	// maxStates budgets each exploration (0 = unlimited); candidates are
	// litmus-sized, so this is a crash barrier, not a tuning knob.
	maxStates int
	// vcache is the verdict cache (nil disables caching — the shrinker's
	// probe runs under an injected bug hook use that).
	vcache *cache.Cache
}

// fingerprintOutcomes canonically hashes an outcome set: the sorted
// outcome keys, length-prefixed.
func fingerprintOutcomes(res *explore.Result) string {
	keys := make([]string, 0, len(res.Outcomes))
	for k := range res.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	var n [8]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint64(n[:], uint64(len(k)))
		h.Write(n[:])
		h.Write([]byte(k))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verdictKey addresses one (candidate, backend) cell in the verdict
// cache, salted with backends.SemanticsEpoch: without it, a persisted
// corpus cache would keep serving pre-fix fingerprints after a model
// bug fix, re-flagging fixed bugs as live disagreements (or masking
// fresh ones). The candidate id is already canonical (Identity), and the
// budgets are deliberately excluded: budget-truncated runs are never
// cached.
func verdictKey(id, backend string) string {
	sum := sha256.Sum256([]byte(backends.SemanticsEpoch + "\x00" + id + "\x00" + backend))
	return hex.EncodeToString(sum[:])
}

// run executes one candidate differentially. id is the candidate's content
// address (Identity of its formatted source).
func (d *differ) run(ctx context.Context, t *litmus.Test, id string) (DiffVerdict, error) {
	cp, err := lang.Compile(t.Prog)
	if err != nil {
		return DiffVerdict{}, fmt.Errorf("fuzz: compile %s: %w", id, err)
	}
	spec := t.Spec()

	var out DiffVerdict
	for _, b := range d.backends {
		cell := CellResult{Backend: b.Name}
		key := verdictKey(id, b.Name)
		if d.vcache != nil {
			if raw, ok := d.vcache.Get(key); ok {
				var cached CellResult
				if json.Unmarshal(raw, &cached) == nil && cached.Status == string(litmus.StatusPass) {
					cell = cached
					cell.Backend = b.Name
					cell.Cached = true
					out.CacheHits++
					out.Cells = append(out.Cells, cell)
					continue
				}
			}
		}
		res := d.explore(ctx, b, cp, spec, &cell)
		switch {
		case cell.Status == statusCrash:
		case res.TimedOut:
			cell.Status = string(litmus.StatusTimeout)
		case res.Aborted:
			cell.Status = string(litmus.StatusAborted)
		default:
			cell.Status = string(litmus.StatusPass)
			cell.Fingerprint = fingerprintOutcomes(res)
			cell.Outcomes = len(res.Outcomes)
			cell.States = res.States
			cell.res = res
			if d.vcache != nil {
				if raw, err := json.Marshal(cell); err == nil {
					d.vcache.Put(key, raw)
				}
			}
		}
		out.Cells = append(out.Cells, cell)
	}

	oracle := out.Cells[0]
	for i, cell := range out.Cells {
		switch cell.Status {
		case statusCrash:
			out.Crashed = append(out.Crashed, cell.Backend)
		case string(litmus.StatusPass):
			if i > 0 && oracle.Status == string(litmus.StatusPass) && cell.Fingerprint != oracle.Fingerprint {
				out.Disagree = append(out.Disagree, cell.Backend)
			}
		default:
			out.Incomplete = append(out.Incomplete, cell.Backend)
		}
	}
	return out, nil
}

// explore runs one backend with panic containment: a crashing backend is a
// finding, not a campaign abort.
func (d *differ) explore(ctx context.Context, b litmus.NamedRunner, cp *lang.CompiledProgram,
	spec *explore.ObsSpec, cell *CellResult) (res *explore.Result) {
	opts := explore.DefaultOptions()
	opts.Ctx = ctx
	if d.timeout > 0 {
		opts.Deadline = time.Now().Add(d.timeout)
	}
	opts.MaxStates = d.maxStates
	defer func() {
		if r := recover(); r != nil {
			cell.Status = statusCrash
			cell.Panic = fmt.Sprintf("%v\n%s", r, debug.Stack())
			res = &explore.Result{}
		}
	}()
	return b.Run(cp, spec, opts)
}
