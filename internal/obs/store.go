package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"

	"promising/internal/store"
)

// Durable trace store: stage events, the final status and the witness
// traces of finished jobs, written once at job completion under
// <state-dir>/obs as versioned JSONL and reloaded at startup, so
// GET /v1/jobs/{id} trace/stats and the witness endpoints survive a
// kill -9. Status, index and witness bodies are held as the raw JSON the
// daemon served while the job was live — re-serving the stored bytes is
// what makes pre-restart and post-restart responses byte-identical.
//
// Layout: one <id>.jsonl per job. Line 1 is the versioned header
// {"v":1,"kind":"job","id":...}; the remaining lines each carry one
// record ("event", "witness", "index", "status"). Files are written
// through store.WriteFile (fsynced temp file, rename, directory fsync),
// so a crash or a power loss can only lose the record of the job being
// written, never corrupt a reloaded one.

// storeVersion is the JSONL header version; files with a different
// version are skipped at reload (forward compatibility over partial
// parses).
const storeVersion = 1

// DefaultStoreJobs bounds how many finished jobs the store retains,
// matching the in-memory job table's retention.
const DefaultStoreJobs = 256

// storeIDPat guards disk paths: only daemon-generated job ids are ever
// read back or written, never arbitrary path fragments.
var storeIDPat = regexp.MustCompile(`^job-[0-9a-f]{16}$`)

// WitnessRecord is one persisted witness: the raw JSON body the witness
// detail endpoint served for (cell, outcome).
type WitnessRecord struct {
	Cell    int             `json:"cell"`
	Outcome string          `json:"outcome"`
	Body    json.RawMessage `json:"body"`
}

// JobRecord is everything the store persists for one finished job.
type JobRecord struct {
	ID string
	// Events is the tracer's retained stage-event ring at finish.
	Events []StageEvent
	// Status is the job's final status document, exactly as served.
	Status json.RawMessage
	// Index is the witness index document, exactly as served (nil when
	// the job collected no witnesses).
	Index json.RawMessage
	// Witnesses are the per-outcome witness bodies.
	Witnesses []WitnessRecord
}

// Witness returns the record for outcome (and cell, when cell >= 0;
// cell < 0 matches any cell).
func (r *JobRecord) Witness(outcome string, cell int) (WitnessRecord, bool) {
	for _, w := range r.Witnesses {
		if w.Outcome == outcome && (cell < 0 || w.Cell == cell) {
			return w, true
		}
	}
	return WitnessRecord{}, false
}

// storeLine is the JSONL wire form of one record line.
type storeLine struct {
	V       int             `json:"v,omitempty"`
	Kind    string          `json:"kind"`
	ID      string          `json:"id,omitempty"`
	Event   *StageEvent     `json:"event,omitempty"`
	Cell    int             `json:"cell,omitempty"`
	Outcome string          `json:"outcome,omitempty"`
	Body    json.RawMessage `json:"body,omitempty"`
}

// Store is the durable trace store. All methods are nil-safe, so a
// daemon without a state dir simply carries a nil store.
type Store struct {
	mu   sync.Mutex
	dir  string
	max  int
	jobs map[string]*JobRecord
}

// OpenStore opens (creating if needed) the store rooted at dir and
// reloads every persisted job record. max bounds retained jobs
// (<= 0 selects DefaultStoreJobs).
func OpenStore(dir string, max int) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs store: %v", err)
	}
	if max <= 0 {
		max = DefaultStoreJobs
	}
	s := &Store{dir: dir, max: max, jobs: map[string]*JobRecord{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("obs store: %v", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		id, ok := idFromFile(e.Name())
		if !ok {
			continue
		}
		if rec, err := readRecord(filepath.Join(dir, e.Name()), id); err == nil {
			s.jobs[id] = rec
		}
	}
	return s, nil
}

func idFromFile(name string) (string, bool) {
	const ext = ".jsonl"
	if len(name) <= len(ext) || name[len(name)-len(ext):] != ext {
		return "", false
	}
	id := name[:len(name)-len(ext)]
	return id, storeIDPat.MatchString(id)
}

func (s *Store) path(id string) string { return filepath.Join(s.dir, id+".jsonl") }

// Put persists rec (replacing any prior record for the same job) and
// retains it in memory, pruning the oldest files beyond the retention
// bound. Nil-safe.
func (s *Store) Put(rec *JobRecord) error {
	if s == nil || rec == nil {
		return nil
	}
	if !storeIDPat.MatchString(rec.ID) {
		return fmt.Errorf("obs store: refusing to persist job id %q", rec.ID)
	}
	var buf []byte
	add := func(l storeLine) error {
		raw, err := json.Marshal(l)
		if err != nil {
			return err
		}
		buf = append(buf, raw...)
		buf = append(buf, '\n')
		return nil
	}
	if err := add(storeLine{V: storeVersion, Kind: "job", ID: rec.ID}); err != nil {
		return err
	}
	for i := range rec.Events {
		if err := add(storeLine{Kind: "event", Event: &rec.Events[i]}); err != nil {
			return err
		}
	}
	for _, w := range rec.Witnesses {
		if err := add(storeLine{Kind: "witness", Cell: w.Cell, Outcome: w.Outcome, Body: w.Body}); err != nil {
			return err
		}
	}
	if len(rec.Index) > 0 {
		if err := add(storeLine{Kind: "index", Body: rec.Index}); err != nil {
			return err
		}
	}
	if len(rec.Status) > 0 {
		if err := add(storeLine{Kind: "status", Body: rec.Status}); err != nil {
			return err
		}
	}
	if err := store.WriteFile(s.path(rec.ID), buf, 0o600); err != nil {
		return err
	}
	s.mu.Lock()
	s.jobs[rec.ID] = rec
	s.pruneLocked()
	s.mu.Unlock()
	return nil
}

// Get returns the persisted record of a finished job. Nil-safe.
func (s *Store) Get(id string) (*JobRecord, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	return rec, ok
}

// Len reports how many job records the store holds. Nil-safe.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// pruneLocked evicts the oldest records beyond the retention bound
// (oldest by the status document's recency proxy: lexicographic file
// mtime would race the write path, so eviction is by smallest event Seq
// horizon — effectively insertion order for daemon-generated ids, which
// is all the bound is for).
func (s *Store) pruneLocked() {
	if len(s.jobs) <= s.max {
		return
	}
	type aged struct {
		id string
		mt int64
	}
	var all []aged
	for id := range s.jobs {
		var mt int64
		if fi, err := os.Stat(s.path(id)); err == nil {
			mt = fi.ModTime().UnixNano()
		}
		all = append(all, aged{id: id, mt: mt})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].mt != all[j].mt {
			return all[i].mt < all[j].mt
		}
		return all[i].id < all[j].id
	})
	for _, a := range all[:len(all)-s.max] {
		delete(s.jobs, a.id)
		os.Remove(s.path(a.id))
	}
}

// readRecord parses one job's JSONL file. A malformed line aborts the
// parse (crash-truncated tails lose whole records, never corrupt the
// loaded prefix — but a file whose header is wrong is skipped entirely).
func readRecord(path, id string) (*JobRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("obs store: empty record %s", path)
	}
	var head storeLine
	if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
		return nil, err
	}
	if head.Kind != "job" || head.V != storeVersion || head.ID != id {
		return nil, fmt.Errorf("obs store: bad header in %s", path)
	}
	rec := &JobRecord{ID: id}
	for sc.Scan() {
		var l storeLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			break
		}
		switch l.Kind {
		case "event":
			if l.Event != nil {
				rec.Events = append(rec.Events, *l.Event)
			}
		case "witness":
			rec.Witnesses = append(rec.Witnesses, WitnessRecord{Cell: l.Cell, Outcome: l.Outcome, Body: l.Body})
		case "index":
			rec.Index = l.Body
		case "status":
			rec.Status = l.Body
		}
	}
	return rec, nil
}
