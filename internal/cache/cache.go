// Package cache is the model-checking service's verdict cache: a
// concurrency-safe, content-addressed LRU over serialized verdicts, with
// optional disk persistence. Keys are hex content hashes (canonicalized
// test source × backend × options — see litmus.SourceHash and
// server.cacheKey), so a repeated check of the same test returns in
// microseconds instead of re-exploring the state space.
package cache

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"

	"promising/internal/store"
)

// Cache is an LRU of key → serialized value. The zero value is not usable;
// call New.
//
// When a persistence directory is configured, Put writes each entry
// through to disk (store.WriteFile: fsynced, atomic rename) and Get falls
// back to disk on a memory miss, promoting hits back into memory.
// Eviction only trims the in-memory index; the disk copy survives
// restarts.
type Cache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	dir     string // "" = memory only
	hits    int64
	misses  int64
	evicted int64
}

type entry struct {
	key string
	val []byte
}

// keyPat guards disk paths: keys are hex digests, never path fragments.
var keyPat = regexp.MustCompile(`^[0-9a-f]{16,128}$`)

// New returns a cache holding at most maxEntries entries in memory
// (maxEntries <= 0 selects a default of 4096). A non-empty dir enables
// disk persistence; the directory is created if needed.
func New(maxEntries int, dir string) (*Cache, error) {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("cache: %v", err)
		}
	}
	return &Cache{
		max:   maxEntries,
		ll:    list.New(),
		items: make(map[string]*list.Element),
		dir:   dir,
	}, nil
}

// Get returns the cached value for key, or (nil, false). A hit marks the
// entry most recently used. The returned slice is shared; callers must not
// mutate it.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		v := el.Value.(*entry).val
		c.mu.Unlock()
		return v, true
	}
	c.mu.Unlock()

	// Miss in memory: try disk before giving up.
	if v, ok := c.loadDisk(key); ok {
		c.mu.Lock()
		c.hits++
		c.insert(key, v)
		c.mu.Unlock()
		return v, true
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// Put stores key → val, evicting the least recently used entries beyond
// the capacity, and writes through to disk when persistence is enabled.
func (c *Cache) Put(key string, val []byte) {
	c.mu.Lock()
	c.insert(key, val)
	c.mu.Unlock()
	c.storeDisk(key, val)
}

// insert adds or refreshes an entry and evicts beyond capacity. Callers
// hold c.mu.
func (c *Cache) insert(key string, val []byte) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, val: val})
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*entry).key)
		c.evicted++
	}
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits, Misses, Evicted int64
	Entries               int
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evicted: c.evicted, Entries: c.ll.Len()}
}

// path maps a key to its persistence file, sharded on the first byte so a
// large cache does not pile every entry into one directory.
func (c *Cache) path(key string) (string, bool) {
	if c.dir == "" || !keyPat.MatchString(key) {
		return "", false
	}
	return filepath.Join(c.dir, key[:2], key+".json"), true
}

func (c *Cache) loadDisk(key string) ([]byte, bool) {
	p, ok := c.path(key)
	if !ok {
		return nil, false
	}
	v, err := os.ReadFile(p)
	if err != nil {
		return nil, false
	}
	return v, true
}

func (c *Cache) storeDisk(key string, val []byte) {
	if p, ok := c.path(key); ok {
		// Best effort: a failed write only costs a later miss.
		_ = store.WriteFile(p, val, 0o600)
	}
}
