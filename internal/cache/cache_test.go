package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func key(i int) string {
	return fmt.Sprintf("%064x", i)
}

func TestHitMiss(t *testing.T) {
	c, err := New(4, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key(1), []byte("v1"))
	v, ok := c.Get(key(1))
	if !ok || string(v) != "v1" {
		t.Fatalf("Get = %q, %v; want v1, true", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 entry", st)
	}
	// Overwrite replaces, not duplicates.
	c.Put(key(1), []byte("v2"))
	if v, _ := c.Get(key(1)); string(v) != "v2" {
		t.Fatalf("after overwrite Get = %q; want v2", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d; want 1", c.Len())
	}
}

func TestEvictionLRU(t *testing.T) {
	c, err := New(3, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c.Put(key(i), []byte{byte(i)})
	}
	// Touch key 0 so key 1 is the least recently used.
	c.Get(key(0))
	c.Put(key(3), []byte{3})
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("key 1 should have been evicted")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := c.Get(key(i)); !ok {
			t.Fatalf("key %d should have survived", i)
		}
	}
	if st := c.Stats(); st.Evicted != 1 {
		t.Fatalf("Evicted = %d; want 1", st.Evicted)
	}
}

func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	c, err := New(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key(1), []byte("persisted"))
	// Evict key 1 from memory by filling past capacity.
	c.Put(key(2), []byte("b"))
	c.Put(key(3), []byte("c"))
	if c.Len() != 2 {
		t.Fatalf("Len = %d; want 2", c.Len())
	}
	// The disk copy must still serve it (and promote it back).
	v, ok := c.Get(key(1))
	if !ok || string(v) != "persisted" {
		t.Fatalf("disk fallback Get = %q, %v; want persisted, true", v, ok)
	}

	// A fresh cache over the same directory starts warm.
	c2, err := New(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	v, ok = c2.Get(key(1))
	if !ok || string(v) != "persisted" {
		t.Fatalf("restart Get = %q, %v; want persisted, true", v, ok)
	}

	// Keys that are not hex digests never touch the filesystem.
	c2.Put("../escape", []byte("x"))
	if _, err := os.Stat(filepath.Join(dir, "..", "escape.json")); err == nil {
		t.Fatal("non-hex key escaped to disk")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, err := New(64, "")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := key(i % 100)
				if v, ok := c.Get(k); ok && len(v) != 1 {
					t.Errorf("corrupt value for %s: %q", k, v)
					return
				}
				c.Put(k, []byte{byte(i)})
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("Len = %d exceeds capacity 64", c.Len())
	}
}

// TestFailedRenameLeavesNoTempFile blocks the write-through target with a
// non-empty directory, so the atomic rename fails: the temp file must not
// be left behind.
func TestFailedRenameLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	c, err := New(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := c.path(key(1))
	if err := os.MkdirAll(filepath.Join(p, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	c.Put(key(1), []byte("v1"))
	tmps, _ := filepath.Glob(filepath.Join(filepath.Dir(p), ".tmp-*"))
	if len(tmps) != 0 {
		t.Fatalf("failed rename left temp files: %v", tmps)
	}
}
