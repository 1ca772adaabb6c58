// Package store is the one durable write path: the daemon's job state,
// the verdict cache, the durable trace store, the fuzz corpus and the
// CLI checkpoints all write their files through WriteFile.
//
// A write goes to a temp file in the target's directory, which is
// fsynced, closed and renamed over the target; the directory is then
// fsynced so the rename itself survives a power loss. Readers therefore
// see either the old bytes or the new ones, never a truncated mix, after
// a kill -9 and after a power cut alike. The package is a leaf (stdlib
// only), so every layer can import it.
package store

import (
	"os"
	"path/filepath"
	"sync/atomic"
)

// fault, when set, runs before every step of every write; a non-nil
// return fails that step as if the system call had. Test-only.
var fault atomic.Pointer[func(step, path string) error]

// SetFaultForTesting installs f as the fault hook (nil removes it) and
// returns the previous one, so callers can restore it with
// defer SetFaultForTesting(SetFaultForTesting(f)). WriteFile calls f
// with the target path before each of its steps, in order: "mkdir",
// "create", "write", "chmod", "sync", "close", "rename" and "syncdir".
// f may run on many goroutines at once. Tests only: production never
// sets it, so an unobserved write pays one nil check per step.
func SetFaultForTesting(f func(step, path string) error) func(step, path string) error {
	var p *func(step, path string) error
	if f != nil {
		p = &f
	}
	if old := fault.Swap(p); old != nil {
		return *old
	}
	return nil
}

// WriteFile durably replaces path with data under mode perm, creating
// the parent directories (0755) as needed. On any failure the temp file
// is removed and the error returned; a failure before the rename leaves
// the target as it was, a failure of the final directory sync leaves it
// with the new bytes (the rename happened, its durability is unknown).
func WriteFile(path string, data []byte, perm os.FileMode) error {
	var hook func(step, path string) error
	if p := fault.Load(); p != nil {
		hook = *p
	}
	do := func(step string, op func() error) error {
		if hook != nil {
			if err := hook(step, path); err != nil {
				return err
			}
		}
		return op()
	}

	dir := filepath.Dir(path)
	if err := do("mkdir", func() error { return os.MkdirAll(dir, 0o755) }); err != nil {
		return err
	}
	var tmp *os.File
	if err := do("create", func() (err error) {
		tmp, err = os.CreateTemp(dir, ".tmp-*")
		return err
	}); err != nil {
		return err
	}
	renamed := false
	defer func() {
		tmp.Close() // a no-op error once the close step ran
		if !renamed {
			os.Remove(tmp.Name())
		}
	}()
	if err := do("write", func() error { _, err := tmp.Write(data); return err }); err != nil {
		return err
	}
	// The mode is set before the sync so the fsync covers it too.
	if err := do("chmod", func() error { return tmp.Chmod(perm) }); err != nil {
		return err
	}
	if err := do("sync", tmp.Sync); err != nil {
		return err
	}
	if err := do("close", tmp.Close); err != nil {
		return err
	}
	if err := do("rename", func() error { return os.Rename(tmp.Name(), path) }); err != nil {
		return err
	}
	renamed = true
	return do("syncdir", func() error { return syncDir(dir) })
}

// syncDir fsyncs a directory, making the entries renamed into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}
