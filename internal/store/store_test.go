package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// steps is every step WriteFile takes, in order.
var steps = []string{"mkdir", "create", "write", "chmod", "sync", "close", "rename", "syncdir"}

// failAt returns a hook that fails step on writes to path.
func failAt(step, path string) (func(string, string) error, error) {
	errInjected := errors.New("injected " + step + " failure")
	return func(s, p string) error {
		if s == step && p == path {
			return errInjected
		}
		return nil
	}, errInjected
}

func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	return left
}

func TestWriteFileCreatesAndReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a", "b", "f.json")
	for _, tc := range []struct {
		data []byte
		perm os.FileMode
	}{{[]byte("first"), 0o600}, {[]byte("second, longer"), 0o644}, {nil, 0o600}} {
		if err := WriteFile(path, tc.data, tc.perm); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, tc.data) {
			t.Errorf("read back %q, want %q", got, tc.data)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode().Perm() != tc.perm {
			t.Errorf("mode %v, want %v", fi.Mode().Perm(), tc.perm)
		}
	}
	if left := tempFiles(t, filepath.Dir(path)); len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

// TestWriteFileFaultAtEveryStep fails each step in turn, over an
// existing target and over an absent one. Every failure must surface,
// leave no temp file, and leave the target as it was when the step
// precedes the rename, or with the new bytes when only the directory
// sync failed.
func TestWriteFileFaultAtEveryStep(t *testing.T) {
	old, next := []byte("old bytes"), []byte("new bytes, not the old ones")
	for _, existed := range []bool{true, false} {
		for _, step := range steps {
			dir := t.TempDir()
			path := filepath.Join(dir, "sub", "target")
			if existed {
				if err := WriteFile(path, old, 0o600); err != nil {
					t.Fatal(err)
				}
			}
			hook, want := failAt(step, path)
			prev := SetFaultForTesting(hook)
			err := WriteFile(path, next, 0o644)
			SetFaultForTesting(prev)
			if !errors.Is(err, want) {
				t.Errorf("%s (existed=%t): err = %v, want the injected failure", step, existed, err)
			}
			if left := tempFiles(t, filepath.Dir(path)); len(left) != 0 {
				t.Errorf("%s (existed=%t): temp files left behind: %v", step, existed, left)
			}
			got, rerr := os.ReadFile(path)
			switch {
			case step == "syncdir":
				if !bytes.Equal(got, next) {
					t.Errorf("%s (existed=%t): target = %q (%v), want the new bytes", step, existed, got, rerr)
				}
			case existed:
				if !bytes.Equal(got, old) {
					t.Errorf("%s (existed=%t): target = %q (%v), want the old bytes", step, existed, got, rerr)
				}
			default:
				if !os.IsNotExist(rerr) {
					t.Errorf("%s (existed=%t): target exists (%q), want it absent", step, existed, got)
				}
			}
			if step == "mkdir" && !existed {
				if _, err := os.Stat(filepath.Dir(path)); !os.IsNotExist(err) {
					t.Errorf("mkdir failure still created the directory")
				}
			}
		}
	}
}

// TestWriteFileRealRenameFailure fails the rename for real, onto a
// non-empty directory: the error surfaces and no temp file stays.
func TestWriteFileRealRenameFailure(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "cell-0.snap")
	if err := os.MkdirAll(filepath.Join(target, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(target, []byte("snapshot"), 0o600); err == nil {
		t.Fatal("write over a non-empty directory succeeded")
	}
	if left := tempFiles(t, dir); len(left) != 0 {
		t.Fatalf("failed rename left temp files: %v", left)
	}
}

// TestWriteFileConcurrentWriters races writers over one target: every
// write succeeds, and the survivor is one writer's complete bytes.
func TestWriteFileConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shared")
	bodies := make([][]byte, 8)
	for i := range bodies {
		bodies[i] = bytes.Repeat([]byte{'a' + byte(i)}, 4096)
	}
	var wg sync.WaitGroup
	for _, b := range bodies {
		wg.Add(1)
		go func(b []byte) {
			defer wg.Done()
			if err := WriteFile(path, b, 0o600); err != nil {
				t.Error(err)
			}
		}(b)
	}
	wg.Wait()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range bodies {
		found = found || bytes.Equal(got, b)
	}
	if !found {
		t.Errorf("target holds a mix of writers: %.16q...", got)
	}
	if left := tempFiles(t, dir); len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

func TestSetFaultForTestingRestores(t *testing.T) {
	hook, _ := failAt("write", "x")
	if prev := SetFaultForTesting(hook); prev != nil {
		t.Fatal("a hook was already installed")
	}
	if prev := SetFaultForTesting(nil); prev == nil {
		t.Fatal("SetFaultForTesting did not return the installed hook")
	}
	if fault.Load() != nil {
		t.Fatal("nil did not remove the hook")
	}
}

// TestWriteFileStepOrder records the steps a successful write reports
// to the hook: all of them, once each, in order.
func TestWriteFileStepOrder(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	path := filepath.Join(t.TempDir(), "f")
	defer SetFaultForTesting(SetFaultForTesting(func(step, p string) error {
		if p == path {
			mu.Lock()
			seen = append(seen, step)
			mu.Unlock()
		}
		return nil
	}))
	if err := WriteFile(path, []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(steps) {
		t.Fatalf("hook saw %v, want %v", seen, steps)
	}
	for i := range steps {
		if seen[i] != steps[i] {
			t.Fatalf("hook saw %v, want %v", seen, steps)
		}
	}
}
