package store

// Error-path behavior: the state plane must fail loudly and precisely —
// bad keys rejected before touching disk, closed logs refusing work,
// unreadable state surfacing errors instead of quietly serving less.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEncodeKVTruncatesOversizeKeys(t *testing.T) {
	long := strings.Repeat("k", 0x10000+5)
	key, value, err := DecodeKV(EncodeKV(long, []byte("v")))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(key) != 0xffff {
		t.Fatalf("oversize key encoded to %d bytes, want the 0xffff clamp", len(key))
	}
	if !bytes.HasPrefix([]byte("v"), value) || len(value) != 1 {
		t.Fatalf("value corrupted by key clamp: %q", value)
	}
}

func TestOpenRefusesBlockedSubdirectories(t *testing.T) {
	// A file squatting where the wal/ directory belongs.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("blocked wal/ accepted")
	}

	// A file squatting where objects/ belongs.
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "objects"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("blocked objects/ accepted")
	}

	// A file squatting on the data dir itself.
	squat := filepath.Join(t.TempDir(), "squat")
	if err := os.WriteFile(squat, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(squat, Options{}); err == nil {
		t.Fatal("file-as-data-dir accepted")
	}
	if _, err := OpenLog(filepath.Join(squat, "wal"), Options{}); err == nil {
		t.Fatal("file-as-log-dir accepted")
	}
}

func TestOpenLogRejectsUnparseableSegmentName(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-nothex.seg"), []byte("CWL1"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenLog(dir, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unparseable segment name: got %v, want ErrCorrupt", err)
	}
}

func TestObjectOperationsRejectBadKeys(t *testing.T) {
	st, err := Open(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	bad := []string{"", ".hidden", "a/b", "a b", strings.Repeat("x", 129)}
	for _, key := range bad {
		if err := st.Objects.Put(key, []byte("v")); err == nil {
			t.Errorf("Put(%q) accepted", key)
		}
		if _, _, err := st.Objects.Get(key); err == nil {
			t.Errorf("Get(%q) accepted", key)
		}
		if err := st.Objects.Delete(key); err == nil {
			t.Errorf("Delete(%q) accepted", key)
		}
		if st.Objects.Has(key) {
			t.Errorf("Has(%q) true", key)
		}
	}
}

func TestObjectPathObstructions(t *testing.T) {
	st, err := Open(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// A file where the shard directory belongs blocks Put.
	if err := os.WriteFile(filepath.Join(st.Dir, "objects", "ab"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.Objects.Put("abcd", []byte("v")); err == nil {
		t.Fatal("Put through a blocked shard dir succeeded")
	}

	// A directory where an object belongs errors on Get and on Delete
	// (a directory is not removable by the object unlink).
	blocked := filepath.Join(st.Dir, "objects", "cd", "cdef")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Objects.Get("cdef"); err == nil {
		t.Fatal("Get of a directory-shaped object succeeded")
	}
	if err := st.Objects.Delete("cdef"); err == nil {
		t.Fatal("Delete of a non-empty directory-shaped object succeeded")
	}
}

func TestObjectKeysErrorsAndFiltering(t *testing.T) {
	st, err := Open(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Objects.Put("deadbeef", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Stray non-shard files and dot files must not surface as keys.
	if err := os.WriteFile(filepath.Join(st.Dir, "objects", "stray"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.Dir, "objects", "de", ".tmp-obj-x"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := st.Objects.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "deadbeef" {
		t.Fatalf("keys = %v, want [deadbeef]", keys)
	}

	if err := os.RemoveAll(filepath.Join(st.Dir, "objects")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Objects.Keys(); err == nil {
		t.Fatal("Keys on a vanished store succeeded")
	}
}

func TestReplayPropagatesCallbackError(t *testing.T) {
	l, err := OpenLog(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 3; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("stop here")
	seen := 0
	err = l.Replay(func(Record) error {
		seen++
		if seen == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("callback error not propagated: %v", err)
	}
	if seen != 2 {
		t.Fatalf("replay continued past the error: %d records seen", seen)
	}
}

func TestClosedLogRefusesRotateSyncReplay(t *testing.T) {
	l, err := OpenLog(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, err := l.Rotate(); err == nil {
		t.Error("Rotate on closed log succeeded")
	}
	if err := l.Sync(); err == nil {
		t.Error("Sync on closed log succeeded")
	}
}

// TestFailedRotationKeepsAppending: a segment that cannot be created leaves
// the active one open, so the log takes the next append, and a reopened log
// replays every record.
func TestFailedRotationKeepsAppending(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	blocker := l.segPath(1) // the next segment's name, taken by a directory
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err == nil {
		t.Fatal("Rotate onto an obstructed segment path succeeded")
	}
	if _, err := l.Append(1, []byte("b")); err != nil {
		t.Fatalf("append after a failed rotation: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close after a failed rotation: %v", err)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	l, err = OpenLog(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var got []string
	if err := l.Replay(func(r Record) error {
		got = append(got, string(r.Data))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "a,b" {
		t.Fatalf("replayed %q, want a and b", got)
	}
}

func TestRotateEmptyActiveIsNoOp(t *testing.T) {
	l, err := OpenLog(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	base, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if base != 0 || l.SegmentCount() != 1 {
		t.Fatalf("empty rotate created a segment: base %d, %d segments", base, l.SegmentCount())
	}
}

func TestJournalLatestSurfacesMalformedRecords(t *testing.T) {
	st, err := Open(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	j := st.Journal(9, "search")
	if _, ok, err := j.Latest(); err != nil || ok {
		t.Fatalf("empty journal: ok=%v err=%v", ok, err)
	}
	// A record of the journal's type whose payload is not a KV frame.
	if _, err := st.Log.Append(9, []byte{0xff}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := j.Latest(); err == nil {
		t.Fatal("malformed journal record not surfaced")
	}
}
