package store

// The content-addressed object store: large immutable blobs (canonical
// snapshot encodings) filed under caller-supplied keys — in practice
// the snapshot.Fingerprint hex of the bytes themselves. Objects are
// written atomically (tmp file, fsync, rename, dir fsync), carry their
// own CRC32C so bit rot is detected on read, and are idempotent to Put:
// a key that already exists is never rewritten.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
)

// objMagic opens every object file; the digit is the format version.
const objMagic = "COB1"

// objHeaderSize is magic (4) + CRC32C over the payload (4, LE).
const objHeaderSize = 8

// SnapStore is the object half of a Store. Safe for concurrent use:
// every operation is a whole-file read or an atomic rename.
type SnapStore struct {
	dir  string
	sync bool
	// fsyncs counts the file and directory fsyncs Put issued.
	fsyncs atomic.Int64
}

// openSnapStore roots an object store at dir.
func openSnapStore(dir string, sync bool) (*SnapStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &SnapStore{dir: dir, sync: sync}, nil
}

// checkKey rejects keys that could escape the store directory or
// collide with its tmp files. Fingerprint hex always passes.
func checkKey(key string) error {
	if key == "" || len(key) > 128 {
		return fmt.Errorf("store: object key length %d out of range [1, 128]", len(key))
	}
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
		default:
			return fmt.Errorf("store: object key %q holds disallowed character %q", key, r)
		}
	}
	if strings.HasPrefix(key, ".") {
		return fmt.Errorf("store: object key %q may not start with a dot", key)
	}
	return nil
}

// objPath shards objects into two-character fan-out directories.
func (s *SnapStore) objPath(key string) string {
	shard := key
	if len(shard) > 2 {
		shard = shard[:2]
	}
	return filepath.Join(s.dir, shard, key)
}

// Put stores data under key, atomically and idempotently.
func (s *SnapStore) Put(key string, data []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	path := s.objPath(key)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-obj-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	var hdr [objHeaderSize]byte
	copy(hdr[:4], objMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], crcBytes(data))
	if _, err := tmp.Write(hdr[:]); err == nil {
		_, err = tmp.Write(data)
	}
	if err != nil {
		tmp.Close()
		return fmt.Errorf("store: write object: %w", err)
	}
	if s.sync {
		s.fsyncs.Add(1)
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if s.sync {
		s.fsyncs.Add(1)
		return syncDir(dir)
	}
	return nil
}

// Fsyncs counts the fsyncs Put has issued: two per object written, its
// file's and its directory's, under a syncing store.
func (s *SnapStore) Fsyncs() int64 { return s.fsyncs.Load() }

// crcBytes is the object-payload checksum.
func crcBytes(data []byte) uint32 {
	return crc32.Checksum(data, castagnoli)
}

// Get reads the object under key. ok is false when the key is absent;
// a present object that fails its CRC or framing is an error.
func (s *SnapStore) Get(key string) (data []byte, ok bool, err error) {
	if err := checkKey(key); err != nil {
		return nil, false, err
	}
	raw, err := os.ReadFile(s.objPath(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	if len(raw) < objHeaderSize || string(raw[:4]) != objMagic {
		return nil, false, fmt.Errorf("store: object %s: bad header", key)
	}
	payload := raw[objHeaderSize:]
	if crcBytes(payload) != binary.LittleEndian.Uint32(raw[4:8]) {
		return nil, false, fmt.Errorf("store: object %s: CRC mismatch", key)
	}
	return payload, true, nil
}

// Has reports whether key names a stored object (without verifying it).
func (s *SnapStore) Has(key string) bool {
	if checkKey(key) != nil {
		return false
	}
	_, err := os.Stat(s.objPath(key))
	return err == nil
}

// Delete removes the object under key; absent keys are a no-op.
func (s *SnapStore) Delete(key string) error {
	if err := checkKey(key); err != nil {
		return err
	}
	if err := os.Remove(s.objPath(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Keys lists every stored object key, sorted.
func (s *SnapStore) Keys() ([]string, error) {
	var out []string
	shards, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		ents, err := os.ReadDir(filepath.Join(s.dir, sh.Name()))
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), ".") {
				continue
			}
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}
