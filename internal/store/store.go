package store

// Store ties the two halves of the state plane together under one data
// directory:
//
//	<dir>/wal/      the write-ahead log (wal.go)
//	<dir>/objects/  the content-addressed snapshot store (snapstore.go)

import (
	"fmt"
	"os"
	"path/filepath"
)

// Store is one open data directory.
type Store struct {
	// Dir is the data-directory root.
	Dir string
	// Log is the write-ahead log.
	Log *Log
	// Objects is the content-addressed snapshot store.
	Objects *SnapStore
}

// Open opens (creating or recovering) the data directory at dir.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty data directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	log, err := OpenLog(filepath.Join(dir, "wal"), opts)
	if err != nil {
		return nil, err
	}
	objects, err := openSnapStore(filepath.Join(dir, "objects"), opts.Sync != SyncNever)
	if err != nil {
		log.Close()
		return nil, err
	}
	return &Store{Dir: dir, Log: log, Objects: objects}, nil
}

// Close syncs and closes the log. Objects need no teardown.
func (s *Store) Close() error {
	return s.Log.Close()
}

// Journal is a WAL-backed progress journal for one logical key: each
// save appends a record, and the latest record wins on recovery. It
// satisfies planner.Journal, which is how the beam search persists its
// between-level checkpoints through the store instead of ad-hoc files.
type Journal struct {
	log *Log
	typ uint8
	key string
}

// Journal scopes a progress journal to one (record type, key) pair.
func (s *Store) Journal(typ uint8, key string) *Journal {
	return &Journal{log: s.Log, typ: typ, key: key}
}

// SaveProgress appends one checkpoint record. The level is advisory;
// the checkpoint bytes carry the full state.
func (j *Journal) SaveProgress(level int, checkpoint []byte) error {
	_, err := j.log.AppendBatch([]Entry{{Type: j.typ, Key: j.key, Value: [][]byte{checkpoint}}})
	return err
}

// Latest replays the log and returns the journal's most recent
// checkpoint, or ok=false when the key has never been saved.
func (j *Journal) Latest() (checkpoint []byte, ok bool, err error) {
	err = j.log.Replay(func(r Record) error {
		if r.Type != j.typ {
			return nil
		}
		key, value, err := DecodeKV(r.Data)
		if err != nil {
			return err
		}
		if key == j.key {
			checkpoint = append(checkpoint[:0], value...)
			ok = true
		}
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	return checkpoint, ok, nil
}
