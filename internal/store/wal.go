package store

// The segmented write-ahead log. Segments are files named by the global
// index of their first record (wal-%016x.seg); each starts with a
// 12-byte header (magic "CWL1" + base index) and carries a run of
// record frames (frame.go). Appends go to the newest (active) segment
// and rotate once it passes Options.SegmentBytes; fsync follows the
// configured policy. OpenLog recovers: it scans every segment, verifies
// every CRC, truncates a torn or corrupt tail in the newest segment,
// and refuses (with ErrCorrupt) to open a log whose supposedly-durable
// interior fails verification.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// segMagic opens every segment file; the digit is the format version.
const segMagic = "CWL1"

// segHeaderSize is magic (4) + base record index (8, LE).
const segHeaderSize = 12

// ErrCorrupt marks damage recovery must not repair silently: a CRC or
// framing failure anywhere before the newest segment's tail. Torn tails
// (the crash-consistent case) are truncated instead and never surface
// this error.
var ErrCorrupt = errors.New("store: corrupt log interior")

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: a record returned from
	// Append survives an immediate crash. The default, and what the
	// crash-recovery conformance suite runs under.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs every Options.SyncEvery appends and on
	// rotation and Close; a crash loses at most the unsynced suffix,
	// and recovery still yields a clean durable prefix.
	SyncInterval
	// SyncNever leaves flushing to the OS (benchmarks, tests).
	SyncNever
)

// Options size the log. Zero values take the documented defaults.
type Options struct {
	// SegmentBytes rotates the active segment once it passes this size
	// (default 4 MiB). Every segment holds at least one record.
	SegmentBytes int64
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the SyncInterval append stride (default 64).
	SyncEvery int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 64
	}
	return o
}

// Record is one replayed WAL entry.
type Record struct {
	// Index is the record's global position, monotone across segments.
	Index uint64
	Type  uint8
	Data  []byte
}

// segment is one closed or active segment's bookkeeping.
type segment struct {
	base  uint64 // global index of the first record
	count uint64 // records in the segment
	path  string
}

// Log is an open write-ahead log. Safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	segs     []segment // closed segments, ascending
	active   segment
	activeF  *os.File
	size     int64 // active segment file size
	next     uint64
	unsynced int

	truncated int // corrupt/torn tail bytes dropped during recovery

	// fsyncs counts the fsyncs appends and Sync issued.
	fsyncs atomic.Int64
}

// OpenLog opens (creating or recovering) the log in dir.
func OpenLog(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	l := &Log{dir: dir, opts: opts}
	if err := l.recover(); err != nil {
		return nil, err
	}
	return l, nil
}

// segPath names the segment whose first record has the given index.
func (l *Log) segPath(base uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("wal-%016x.seg", base))
}

// listSegments returns the on-disk segment files ascending by base.
func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var segs []segment
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		base, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: segment name %q", ErrCorrupt, name)
		}
		segs = append(segs, segment{base: base, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	return segs, nil
}

// recover scans the on-disk state into a serving log. Interior damage
// is ErrCorrupt; tail damage is truncated.
func (l *Log) recover() error {
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return l.createSegment(0, nil)
	}
	// A crash during rotation can leave the newest segment without a
	// complete, valid header; such a file holds no durable records and
	// is discarded. Anywhere else a bad header is interior corruption.
	last := len(segs) - 1
	for i := range segs {
		data, err := os.ReadFile(segs[i].path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		base, hdrErr := parseSegHeader(data, segs[i].base)
		if hdrErr != nil {
			if i == last {
				if err := os.Remove(segs[i].path); err != nil {
					return fmt.Errorf("store: drop torn segment: %w", err)
				}
				if err := syncDir(l.dir); err != nil {
					return err
				}
				l.truncated += len(data)
				segs = segs[:last]
				break
			}
			return fmt.Errorf("%w: %s: %v", ErrCorrupt, segs[i].path, hdrErr)
		}
		if i > 0 && base != segs[i-1].base+segs[i-1].count {
			return fmt.Errorf("%w: %s: base %d does not continue previous segment (want %d)",
				ErrCorrupt, segs[i].path, base, segs[i-1].base+segs[i-1].count)
		}
		count, validLen, scanErr := scanFrames(data[segHeaderSize:])
		if scanErr != nil && i != last {
			return fmt.Errorf("%w: %s: %v", ErrCorrupt, segs[i].path, scanErr)
		}
		if scanErr != nil {
			// Torn or corrupt tail in the newest segment: cut the file
			// back to its last whole record.
			keep := int64(segHeaderSize + validLen)
			l.truncated += len(data) - int(keep)
			if err := os.Truncate(segs[i].path, keep); err != nil {
				return fmt.Errorf("store: truncate torn tail: %w", err)
			}
		}
		segs[i].count = count
	}
	if len(segs) == 0 {
		// The only segment was a torn rotation; start over.
		return l.createSegment(0, nil)
	}
	act := segs[len(segs)-1]
	f, err := os.OpenFile(act.path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	size, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if l.truncated > 0 {
		// Make the truncation itself durable before appending past it.
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
	}
	l.segs = segs[:len(segs)-1]
	l.active = act
	l.activeF = f
	l.size = size
	l.next = act.base + act.count
	return nil
}

// parseSegHeader validates a segment header against the base its file
// name claims.
func parseSegHeader(data []byte, wantBase uint64) (uint64, error) {
	if len(data) < segHeaderSize {
		return 0, fmt.Errorf("short header (%d bytes)", len(data))
	}
	if string(data[:4]) != segMagic {
		return 0, fmt.Errorf("bad magic %q", data[:4])
	}
	base := binary.LittleEndian.Uint64(data[4:12])
	if base != wantBase {
		return 0, fmt.Errorf("header base %d disagrees with file name base %d", base, wantBase)
	}
	return base, nil
}

// scanFrames walks a segment body, returning the number of whole valid
// records and the byte length they span. A framing or CRC failure stops
// the scan with the error; everything before it is intact.
func scanFrames(body []byte) (count uint64, validLen int, err error) {
	off := 0
	for off < len(body) {
		_, _, n, err := parseFrame(body[off:])
		if err != nil {
			return count, off, err
		}
		off += n
		count++
	}
	return count, off, nil
}

// createSegment starts a fresh segment whose first record will have the
// given index, leaving it active. prev, when set, is the outgoing active
// file: it is synced first and closed once the new segment is in place, so
// a segment that cannot be created leaves prev active and appending.
func (l *Log) createSegment(base uint64, prev *os.File) error {
	if prev != nil {
		if err := prev.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	path := l.segPath(base)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:4], segMagic)
	binary.LittleEndian.PutUint64(hdr[4:12], base)
	fail := func(err error) error {
		f.Close()
		os.Remove(path)
		return err
	}
	if _, err := f.Write(hdr[:]); err != nil {
		return fail(fmt.Errorf("store: %w", err))
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("store: %w", err))
	}
	if err := syncDir(l.dir); err != nil {
		return fail(err)
	}
	if l.activeF != nil {
		l.segs = append(l.segs, l.active)
	}
	l.active = segment{base: base, path: path}
	l.activeF = f
	l.size = segHeaderSize
	l.next = base
	l.unsynced = 0
	if prev != nil {
		if err := prev.Close(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

// Append writes one record and returns its global index. Durability on
// return follows the sync policy.
func (l *Log) Append(typ uint8, data []byte) (uint64, error) {
	if len(data) > MaxRecordBytes {
		return 0, fmt.Errorf("store: record payload %d exceeds %d bytes", len(data), MaxRecordBytes)
	}
	return l.write(appendFrame(nil, typ, data), 1)
}

// AppendBatch writes entries as consecutive records and returns the global
// index of the first: one write(2) and, under SyncAlways, one fsync. A
// batch never straddles segments: one that does not fit the active segment
// rotates first, and one larger than SegmentBytes gets a segment of its
// own. A crash mid-batch leaves a prefix of its records, as it would of
// separate appends. The frames are rendered into a buffer of the call's
// own; the log keeps none.
func (l *Log) AppendBatch(entries []Entry) (uint64, error) {
	size := 0
	for _, e := range entries {
		n := e.PayloadSize()
		if n > MaxRecordBytes {
			return 0, fmt.Errorf("store: record payload %d exceeds %d bytes", n, MaxRecordBytes)
		}
		size += frameHeaderSize + n
	}
	buf := make([]byte, 0, size)
	for _, e := range entries {
		buf = appendEntryFrame(buf, e)
	}
	return l.write(buf, len(entries))
}

// write appends n rendered frames to the active segment, rotating first
// when they do not fit it, and returns the first one's index.
func (l *Log) write(frames []byte, n int) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.activeF == nil {
		return 0, fmt.Errorf("store: log closed")
	}
	if l.size+int64(len(frames)) > l.opts.SegmentBytes && l.active.count > 0 {
		if err := l.createSegment(l.next, l.activeF); err != nil {
			return 0, err
		}
	}
	if _, err := l.activeF.Write(frames); err != nil {
		return 0, fmt.Errorf("store: append: %w", err)
	}
	idx := l.next
	l.next += uint64(n)
	l.active.count += uint64(n)
	l.size += int64(len(frames))
	l.unsynced += n
	if l.opts.Sync == SyncAlways || l.opts.Sync == SyncInterval && l.unsynced >= l.opts.SyncEvery {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	return idx, nil
}

// Sync forces the active segment to stable storage regardless of
// policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.activeF == nil {
		return fmt.Errorf("store: log closed")
	}
	return l.syncLocked()
}

// syncLocked fsyncs the active segment and counts it. Caller holds l.mu.
func (l *Log) syncLocked() error {
	l.fsyncs.Add(1)
	if err := l.activeF.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	l.unsynced = 0
	return nil
}

// Fsyncs counts the fsyncs appends and Sync have issued since the log was
// opened; segment creation and Close are not counted.
func (l *Log) Fsyncs() int64 { return l.fsyncs.Load() }

// Replay streams every record oldest-first. The data slice is private
// to the callback invocation. Replay holds the log lock: appends wait.
func (l *Log) Replay(fn func(Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	all := append(append([]segment(nil), l.segs...), l.active)
	for _, s := range all {
		data, err := os.ReadFile(s.path)
		if err != nil {
			return fmt.Errorf("store: replay: %w", err)
		}
		body := data[min(segHeaderSize, len(data)):]
		idx := s.base
		off := 0
		for off < len(body) {
			typ, payload, n, err := parseFrame(body[off:])
			if err != nil {
				// The scan at Open verified every frame; damage here
				// arrived after recovery.
				return fmt.Errorf("%w: %s at offset %d: %v", ErrCorrupt, s.path, segHeaderSize+off, err)
			}
			if err := fn(Record{Index: idx, Type: typ, Data: payload}); err != nil {
				return err
			}
			idx++
			off += n
		}
	}
	return nil
}

// Rotate seals the active segment (when it holds records) and opens a
// fresh one, returning the fresh segment's base index. The compaction
// pattern: Rotate, re-append live state, Sync, Compact(base).
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.activeF == nil {
		return 0, fmt.Errorf("store: log closed")
	}
	if l.active.count == 0 {
		return l.active.base, nil
	}
	if err := l.createSegment(l.next, l.activeF); err != nil {
		return 0, err
	}
	return l.active.base, nil
}

// Compact removes every closed segment all of whose records precede
// the given index. The active segment is never removed.
func (l *Log) Compact(before uint64) (removed int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	keep := l.segs[:0]
	for _, s := range l.segs {
		if s.base+s.count <= before {
			if err := os.Remove(s.path); err != nil {
				return removed, fmt.Errorf("store: compact: %w", err)
			}
			removed++
			continue
		}
		keep = append(keep, s)
	}
	l.segs = keep
	if removed > 0 {
		if err := syncDir(l.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// NextIndex is the index the next Append will return.
func (l *Log) NextIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// SegmentCount is the number of on-disk segments, active included.
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs) + 1
}

// TruncatedBytes reports how many torn or corrupt tail bytes recovery
// dropped when this log was opened.
func (l *Log) TruncatedBytes() int { return l.truncated }

// Close syncs and closes the active segment. The log is unusable after.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.activeF == nil {
		return nil
	}
	err := l.activeF.Sync()
	if cerr := l.activeF.Close(); err == nil {
		err = cerr
	}
	l.activeF = nil
	if err != nil {
		return fmt.Errorf("store: close: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so entry creation/removal is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}
