package store

// The crash-recovery conformance matrix. A reference log is written
// under SyncAlways, where every returned Append is durable; a kill at
// an arbitrary instant therefore leaves exactly some byte-prefix of
// the reference file on disk. The matrix replays recovery from every
// record boundary (clean kills), from every byte offset inside the
// tail record (torn writes), and from single-bit flips (media
// corruption), and requires: recovery never panics, never errors on a
// crash-consistent image, never yields a record that was not durably
// appended, yields every record before the damage, and leaves the log
// appendable with contiguous indices.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// matrixRecords is the reference workload: varied sizes, an empty
// payload, binary content, repeated types.
func matrixRecords() []Record {
	payloads := [][]byte{
		[]byte("alpha"),
		{},
		bytes.Repeat([]byte{0xa5, 0x00, 0xff}, 40),
		[]byte("delta-record-with-a-longer-payload-line"),
		{0x00},
		bytes.Repeat([]byte("wal"), 100),
		[]byte("tail"),
	}
	out := make([]Record, len(payloads))
	for i, p := range payloads {
		out[i] = Record{Index: uint64(i), Type: uint8(i%3 + 1), Data: p}
	}
	return out
}

// writeReference builds the reference log in its own directory and
// returns the single segment's file bytes plus the byte offset of
// every record boundary (boundaries[k] = file length after k records).
func writeReference(t *testing.T, recs []Record) (segBytes []byte, boundaries []int) {
	t.Helper()
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncAlways, SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatalf("open reference log: %v", err)
	}
	for _, r := range recs {
		if _, err := l.Append(r.Type, r.Data); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("reference log segments: %v (%d)", err, len(segs))
	}
	segBytes, err = os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatalf("read reference segment: %v", err)
	}
	boundaries = []int{segHeaderSize}
	off := segHeaderSize
	for range recs {
		_, _, n, err := parseFrame(segBytes[off:])
		if err != nil {
			t.Fatalf("reference frame scan: %v", err)
		}
		off += n
		boundaries = append(boundaries, off)
	}
	if off != len(segBytes) {
		t.Fatalf("reference scan consumed %d of %d bytes", off, len(segBytes))
	}
	return segBytes, boundaries
}

// plantImage writes one crash image: a log directory whose only
// segment holds the given bytes.
func plantImage(t *testing.T, img []byte) string {
	t.Helper()
	dir := t.TempDir()
	name := filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", 0))
	if err := os.WriteFile(name, img, 0o644); err != nil {
		t.Fatalf("plant image: %v", err)
	}
	return dir
}

// recoverAll opens a log directory and returns its replayed records.
func recoverAll(t *testing.T, dir string) (*Log, []Record) {
	t.Helper()
	l, err := OpenLog(dir, Options{Sync: SyncAlways, SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	var got []Record
	if err := l.Replay(func(r Record) error {
		got = append(got, Record{Index: r.Index, Type: r.Type, Data: append([]byte(nil), r.Data...)})
		return nil
	}); err != nil {
		t.Fatalf("replay after recovery: %v", err)
	}
	return l, got
}

// checkPrefix asserts the recovered records are exactly recs[:n].
func checkPrefix(t *testing.T, got, want []Record, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("recovered %d records, want %d", len(got), n)
	}
	for i := 0; i < n; i++ {
		if got[i].Index != want[i].Index || got[i].Type != want[i].Type || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d diverged after recovery: %+v want %+v", i, got[i], want[i])
		}
	}
}

// checkAppendable proves recovery left a live log: one more append
// lands at the contiguous next index and survives another recovery.
func checkAppendable(t *testing.T, l *Log, dir string, prefix []Record) {
	t.Helper()
	sentinel := []byte("post-recovery-append")
	idx, err := l.Append(0x7f, sentinel)
	if err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if idx != uint64(len(prefix)) {
		t.Fatalf("post-recovery append landed at index %d, want %d", idx, len(prefix))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	l2, got := recoverAll(t, dir)
	defer l2.Close()
	checkPrefix(t, got[:len(got)-1], prefix, len(prefix))
	lastIdx := len(got) - 1
	if got[lastIdx].Type != 0x7f || !bytes.Equal(got[lastIdx].Data, sentinel) {
		t.Fatalf("sentinel record did not survive the second recovery: %+v", got[lastIdx])
	}
}

// TestCrashAtEveryRecordBoundary is the clean-kill half of the matrix:
// the on-disk image cut at each record boundary recovers to exactly
// that prefix and stays appendable.
func TestCrashAtEveryRecordBoundary(t *testing.T) {
	recs := matrixRecords()
	segBytes, boundaries := writeReference(t, recs)
	for k, cut := range boundaries {
		t.Run(fmt.Sprintf("records=%d", k), func(t *testing.T) {
			dir := plantImage(t, segBytes[:cut])
			l, got := recoverAll(t, dir)
			checkPrefix(t, got, recs, k)
			checkAppendable(t, l, dir, recs[:k])
		})
	}
}

// TestCrashTornWriteEveryOffset is the torn-write half: the image cut
// at every byte offset strictly inside a record frame recovers to the
// records wholly before the cut — the torn frame is truncated away,
// never partially replayed.
func TestCrashTornWriteEveryOffset(t *testing.T) {
	recs := matrixRecords()
	segBytes, boundaries := writeReference(t, recs)
	for k := 0; k < len(recs); k++ {
		lo, hi := boundaries[k], boundaries[k+1]
		for cut := lo + 1; cut < hi; cut++ {
			dir := plantImage(t, segBytes[:cut])
			l, got := recoverAll(t, dir)
			checkPrefix(t, got, recs, k)
			if l.TruncatedBytes() != cut-lo {
				t.Fatalf("cut at %d: recovery reported %d truncated bytes, want %d", cut, l.TruncatedBytes(), cut-lo)
			}
			l.Close()
		}
	}
	// One torn image end-to-end with the appendability check (cheaper
	// than running it at every offset).
	cut := boundaries[len(recs)-1] + (boundaries[len(recs)]-boundaries[len(recs)-1])/2
	dir := plantImage(t, segBytes[:cut])
	l, got := recoverAll(t, dir)
	checkPrefix(t, got, recs, len(recs)-1)
	checkAppendable(t, l, dir, recs[:len(recs)-1])
}

// TestCrashBitFlipTailRecord flips every bit of the final record's
// frame in turn; recovery must drop the damaged tail (and anything
// after it), keep everything before it, and never panic.
func TestCrashBitFlipTailRecord(t *testing.T) {
	recs := matrixRecords()
	segBytes, boundaries := writeReference(t, recs)
	lo, hi := boundaries[len(recs)-1], boundaries[len(recs)]
	for off := lo; off < hi; off++ {
		for bit := 0; bit < 8; bit++ {
			img := append([]byte(nil), segBytes...)
			img[off] ^= 1 << bit
			dir := plantImage(t, img)
			l, got := recoverAll(t, dir)
			checkPrefix(t, got, recs, len(recs)-1)
			l.Close()
		}
	}
}

// TestCrashBitFlipMidSegment flips a byte in an interior record of the
// newest segment: the scan truncates at the first damaged record, so
// the intact records before it survive and the valid-but-unreachable
// suffix is dropped rather than silently replayed past a CRC failure.
func TestCrashBitFlipMidSegment(t *testing.T) {
	recs := matrixRecords()
	segBytes, boundaries := writeReference(t, recs)
	k := 3 // damage record 3 of 7
	img := append([]byte(nil), segBytes...)
	img[boundaries[k]+frameHeaderSize] ^= 0x10
	dir := plantImage(t, img)
	l, got := recoverAll(t, dir)
	defer l.Close()
	checkPrefix(t, got, recs, k)
	if l.TruncatedBytes() != len(segBytes)-boundaries[k] {
		t.Fatalf("truncated %d bytes, want %d", l.TruncatedBytes(), len(segBytes)-boundaries[k])
	}
}

// TestCorruptClosedSegmentRefusesOpen: damage in a segment before the
// newest one is bit rot in data the log already called durable.
// Recovery must fail loudly with ErrCorrupt, not truncate or skip.
func TestCorruptClosedSegmentRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncAlways, SegmentBytes: 64})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 12; i++ {
		if _, err := l.Append(1, bytes.Repeat([]byte{byte(i)}, 24)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if l.SegmentCount() < 3 {
		t.Fatalf("workload produced %d segments, want >= 3", l.SegmentCount())
	}
	l.Close()

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	first, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	first[segHeaderSize+frameHeaderSize] ^= 0x01
	if err := os.WriteFile(segs[0].path, first, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := OpenLog(dir, Options{Sync: SyncAlways}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over interior corruption: err=%v, want ErrCorrupt", err)
	}
}

// TestCrashDuringRotation covers the kill windows around segment
// rotation: a newest segment with no header, a partial header, or a
// header and no records must be discarded or accepted cleanly, with
// the indices continuing from the previous segment.
func TestCrashDuringRotation(t *testing.T) {
	build := func(t *testing.T) (string, int) {
		dir := t.TempDir()
		l, err := OpenLog(dir, Options{Sync: SyncAlways, SegmentBytes: 64})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		n := 0
		for l.SegmentCount() < 2 {
			if _, err := l.Append(2, bytes.Repeat([]byte{0xee}, 20)); err != nil {
				t.Fatalf("append: %v", err)
			}
			n++
		}
		l.Close()
		return dir, n
	}
	cases := []struct {
		name string
		tail []byte // bytes the torn newest segment holds
	}{
		{"empty-file", nil},
		{"partial-header", []byte(segMagic[:2])},
		{"bad-magic", []byte("XXXX\x00\x00\x00\x00\x00\x00\x00\x00")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, n := build(t)
			segs, err := listSegments(dir)
			if err != nil {
				t.Fatalf("list: %v", err)
			}
			// Replace the newest segment with the torn image. The records
			// it held were appended after the simulated kill, so the
			// durable count drops to what the older segments hold.
			newest := segs[len(segs)-1]
			durable := int(newest.base)
			if err := os.WriteFile(newest.path, tc.tail, 0o644); err != nil {
				t.Fatalf("write torn segment: %v", err)
			}
			l, got := recoverAll(t, dir)
			if len(got) != durable {
				t.Fatalf("recovered %d records, want %d", len(got), durable)
			}
			_ = n
			idx, err := l.Append(3, []byte("continue"))
			if err != nil {
				t.Fatalf("append after rotation crash: %v", err)
			}
			if idx != uint64(durable) {
				t.Fatalf("append index %d, want %d", idx, durable)
			}
			l.Close()
		})
	}
}

// TestCompactionSurvivesRecovery: rotate + rewrite + compact, then
// recover — replay sees the rewritten state with original indices gone
// and the segment files actually removed.
func TestCompactionSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncAlways, SegmentBytes: 96})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 16; i++ {
		if _, err := l.Append(1, EncodeKV("key", bytes.Repeat([]byte{byte(i)}, 16))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	before := l.SegmentCount()
	base, err := l.Rotate()
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
	live := EncodeKV("key", []byte("live-state"))
	if _, err := l.Append(1, live); err != nil {
		t.Fatalf("rewrite append: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	removed, err := l.Compact(base)
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if removed == 0 || l.SegmentCount() >= before {
		t.Fatalf("compaction removed %d segments (count %d -> %d)", removed, before, l.SegmentCount())
	}
	l.Close()

	l2, got := recoverAll(t, dir)
	defer l2.Close()
	if len(got) != 1 {
		t.Fatalf("recovered %d records after compaction, want 1", len(got))
	}
	if got[0].Index != uint64(base) || !bytes.Equal(got[0].Data, live) {
		t.Fatalf("compacted state diverged: %+v", got[0])
	}
}

// TestCrashTornBatchEveryOffset: a batch is one write of several frames, and
// a crash can land anywhere in it. The image cut at every byte offset
// inside a batch recovers to the records wholly before the cut — a prefix
// of the batch, as separate appends would leave — and stays appendable.
func TestCrashTornBatchEveryOffset(t *testing.T) {
	batch := []Entry{
		{Type: 7, Key: "plan-a", Value: [][]byte{[]byte("fp-1:"), bytes.Repeat([]byte{0x5a}, 90)}},
		{Type: 7, Key: "plan-a", Value: [][]byte{[]byte("fp-2:"), {}, []byte("second state")}},
		{Type: 7, Key: "plan-a", Value: nil},
		{Type: 2, Key: "plan-a", Value: [][]byte{[]byte("manifest")}},
	}
	recs := []Record{{Index: 0, Type: 1, Data: []byte("before")}}
	for _, e := range batch {
		recs = append(recs, Record{Index: uint64(len(recs)), Type: e.Type, Data: EncodeKV(e.Key, bytes.Join(e.Value, nil))})
	}
	recs = append(recs, Record{Index: uint64(len(recs)), Type: 3, Data: []byte("after")})

	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncAlways, SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(recs[0].Type, recs[0].Data); err != nil {
		t.Fatal(err)
	}
	if idx, err := l.AppendBatch(batch); err != nil || idx != 1 {
		t.Fatalf("batch landed at %d (err %v), want 1", idx, err)
	}
	last := recs[len(recs)-1]
	if idx, err := l.Append(last.Type, last.Data); err != nil || idx != last.Index {
		t.Fatalf("append after the batch landed at %d (err %v), want %d", idx, err, last.Index)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segBytes, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", 0)))
	if err != nil {
		t.Fatal(err)
	}
	boundaries := []int{segHeaderSize}
	for off := segHeaderSize; off < len(segBytes); {
		_, _, n, err := parseFrame(segBytes[off:])
		if err != nil {
			t.Fatalf("reference frame scan: %v", err)
		}
		off += n
		boundaries = append(boundaries, off)
	}
	if len(boundaries) != len(recs)+1 {
		t.Fatalf("reference holds %d frames, want %d", len(boundaries)-1, len(recs))
	}
	_, got := recoverAll(t, plantImage(t, segBytes))
	checkPrefix(t, got, recs, len(recs))

	for cut := boundaries[1] + 1; cut < boundaries[1+len(batch)]; cut++ {
		whole := 0
		for whole+1 < len(boundaries) && boundaries[whole+1] <= cut {
			whole++
		}
		dir := plantImage(t, segBytes[:cut])
		l, got := recoverAll(t, dir)
		checkPrefix(t, got, recs, whole)
		if l.TruncatedBytes() != cut-boundaries[whole] {
			t.Fatalf("cut at %d: recovery reported %d truncated bytes, want %d", cut, l.TruncatedBytes(), cut-boundaries[whole])
		}
		if cut == boundaries[2]+1 {
			checkAppendable(t, l, dir, recs[:whole])
			continue
		}
		l.Close()
	}
}

// TestBatchNeverStraddlesSegments: a batch that does not fit the active
// segment rotates first, and one larger than a segment gets one of its own.
func TestBatchNeverStraddlesSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	entry := func(n int) Entry { return Entry{Type: 7, Key: "k", Value: [][]byte{bytes.Repeat([]byte{1}, n)}} }
	for _, sizes := range [][]int{{100}, {100, 100}, {300, 300}, {10}} {
		var b []Entry
		for _, n := range sizes {
			b = append(b, entry(n))
		}
		if _, err := l.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.AppendBatch([]Entry{entry(MaxRecordBytes)}); err == nil {
		t.Fatal("a record past MaxRecordBytes was accepted")
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var perSeg []int
	for _, s := range segs {
		data, err := os.ReadFile(s.path)
		if err != nil {
			t.Fatal(err)
		}
		n, _, err := scanFrames(data[segHeaderSize:])
		if err != nil {
			t.Fatal(err)
		}
		perSeg = append(perSeg, int(n))
	}
	// {100} fits; {100, 100} does not fit behind it; {300, 300} exceeds a
	// segment and gets its own; {10} follows it into a fresh one.
	if fmt.Sprint(perSeg) != "[1 2 2 1]" {
		t.Fatalf("records per segment %v, want [1 2 2 1]: a batch straddled a segment boundary", perSeg)
	}
}
