package store

// The WAL record frame: a fixed header of payload length, CRC32C, and
// record type, followed by the payload.
//
//	offset  size  field
//	0       4     payload length (uint32 LE)
//	4       4     CRC32C over type byte + payload (uint32 LE)
//	8       1     record type
//	9       n     payload
//
// The CRC covers the type and payload; a flipped length byte mis-slices
// the payload and fails the CRC with the same probability as any other
// corruption, so recovery needs no separate length integrity. Decoding
// arbitrary bytes never panics and never yields a record whose CRC does
// not verify — FuzzWALRecord holds both properties.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	// frameHeaderSize is the fixed per-record overhead.
	frameHeaderSize = 9
	// MaxRecordBytes bounds one record's payload; a decoded length past
	// it is corruption, not a huge allocation.
	MaxRecordBytes = 16 << 20
)

// castagnoli is the CRC32C polynomial table (the iSCSI/ext4 one).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errShortFrame marks a frame cut off mid-record: a torn write when it
// is the tail of the newest segment, hard corruption anywhere else.
var errShortFrame = errors.New("store: truncated record frame")

// errBadFrame marks a frame whose CRC or length field does not verify.
var errBadFrame = errors.New("store: corrupt record frame")

// frameCRC computes the checksum a frame carries for (typ, payload).
func frameCRC(typ uint8, payload []byte) uint32 {
	crc := crc32.Update(0, castagnoli, []byte{typ})
	return crc32.Update(crc, castagnoli, payload)
}

// Entry is one record of an AppendBatch: its type, and a payload in the
// (key, value) convention of EncodeKV whose value is the parts back to back.
type Entry struct {
	Type  uint8
	Key   string
	Value [][]byte
}

// PayloadSize is the length of the entry's rendered payload.
func (e Entry) PayloadSize() int {
	n := 2 + min(len(e.Key), 0xffff)
	for _, v := range e.Value {
		n += len(v)
	}
	return n
}

// appendFrame renders one record frame of a raw payload onto dst.
func appendFrame(dst []byte, typ uint8, payload []byte) []byte {
	return sealFrame(append(openFrame(dst, typ), payload...), len(dst))
}

// appendEntryFrame renders an entry's record frame onto dst. Each payload
// byte is copied once, into dst.
func appendEntryFrame(dst []byte, e Entry) []byte {
	return sealFrame(appendKV(openFrame(dst, e.Type), e.Key, e.Value...), len(dst))
}

// openFrame reserves a frame header on dst with its type byte set; the
// payload is appended after it, and sealFrame fills in the rest.
func openFrame(dst []byte, typ uint8) []byte {
	dst = append(dst, make([]byte, frameHeaderSize-1)...)
	return append(dst, typ)
}

// sealFrame fills in the length and the CRC of the frame rendered at
// dst[start:]: the CRC covers the type byte and the payload, which lie back
// to back.
func sealFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-frameHeaderSize))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(dst[start+8:], castagnoli))
	return dst
}

// parseFrame decodes the frame at the start of buf. It returns the
// record type, the payload (aliasing buf), and the total frame size
// consumed. A buffer ending mid-frame returns errShortFrame; a frame
// whose length is absurd or whose CRC fails returns errBadFrame.
func parseFrame(buf []byte) (typ uint8, payload []byte, n int, err error) {
	if len(buf) < frameHeaderSize {
		return 0, nil, 0, errShortFrame
	}
	size := binary.LittleEndian.Uint32(buf[0:4])
	if size > MaxRecordBytes {
		return 0, nil, 0, fmt.Errorf("%w: length %d exceeds %d", errBadFrame, size, MaxRecordBytes)
	}
	want := binary.LittleEndian.Uint32(buf[4:8])
	typ = buf[8]
	end := frameHeaderSize + int(size)
	if len(buf) < end {
		return 0, nil, 0, errShortFrame
	}
	payload = buf[frameHeaderSize:end]
	if frameCRC(typ, payload) != want {
		return 0, nil, 0, fmt.Errorf("%w: CRC mismatch", errBadFrame)
	}
	return typ, payload, end, nil
}

// EncodeKV renders the (key, value) payload convention layered on WAL
// records by the server and the plan journal: a 16-bit key length, the
// key, then the value. Log.AppendBatch renders it straight into the frame.
func EncodeKV(key string, value []byte) []byte {
	return appendKV(make([]byte, 0, 2+len(key)+len(value)), key, value)
}

// appendKV renders a (key, value) payload onto dst, the value's parts back
// to back. A key past 16 bits of length is cut to fit.
func appendKV(dst []byte, key string, value ...[]byte) []byte {
	if len(key) > 0xffff {
		key = key[:0xffff]
	}
	dst = append(dst, byte(len(key)), byte(len(key)>>8))
	dst = append(dst, key...)
	for _, v := range value {
		dst = append(dst, v...)
	}
	return dst
}

// DecodeKV splits a payload written by EncodeKV. The value aliases the
// input.
func DecodeKV(payload []byte) (key string, value []byte, err error) {
	if len(payload) < 2 {
		return "", nil, fmt.Errorf("store: kv payload too short (%d bytes)", len(payload))
	}
	n := int(payload[0]) | int(payload[1])<<8
	if len(payload) < 2+n {
		return "", nil, fmt.Errorf("store: kv key length %d exceeds payload", n)
	}
	return string(payload[2 : 2+n]), payload[2+n:], nil
}
