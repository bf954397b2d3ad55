package snapshot

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzSnapshotRoundTrip holds four lines: (1) any bytes that decode must
// re-encode to a snapshot that decodes back deep-equal (the codec is a
// bijection on its own output), (2) no input — truncated, bit-flipped,
// or adversarial — may panic or allocate unboundedly; malformed input gets
// a clean error, and (3) whatever restores shares the decoded state only
// read-only: running the fork leaves the snapshot's encoding alone, however
// malformed the columns it was handed, and (4) a fork captured against the
// decoded snapshot — untouched, and again after running — is byte for byte
// its full capture: a record the restore had to rebuild is not repeated.
func FuzzSnapshotRoundTrip(f *testing.F) {
	for _, seed := range []int64{1, 42} {
		n := buildRich(f, seed)
		churn(n)
		snap, err := Capture(n)
		if err != nil {
			f.Fatal(err)
		}
		snap.Meta["fuzz"] = "seed"
		enc, err := snap.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		// A state captured against its parent: most records copied, not encoded.
		parent, err := snap.Rendered()
		if err != nil {
			f.Fatal(err)
		}
		fork, err := parent.Restore()
		if err != nil {
			f.Fatal(err)
		}
		fork.Step(10)
		child, err := CaptureFrom(parent, fork)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(child.enc.canon)
	}
	f.Add([]byte{})
	f.Add([]byte("CSNP"))
	f.Add([]byte("CSNP\x01"))
	f.Add([]byte("not a snapshot at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(data)
		if err != nil {
			return // clean rejection is always acceptable
		}
		enc, err := snap.Encode()
		if err != nil {
			t.Fatalf("decoded snapshot failed to encode: %v", err)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		if !reflect.DeepEqual(snap.state, again.state) {
			t.Fatal("decode(encode(decode(data))) != decode(data)")
		}
		if !reflect.DeepEqual(snap.Meta, again.Meta) {
			t.Fatal("meta not stable across re-encode")
		}
		enc2, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("encode not deterministic on decoded state")
		}
		if n, err := snap.Restore(); err == nil {
			n.Step(300)
			if enc3, err := snap.Encode(); err != nil || !bytes.Equal(enc, enc3) {
				t.Fatalf("running a restored fork changed the snapshot (encode error %v)", err)
			}
		}
		live, err := DecodeRendered(data)
		if err != nil {
			t.Fatalf("DecodeRendered rejects what Decode accepts: %v", err)
		}
		if n, err := live.Restore(); err == nil {
			for _, events := range []int64{0, 300} {
				n.Step(events)
				child, err := CaptureFrom(live, n)
				if err != nil {
					return // a state the format cannot carry: the full encode fails the same way
				}
				if err := diffFromFull(t, child, n); err != nil {
					t.Fatalf("fork of the decoded snapshot after %d events: %v", events, err)
				}
				live = child
			}
		}
	})
}
