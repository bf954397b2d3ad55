package snapshot

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// countEncodes counts the package's encodes until the test ends; callers may
// be concurrent.
func countEncodes(t *testing.T) *atomic.Int32 {
	var n atomic.Int32
	testHook = func(what string) {
		if what == "encode" {
			n.Add(1)
		}
	}
	t.Cleanup(func() { testHook = nil })
	return &n
}

// TestRenderedSharesWhileHeld: a plain snapshot hands every caller the
// rendering some view still holds, keeps none once no view does — a daemon's
// cached base holds no bytes between the campaigns on it — and renders again
// to the full capture's bytes without hashing them again; callers racing on
// a miss wait for one encode.
func TestRenderedSharesWhileHeld(t *testing.T) {
	n := buildRich(t, 42)
	plain, err := Capture(n)
	if err != nil {
		t.Fatal(err)
	}
	encodes := countEncodes(t)

	held, err := plain.Rendered()
	if err != nil {
		t.Fatal(err)
	}
	again, err := plain.Rendered()
	if err != nil {
		t.Fatal(err)
	}
	canon, err := plain.EncodeCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if &again.enc.canon[0] != &held.enc.canon[0] || &canon[0] != &held.enc.canon[0] {
		t.Fatal("views taken while one is held must share its rendering")
	}
	if got := encodes.Load(); got != 1 {
		t.Fatalf("%d encodes for three renderings while one was held, want 1", got)
	}
	fp := plain.fp
	if fp != held.enc.fp {
		t.Fatalf("the snapshot keeps fingerprint %.12s, its rendering has %.12s", fp, held.enc.fp)
	}

	held, again, canon = nil, nil, nil
	runtime.GC()
	if plain.last.Value() != nil {
		t.Fatal("a rendering no view holds survived a collection: the cached base would keep its bytes")
	}

	encodes.Store(0)
	re, err := plain.Rendered()
	if err != nil {
		t.Fatal(err)
	}
	if got := encodes.Load(); got != 1 {
		t.Fatalf("%d encodes to render again, want 1", got)
	}
	full, err := CaptureFull(n)
	if err != nil {
		t.Fatal(err)
	}
	wantCanon, err := full.EncodeCanonical()
	if err != nil {
		t.Fatal(err)
	}
	wantFP, err := full.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.enc.canon, wantCanon) || re.enc.fp != wantFP {
		t.Fatal("a re-render differs from the full capture's canonical encoding or fingerprint")
	}
	if unsafe.StringData(re.enc.fp) != unsafe.StringData(fp) {
		t.Fatal("a re-render hashed its bytes again: the kept fingerprint must serve it")
	}

	re = nil
	runtime.GC()
	encodes.Store(0)
	const racers = 8
	views := make([]*Snapshot, racers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, err := plain.Rendered()
			if err != nil {
				t.Error(err)
				return
			}
			views[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := encodes.Load(); got != 1 {
		t.Fatalf("%d goroutines rendering at once made %d encodes, want 1", racers, got)
	}
	for i, v := range views {
		if v.enc != views[0].enc || !bytes.Equal(v.enc.canon, wantCanon) {
			t.Fatalf("goroutine %d got a rendering of its own or other bytes", i)
		}
	}
}
