package fabric

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"centralium/internal/bgp"
	"centralium/internal/topo"
)

// TestSessionIDNaming: the frame renders session IDs as they always were
// rendered, and finds a session by the link index its ID begins with —
// refusing anything that is not the ID of that link.
func TestSessionIDNaming(t *testing.T) {
	l := topo.Link{A: "fsw.pod0.1", B: "ssw.pl0.2"}
	for _, li := range []int{0, 5, 12, 999, 1000, 9999, 10000, 123456} {
		if got, want := string(appendSessionID(nil, li, l)), fmt.Sprintf("s%04d:%s--%s", li, l.A, l.B); got != want {
			t.Errorf("link %d: rendered %q, want %q", li, got, want)
		}
	}

	n := New(lineTopo(), Options{Seed: 1})
	for li, id := range n.frame.ids {
		if got := n.frame.link(id); got != li {
			t.Errorf("link(%q) = %d, want %d", id, got, li)
		}
		if n.session(id) != &n.sess[li] {
			t.Errorf("session(%q) is not link %d's", id, li)
		}
	}
	for _, id := range []bgp.SessionID{"", "s", "s:", "s0000", "x0000:origin--mid", "s0000:origin--leaf",
		"s0002:origin--mid", "s99999999999999999999:origin--mid", "s-1:origin--mid", "s0000:origin--mid "} {
		if li := n.frame.link(id); li >= 0 || n.session(id) != nil {
			t.Errorf("link(%q) = %d, want none", id, li)
		}
	}
	if n.node("mid") != &n.nodes[1] || n.node("nowhere") != nil {
		t.Error("node lookup by binary search over the frame's devices is wrong")
	}
}

// TestRestoreReusesStateStrings: a frame derived for a restore names its
// sessions with the strings the state already holds, a restored network's
// next full export lists the state's own FIFO key strings, and a state whose
// lists are out of the frame's order still restores, through the lookups, to
// the same network.
func TestRestoreReusesStateStrings(t *testing.T) {
	st, err := midConvergence(t, 3).ExportState()
	if err != nil {
		t.Fatal(err)
	}
	f := newFrame(st.Topo, st)
	for li, id := range f.ids {
		if unsafe.StringData(string(id)) != unsafe.StringData(st.Sessions[li].ID) {
			t.Fatalf("link %d's session ID %q is a copy of the state's", li, id)
		}
	}
	restored, err := NewFromState(st, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := restored.ExportFull()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.FIFO) == 0 || len(full.FIFO) != len(st.FIFO) {
		t.Fatalf("%d FIFO entries exported, the state has %d", len(full.FIFO), len(st.FIFO))
	}
	for i := range full.FIFO {
		if unsafe.StringData(full.FIFO[i].Key) != unsafe.StringData(st.FIFO[i].Key) {
			t.Fatalf("FIFO key %q is a copy of the state's", full.FIFO[i].Key)
		}
	}

	shuffled := *st
	r := rand.New(rand.NewSource(1))
	shuffled.Sessions = slices.Clone(st.Sessions)
	r.Shuffle(len(shuffled.Sessions), func(i, j int) {
		shuffled.Sessions[i], shuffled.Sessions[j] = shuffled.Sessions[j], shuffled.Sessions[i]
	})
	shuffled.FIFO = slices.Clone(st.FIFO)
	r.Shuffle(len(shuffled.FIFO), func(i, j int) { shuffled.FIFO[i], shuffled.FIFO[j] = shuffled.FIFO[j], shuffled.FIFO[i] })
	shuffled.Nodes = slices.Clone(st.Nodes)
	r.Shuffle(len(shuffled.Nodes), func(i, j int) { shuffled.Nodes[i], shuffled.Nodes[j] = shuffled.Nodes[j], shuffled.Nodes[i] })
	n, err := NewFromState(&shuffled, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := n.ExportFull()
	if err != nil {
		t.Fatal(err)
	}
	again.Topo = st.Topo
	if !reflect.DeepEqual(st, again) {
		t.Fatal("a state with its lists shuffled restores to a different network")
	}
}

// TestFIFOOrderIsKeyOrder: a state lists its FIFO entries by key, and the
// frame walks the slots in session order, each session's ends in device
// order, without sorting keys. That is the same order because no session ID
// is a prefix of another; the walk is checked against the sorted keys on a
// topology with more than 10,000 links, where IDs outgrow four digits and
// session order stops being link order.
func TestFIFOOrderIsKeyOrder(t *testing.T) {
	tp := topo.New()
	const devices = 150
	for i := 0; i < devices; i++ {
		tp.AddDevice(topo.Device{ID: topo.DeviceID(fmt.Sprintf("d%03d", (i*37)%devices)), Layer: topo.LayerFSW})
	}
	devs := tp.Devices()
	for i := range devs {
		for j := i + 1; j < len(devs); j++ {
			a, b := devs[i].ID, devs[j].ID
			if (i+j)%2 == 0 {
				a, b = b, a
			}
			tp.AddLink(a, b, 100)
		}
	}
	f := newFrame(tp, nil)
	if len(f.ids) <= 10000 {
		t.Fatalf("%d links, the test wants more than 10,000", len(f.ids))
	}
	var keys []string
	for _, li := range f.sessOrder {
		for _, dir := range f.dirs(li) {
			keys = append(keys, string(f.ids[li])+">"+string(f.devs[f.ends[li][dir]]))
		}
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("slot %d's key %q does not sort after slot %d's %q", i, keys[i], i-1, keys[i-1])
		}
	}
}
