package fabric

import (
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"

	"centralium/internal/bgp"
	"centralium/internal/telemetry"
	"centralium/internal/topo"
)

// Tests for the engine data layout: the slab queue and per-session FIFO
// slots behind the unchanged checkpoint format, and the immutability
// contract on UPDATE contents (DESIGN.md, "Engine data layout and the
// immutability contract").

// midConvergence returns a network stopped part-way through its initial
// convergence, with deliveries queued.
func midConvergence(t *testing.T, seed int64) *Network {
	t.Helper()
	n := New(topo.BuildFabric(topo.FabricParams{}), Options{Seed: seed})
	for _, eb := range n.Topo.ByLayer(topo.LayerEB) {
		n.OriginateAt(eb.ID, netip.MustParsePrefix("0.0.0.0/0"), []string{"BACKBONE_DEFAULT_ROUTE"}, 0)
	}
	for _, rsw := range n.Topo.ByLayer(topo.LayerRSW) {
		n.OriginateAt(rsw.ID, netip.MustParsePrefix(fmt.Sprintf("192.168.%d.0/24", rsw.Index)), nil, 0)
	}
	if _, done := n.Step(400); done {
		t.Fatal("fabric converged within 400 events; no mid-convergence cut to test")
	}
	return n
}

// TestMidConvergenceStateRoundTrip checkpoints with a non-empty queue and
// FIFO times in both directions of a session, restores, and requires the
// restored network to export the identical state and to finish convergence
// exactly as the original does.
func TestMidConvergenceStateRoundTrip(t *testing.T) {
	n := midConvergence(t, 5)
	st, err := n.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Queue) == 0 {
		t.Fatal("no queued deliveries at the cut")
	}
	toward := map[string]int{} // session -> distinct receivers with a FIFO time
	for _, f := range st.FIFO {
		toward[f.Key[:strings.LastIndexByte(f.Key, '>')]]++
	}
	both := false
	for _, c := range toward {
		both = both || c == 2
	}
	if !both {
		t.Fatal("no session has FIFO times in both directions at the cut")
	}
	if !slices.IsSortedFunc(st.FIFO, func(a, b FIFOState) int { return strings.Compare(a.Key, b.Key) }) {
		t.Error("FIFO entries not sorted by key")
	}

	r, err := NewFromState(st, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := r.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, again) {
		t.Fatal("restored network exports a different state")
	}
	n.Converge()
	r.Converge()
	if n.Now() != r.Now() || n.EventsProcessed() != r.EventsProcessed() {
		t.Errorf("continuation diverged: original t=%d events=%d, restored t=%d events=%d",
			n.Now(), n.EventsProcessed(), r.Now(), r.EventsProcessed())
	}
	if a, b := fleetDigest(n), fleetDigest(r); a != b {
		t.Errorf("fleet FIB diverged after continuation:\n%s", firstDiff(a, b))
	}
	if e := n.eng; e.segs != nil || e.heap != nil || e.used != 0 || e.free != none || e.pending != 0 {
		t.Errorf("drained engine still holds its queue: %d segments, %d heap keys, %d slots handed out, free list at %d, %d pending",
			len(e.segs), len(e.heap), e.used, e.free, e.pending)
	}
}

// TestRestoreRejectsMalformedState: a FIFO key that names no session end,
// or a queued delivery addressed to a device off its session, is an error
// from NewFromState — never a panic, never silently dropped.
func TestRestoreRejectsMalformedState(t *testing.T) {
	n := midConvergence(t, 5)
	good, err := n.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	sess := good.Sessions[0].ID
	for _, key := range []string{"", ">", "no-separator", "nope>" + good.Queue[0].To, sess + ">", sess + ">nobody", ">" + sess} {
		st := *good
		st.FIFO = append(slices.Clone(good.FIFO), FIFOState{Key: key, At: 1})
		if _, err := NewFromState(&st, RestoreOptions{}); err == nil {
			t.Errorf("FIFO key %q restored without error", key)
		}
	}
	st := *good
	st.Queue = slices.Clone(good.Queue)
	st.Queue[0].To = "nobody"
	if _, err := NewFromState(&st, RestoreOptions{}); err == nil {
		t.Error("queued delivery to a device off its session restored without error")
	}
	// The unmodified state still restores: the rejections above are the
	// edits', not the fixture's.
	if _, err := NewFromState(good, RestoreOptions{}); err != nil {
		t.Fatalf("good state: %v", err)
	}
}

// retained is one UPDATE content a consumer held on to, with the deep copy
// taken when it was first seen.
type retained struct {
	path, pathCopy   []uint32
	comms, commsCopy []string
}

type retainer struct{ seen []retained }

func (r *retainer) keep(path []uint32, comms []string) {
	r.seen = append(r.seen, retained{path, slices.Clone(path), comms, slices.Clone(comms)})
}

func (r *retainer) Emit(ev telemetry.Event) {
	if ev.Kind == telemetry.KindAdjRIBIn && !ev.Withdraw {
		r.keep(ev.ASPath, nil)
	}
}

// TestUpdatesAreImmutable exercises the immutability contract instead of
// just stating it: the differential scenario runs with a tap and a
// perturber that retain the slices of every UPDATE they are shown — as the
// contract allows them to — and none may have changed by the end. (AS paths and community lists are shared between the
// sender's Adj-RIB-Out, the queue, and every receiver's Adj-RIB-In; a
// single in-place write anywhere would show here.)
func TestUpdatesAreImmutable(t *testing.T) {
	n := New(topo.BuildFabric(topo.FabricParams{}), Options{Seed: 3})
	tapped, perturbed := &retainer{}, &retainer{}
	n.AddTap(tapped)
	n.SetPerturber(func(_ bgp.SessionID, _, _ topo.DeviceID, u bgp.Update) Perturbation {
		if !u.Withdraw {
			perturbed.keep(u.ASPath, u.Communities)
		}
		return Perturbation{}
	})
	diffScenario(n)
	for name, r := range map[string]*retainer{"tap": tapped, "perturber": perturbed} {
		if len(r.seen) == 0 {
			t.Fatalf("%s saw no UPDATEs", name)
		}
		for i, u := range r.seen {
			if !slices.Equal(u.path, u.pathCopy) || !slices.Equal(u.comms, u.commsCopy) {
				t.Fatalf("UPDATE %d retained by the %s changed: path %v (was %v), communities %v (was %v)",
					i, name, u.path, u.pathCopy, u.comms, u.commsCopy)
			}
		}
	}
}
