package topo_test

import (
	"testing"

	"centralium/internal/fabric"
	"centralium/internal/snapshot"
	"centralium/internal/topo"
)

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestTopologyFrozen: a network freezes the topology it stands on, and a
// snapshot decoder the one it imports, so every fork of either can share it:
// AddDevice, AddLink and ActivateFAv2 panic on it and leave it as it was. A
// Clone is the editable copy, and editing it leaves the original alone.
func TestTopologyFrozen(t *testing.T) {
	exp := topo.BuildExpansion(topo.ExpansionParams{})
	exp.ActivateFAv2(0) // editable until a network stands on it
	n := fabric.New(exp.Topology, fabric.Options{Seed: 1})
	n.Converge()
	if n.Topo != exp.Topology {
		t.Fatal("fabric.New does not stand on the topology it was given")
	}
	snap, err := snapshot.Capture(n)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := snapshot.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := dec.Topology()
	if err != nil {
		t.Fatal(err)
	}

	type edit struct {
		name string
		run  func()
	}
	for _, c := range []struct {
		name string
		tp   *topo.Topology
	}{{"fabric.New", n.Topo}, {"decoded", decoded}} {
		edits := func(tp *topo.Topology) []edit {
			e := &topo.Expansion{Topology: tp, Params: exp.Params}
			return []edit{
				{"AddDevice", func() { tp.AddDevice(topo.Device{ID: "new", Layer: topo.LayerGeneric}) }},
				{"AddLink", func() { tp.AddLink(topo.SSWID(0, 0), topo.EBID(0), 100) }},
				{"ActivateFAv2", func() { e.ActivateFAv2(1) }},
			}
		}
		devices, links := c.tp.NumDevices(), c.tp.NumLinks()
		for _, edit := range edits(c.tp) {
			if !panics(edit.run) {
				t.Errorf("%s: %s on a frozen topology did not panic", c.name, edit.name)
			}
		}
		if c.tp.NumDevices() != devices || c.tp.NumLinks() != links {
			t.Fatalf("%s: a refused edit changed the topology: %d devices, %d links, want %d, %d",
				c.name, c.tp.NumDevices(), c.tp.NumLinks(), devices, links)
		}

		clone := c.tp.Clone()
		for _, edit := range edits(clone) {
			if panics(edit.run) {
				t.Errorf("%s: %s on a clone panicked", c.name, edit.name)
			}
		}
		if err := clone.Validate(); err != nil {
			t.Fatalf("%s: edited clone: %v", c.name, err)
		}
		if clone.NumDevices() != devices+1 || clone.NumLinks() <= links+1 {
			t.Fatalf("%s: the clone has %d devices and %d links after the edits, want %d and more than %d",
				c.name, clone.NumDevices(), clone.NumLinks(), devices+1, links+1)
		}
		if c.tp.NumDevices() != devices || c.tp.NumLinks() != links || c.tp.Device("new") != nil {
			t.Fatalf("%s: editing the clone changed the original", c.name)
		}
	}
}
