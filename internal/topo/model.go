// Package topo models Meta-style data center topologies: the five switch
// layers of the paper's Figure 1 (RSW, FSW, SSW, FADU, FAUU) plus the
// backbone (EB) and the legacy layers (FAv1, Edge, FA, DMAG) that appear in
// the migration scenarios of Sections 3 and 5.
//
// A Topology is a plain undirected multigraph of Devices and Links. Logical
// groupings (pod, plane, grid) are attributes on the device, as in
// production, rather than first-class containers. Builders for the paper's
// concrete scenario topologies live in builders.go.
package topo

import (
	"fmt"
	"slices"
	"sort"
)

// Layer identifies a horizontal switch layer. Order matters: it encodes
// vertical position (distance from the servers) and is used by the
// controller's deployment sequencing (Section 5.3.2).
type Layer int

// The layers of the production topology (Figure 1) followed by the legacy
// layers used in the scenario topologies.
const (
	LayerRSW  Layer = iota // rack switch
	LayerFSW               // fabric switch
	LayerSSW               // spine switch
	LayerFADU              // fabric aggregate downlink unit
	LayerFAUU              // fabric aggregate uplink unit
	LayerEB                // backbone device

	// Legacy layers for the Figure 2 expansion scenario and the Figure 10
	// sequencing scenario.
	LayerFAv1 // old fabric aggregator (replaced in scenario 1)
	LayerEdge // old edge layer (replaced in scenario 1)
	LayerFAv2 // new, bigger fabric aggregator (introduced in scenario 1)
	LayerFA   // generic fabric aggregator (Figure 10)
	LayerDMAG // disaggregation/metro aggregation layer (Figure 10)

	// Scenario 3 (Figure 5) layers.
	LayerUU // uplink unit
	LayerDU // downlink unit

	// LayerGeneric is for ad-hoc test topologies (e.g. Figure 9's R1..R6).
	LayerGeneric
)

var layerNames = map[Layer]string{
	LayerRSW:     "RSW",
	LayerFSW:     "FSW",
	LayerSSW:     "SSW",
	LayerFADU:    "FADU",
	LayerFAUU:    "FAUU",
	LayerEB:      "EB",
	LayerFAv1:    "FAv1",
	LayerEdge:    "Edge",
	LayerFAv2:    "FAv2",
	LayerFA:      "FA",
	LayerDMAG:    "DMAG",
	LayerUU:      "UU",
	LayerDU:      "DU",
	LayerGeneric: "R",
}

// String returns the conventional short name of the layer (e.g. "SSW").
func (l Layer) String() string {
	if s, ok := layerNames[l]; ok {
		return s
	}
	return fmt.Sprintf("Layer(%d)", int(l))
}

// Altitude returns the layer's vertical position: 0 at the rack layer,
// increasing toward the backbone. Legacy layers are mapped onto the
// equivalent production altitude. Deployment sequencing deploys RPAs in
// increasing altitude order when routes originate above (Section 5.3.2).
func (l Layer) Altitude() int {
	switch l {
	case LayerRSW:
		return 0
	case LayerFSW:
		return 1
	case LayerSSW:
		return 2
	case LayerFADU, LayerFAv1, LayerFA, LayerDU:
		return 3
	case LayerFAUU, LayerEdge, LayerFAv2, LayerDMAG, LayerUU:
		return 4
	case LayerEB:
		return 5
	default:
		return 2
	}
}

// DeviceID names a device, e.g. "ssw.p2.3" (plane 2, index 3).
type DeviceID string

// Device is one switch or router in the topology.
type Device struct {
	ID    DeviceID
	Layer Layer
	ASN   uint32 // every device is its own autonomous system (eBGP everywhere)

	// Logical groupings; -1 when not applicable for the layer.
	Pod   int
	Plane int
	Grid  int
	Index int // position within its group
}

// Link is one undirected adjacency carrying one BGP session. Parallel links
// between the same pair of devices are allowed and carry independent
// sessions (Figure 5 uses two sessions per UU-DU pair).
type Link struct {
	A, B         DeviceID
	CapacityGbps float64
}

// Topology is an undirected multigraph of devices. The zero value is not
// usable; construct with New.
type Topology struct {
	devices map[DeviceID]*Device
	links   []Link
	adj     map[DeviceID][]int // device -> indices into links

	nextASN uint32
}

// asnBase is the first ASN handed out. Private 4-byte range.
const asnBase uint32 = 4200000000

// New returns an empty topology.
func New() *Topology {
	return &Topology{
		devices: make(map[DeviceID]*Device),
		adj:     make(map[DeviceID][]int),
		nextASN: asnBase,
	}
}

// Clone returns an independent deep copy: mutating either topology (link
// removals, decommissions) never touches the other. It is the cheap path
// for fanning one imported topology out to many forked networks, where
// re-parsing the JSON export per fork would dominate the restore cost.
func (t *Topology) Clone() *Topology {
	c := &Topology{
		devices: make(map[DeviceID]*Device, len(t.devices)),
		links:   append([]Link(nil), t.links...),
		adj:     make(map[DeviceID][]int, len(t.adj)),
		nextASN: t.nextASN,
	}
	for id, d := range t.devices {
		cd := *d
		c.devices[id] = &cd
	}
	for id, idx := range t.adj {
		c.adj[id] = append([]int(nil), idx...)
	}
	return c
}

// Equal reports whether two topologies are indistinguishable: the same
// devices field for field, the same links in the same order, and the same
// ASN allocator position. Equal topologies export the same JSON, and a clone
// of either stands in for the other. It allocates nothing.
func (t *Topology) Equal(o *Topology) bool {
	if t == o {
		return true
	}
	if len(t.devices) != len(o.devices) || t.nextASN != o.nextASN {
		return false
	}
	for id, d := range t.devices {
		if od := o.devices[id]; od == nil || *od != *d {
			return false
		}
	}
	return slices.Equal(t.links, o.links)
}

// AddDevice inserts a device, assigning it the next free ASN. It panics on a
// duplicate ID: topologies are built by code, so a duplicate is a programming
// error, not an input error.
func (t *Topology) AddDevice(d Device) *Device {
	if _, ok := t.devices[d.ID]; ok {
		panic(fmt.Sprintf("topo: duplicate device %q", d.ID))
	}
	if d.ASN == 0 {
		d.ASN = t.nextASN
		t.nextASN++
	}
	dev := d
	t.devices[d.ID] = &dev
	return &dev
}

// AddLink inserts an undirected link between two existing devices and
// returns its index. It panics if either endpoint is unknown.
func (t *Topology) AddLink(a, b DeviceID, capacityGbps float64) int {
	if _, ok := t.devices[a]; !ok {
		panic(fmt.Sprintf("topo: link endpoint %q not found", a))
	}
	if _, ok := t.devices[b]; !ok {
		panic(fmt.Sprintf("topo: link endpoint %q not found", b))
	}
	idx := len(t.links)
	t.links = append(t.links, Link{A: a, B: b, CapacityGbps: capacityGbps})
	t.adj[a] = append(t.adj[a], idx)
	t.adj[b] = append(t.adj[b], idx)
	return idx
}

// Device returns the device with the given ID, or nil.
func (t *Topology) Device(id DeviceID) *Device { return t.devices[id] }

// NumDevices reports the number of devices.
func (t *Topology) NumDevices() int { return len(t.devices) }

// NumLinks reports the number of links.
func (t *Topology) NumLinks() int { return len(t.links) }

// Links returns all links. The slice is owned by the topology.
func (t *Topology) Links() []Link { return t.links }

// Link returns the link at index i.
func (t *Topology) Link(i int) Link { return t.links[i] }

// Devices returns all devices sorted by ID for deterministic iteration.
func (t *Topology) Devices() []*Device {
	out := make([]*Device, 0, len(t.devices))
	for _, d := range t.devices {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByLayer returns the devices of one layer sorted by ID.
func (t *Topology) ByLayer(l Layer) []*Device {
	var out []*Device
	for _, d := range t.devices {
		if d.Layer == l {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Layers returns the distinct layers present, sorted by altitude then value.
func (t *Topology) Layers() []Layer {
	seen := make(map[Layer]bool)
	for _, d := range t.devices {
		seen[d.Layer] = true
	}
	out := make([]Layer, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := out[i].Altitude(), out[j].Altitude()
		if ai != aj {
			return ai < aj
		}
		return out[i] < out[j]
	})
	return out
}

// Neighbors returns the IDs adjacent to id, with multiplicity for parallel
// links, sorted for determinism.
func (t *Topology) Neighbors(id DeviceID) []DeviceID {
	var out []DeviceID
	for _, li := range t.adj[id] {
		l := t.links[li]
		other := l.A
		if other == id {
			other = l.B
		}
		out = append(out, other)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LinksOf returns the indices of links incident to id.
func (t *Topology) LinksOf(id DeviceID) []int { return t.adj[id] }

// RemoveLinks removes all links between a and b. It returns the number
// removed. Device entries are untouched. Indices of remaining links change;
// callers holding indices must re-resolve them.
func (t *Topology) RemoveLinks(a, b DeviceID) int {
	removed := 0
	kept := t.links[:0]
	for _, l := range t.links {
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			removed++
			continue
		}
		kept = append(kept, l)
	}
	t.links = kept
	t.reindex()
	return removed
}

// RemoveDevice removes a device and all incident links.
func (t *Topology) RemoveDevice(id DeviceID) {
	if _, ok := t.devices[id]; !ok {
		return
	}
	delete(t.devices, id)
	kept := t.links[:0]
	for _, l := range t.links {
		if l.A == id || l.B == id {
			continue
		}
		kept = append(kept, l)
	}
	t.links = kept
	t.reindex()
}

func (t *Topology) reindex() {
	t.adj = make(map[DeviceID][]int, len(t.devices))
	for i, l := range t.links {
		t.adj[l.A] = append(t.adj[l.A], i)
		t.adj[l.B] = append(t.adj[l.B], i)
	}
}

// Validate checks structural invariants: link endpoints exist, capacities
// are positive, ASNs are unique. It returns the first problem found.
func (t *Topology) Validate() error {
	asns := make(map[uint32]DeviceID, len(t.devices))
	for id, d := range t.devices {
		if prev, dup := asns[d.ASN]; dup {
			return fmt.Errorf("topo: ASN %d assigned to both %q and %q", d.ASN, prev, id)
		}
		asns[d.ASN] = id
	}
	for i, l := range t.links {
		if _, ok := t.devices[l.A]; !ok {
			return fmt.Errorf("topo: link %d references missing device %q", i, l.A)
		}
		if _, ok := t.devices[l.B]; !ok {
			return fmt.Errorf("topo: link %d references missing device %q", i, l.B)
		}
		if l.CapacityGbps <= 0 {
			return fmt.Errorf("topo: link %d (%s-%s) has non-positive capacity", i, l.A, l.B)
		}
		if l.A == l.B {
			return fmt.Errorf("topo: link %d is a self-loop on %q", i, l.A)
		}
	}
	return nil
}
