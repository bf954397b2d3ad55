// Package traffic evaluates forwarding state: it propagates traffic demands
// through the emulated fabric's FIBs as a fluid (fractional) flow and
// reports per-device and per-link loads, deliveries, black-holed volume,
// and volume caught in forwarding loops. The funneling metrics of the
// paper's Figures 2 and 4 and the utilization input to Figure 13 are all
// computed here. A hash-based flow placer is also provided to sanity-check
// that WCMP hashing realizes the fluid weights.
//
// A Propagator numbers its network's devices once, in sorted ID order, and
// walks each demand over dense slices in that order, so every sum runs in
// one order and no result depends on map iteration. It resolves a device's
// next hops for a demand address once per change of that device's FIB
// (fib.Table.Gen): between routing events a sample costs the walk, with no
// prefix lookup and no allocation beyond its Result.
package traffic

import (
	"fmt"
	"net/netip"
	"slices"

	"centralium/internal/bgp"
	"centralium/internal/fabric"
	"centralium/internal/fib"
	"centralium/internal/topo"
)

// Demand is a traffic demand: Volume (arbitrary units, conventionally Gbps)
// injected at Source toward a destination prefix. Forwarding uses
// longest-prefix match on the prefix's representative address, so demands
// toward an aggregate follow more-specific routes where they exist
// (the Figure 14 SEV depends on exactly that).
type Demand struct {
	Source topo.DeviceID
	Prefix netip.Prefix
	Volume float64
}

// LinkKey identifies a directed device-to-device hop.
type LinkKey struct {
	From, To topo.DeviceID
}

// String renders "from->to".
func (k LinkKey) String() string { return fmt.Sprintf("%s->%s", k.From, k.To) }

// Result is the outcome of propagating a demand set. It owns its load
// slices; a caller may keep it across later runs of the same Propagator.
type Result struct {
	// Delivered is the volume that reached a device originating the prefix.
	Delivered float64
	// Blackholed is the volume that arrived at a device with no FIB entry.
	Blackholed float64
	// Looped is the volume still circulating after MaxHops (a forwarding
	// loop).
	Looped float64
	// Injected is the total demand volume.
	Injected float64

	ix    *index
	load  []float64 // per device, in index order
	links []float64 // per directed device pair, in index order
}

// Load is the volume a device processed (received or injected); 0 for a
// device the result does not know.
func (r *Result) Load(dev topo.DeviceID) float64 {
	if r.ix == nil {
		return 0
	}
	if i, ok := r.ix.pos[dev]; ok {
		return r.load[i]
	}
	return 0
}

// LinkLoad renders the directed volume per device pair that carried any.
func (r *Result) LinkLoad() map[LinkKey]float64 {
	out := make(map[LinkKey]float64)
	for i, v := range r.links {
		if v != 0 {
			out[r.ix.links[i]] = v
		}
	}
	return out
}

// epsilon below which residual volume is considered zero.
const epsilon = 1e-9

// Propagator pushes demands through a network's FIBs. It keeps a dense
// index of the network's devices, per-run scratch and a cache of resolved
// next hops between runs, so it is not safe for concurrent use: one
// Propagator per network, used from one goroutine at a time.
type Propagator struct {
	Net *fabric.Network
	// MaxHops bounds propagation; volume still moving afterwards counts as
	// looped. Zero gets 4x the device count (far above any real diameter).
	MaxHops int

	net    *fabric.Network // the network ix and tables describe
	ix     *index
	tables []*fib.Table // each device's FIB, in index order
	// hops caches each device's resolved next hops per demand address.
	hops map[netip.Addr][]resolved

	// Run scratch: the frontier and the next one by device index, the
	// sorted indices each holds, and membership of the next one. All zero
	// (or empty) between runs.
	cur, next       []float64
	active, reached []int32
	queued          []bool
}

// index numbers a network's devices in sorted DeviceID order — the order
// every per-hop sum runs in, so results do not depend on map iteration —
// and the directed device pairs its links join. It is immutable once
// built; results share it.
type index struct {
	ids    []topo.DeviceID
	pos    map[topo.DeviceID]int32
	links  []LinkKey
	linkOf map[[2]int32]int32
}

// resolved is one device's forwarding decision for one demand address: the
// FIB entry's next hops merged per neighbour, valid while the device's FIB
// generation is gen.
type resolved struct {
	ok    bool
	gen   uint64
	total int
	hops  []hop
}

// hop is a merged next hop: the neighbour's device index (the device itself
// for local delivery), the directed pair toward it (-1 for local delivery)
// and the summed weight of its sessions.
type hop struct {
	peer, link int32
	weight     int
}

// prepare (re)builds the index when Net is new to the propagator.
func (pr *Propagator) prepare() {
	if pr.ix != nil && pr.net == pr.Net {
		return
	}
	n := pr.Net
	devs := n.Topo.Devices()
	ix := &index{
		ids:    make([]topo.DeviceID, len(devs)),
		pos:    make(map[topo.DeviceID]int32, len(devs)),
		links:  make([]LinkKey, 0, 2*n.Topo.NumLinks()),
		linkOf: make(map[[2]int32]int32, 2*n.Topo.NumLinks()),
	}
	pr.tables = make([]*fib.Table, len(devs))
	for i, d := range devs {
		ix.ids[i] = d.ID
		ix.pos[d.ID] = int32(i)
		pr.tables[i] = n.Speaker(d.ID).FIB()
	}
	for _, l := range n.Topo.Links() {
		a, b := ix.pos[l.A], ix.pos[l.B]
		for _, k := range [][2]int32{{a, b}, {b, a}} {
			if _, ok := ix.linkOf[k]; !ok {
				ix.linkOf[k] = int32(len(ix.links))
				ix.links = append(ix.links, LinkKey{From: ix.ids[k[0]], To: ix.ids[k[1]]})
			}
		}
	}
	pr.net, pr.ix = n, ix
	pr.hops = make(map[netip.Addr][]resolved)
	pr.cur = make([]float64, len(devs))
	pr.next = make([]float64, len(devs))
	pr.queued = make([]bool, len(devs))
}

// resolve brings device i's entry for addr up to date with its FIB. A
// group's hops are never rewritten and a network's sessions — one per
// topology link, so every hop's pair is in linkOf — never change after it
// is built, so an entry is exact while the FIB generation holds.
func (pr *Propagator) resolve(e *resolved, i int32, addr netip.Addr) {
	tbl := pr.tables[i]
	if e.ok && e.gen == tbl.Gen() {
		return
	}
	e.ok, e.gen, e.total, e.hops = true, tbl.Gen(), 0, e.hops[:0]
	dev := pr.ix.ids[i]
next:
	for _, h := range tbl.LookupLPM(addr) {
		peer, link := i, int32(-1)
		if h.ID != bgp.LocalNextHop {
			p, ok := pr.net.SessionPeer(dev, bgp.SessionID(h.ID))
			if !ok {
				continue
			}
			peer = pr.ix.pos[p]
			link = pr.ix.linkOf[[2]int32{i, peer}]
		}
		e.total += h.Weight
		for k := range e.hops {
			if e.hops[k].peer == peer {
				e.hops[k].weight += h.Weight
				continue next
			}
		}
		e.hops = append(e.hops, hop{peer: peer, link: link, weight: h.Weight})
	}
}

// Run propagates all demands and aggregates the result.
func (pr *Propagator) Run(demands []Demand) *Result {
	pr.prepare()
	maxHops := pr.MaxHops
	if maxHops <= 0 {
		maxHops = 4 * len(pr.ix.ids)
		if maxHops < 32 {
			maxHops = 32
		}
	}
	res := &Result{
		ix:    pr.ix,
		load:  make([]float64, len(pr.ix.ids)),
		links: make([]float64, len(pr.ix.links)),
	}
	for _, d := range demands {
		pr.runOne(d, maxHops, res)
	}
	return res
}

// runOne walks one demand hop by hop. Each hop visits the frontier in index
// order, so every accumulator receives its terms in sorted-device order.
func (pr *Propagator) runOne(d Demand, maxHops int, res *Result) {
	res.Injected += d.Volume
	src, ok := pr.ix.pos[d.Source]
	if !ok {
		res.Blackholed += d.Volume
		return
	}
	addr := d.Prefix.Addr()
	entries := pr.hops[addr]
	if entries == nil {
		entries = make([]resolved, len(pr.ix.ids))
		pr.hops[addr] = entries
	}
	cur, next := pr.cur, pr.next
	active, reached := append(pr.active[:0], src), pr.reached[:0]
	cur[src] = d.Volume
	for step := 0; step < maxHops && len(active) > 0; step++ {
		for _, i := range active {
			vol := cur[i]
			cur[i] = 0
			res.load[i] += vol
			e := &entries[i]
			pr.resolve(e, i, addr)
			if e.total <= 0 {
				res.Blackholed += vol
				continue
			}
			for _, h := range e.hops {
				share := vol * float64(h.weight) / float64(e.total)
				if share < epsilon {
					continue
				}
				if h.link < 0 {
					res.Delivered += share // local delivery at the origin
					continue
				}
				res.links[h.link] += share
				if !pr.queued[h.peer] {
					pr.queued[h.peer] = true
					reached = append(reached, h.peer)
				}
				next[h.peer] += share
			}
		}
		slices.Sort(reached)
		for _, j := range reached {
			pr.queued[j] = false
		}
		cur, next = next, cur
		active, reached = reached, active[:0]
	}
	for _, i := range active {
		res.Looped += cur[i]
		cur[i] = 0
	}
	pr.cur, pr.next = cur, next
	pr.active, pr.reached = active[:0], reached[:0]
}

// MaxDeviceShare returns the largest fraction of injected volume processed
// by any single device in the given set — the funneling metric. It returns
// the device and its share; share is 0 for an empty set or no traffic.
func (r *Result) MaxDeviceShare(devices []topo.DeviceID) (topo.DeviceID, float64) {
	if r.Injected <= 0 {
		return "", 0
	}
	var worst topo.DeviceID
	max := 0.0
	for _, dev := range devices {
		if share := r.Load(dev) / r.Injected; share > max || (share == max && (worst == "" || dev < worst)) {
			worst, max = dev, share
		}
	}
	return worst, max
}

// DeliveredFraction is Delivered/Injected (0 when nothing was injected).
func (r *Result) DeliveredFraction() float64 {
	if r.Injected <= 0 {
		return 0
	}
	return r.Delivered / r.Injected
}

// BlackholedFraction is Blackholed/Injected.
func (r *Result) BlackholedFraction() float64 {
	if r.Injected <= 0 {
		return 0
	}
	return r.Blackholed / r.Injected
}

// HasLoop reports whether any measurable volume was still circulating.
func (r *Result) HasLoop() bool { return r.Looped > 1e-6 }

// Utilization returns per-directed-hop utilization given the topology's
// link capacities (parallel links aggregate). Hops without matching
// topology links (e.g. local delivery) are skipped.
func (r *Result) Utilization(t *topo.Topology) map[LinkKey]float64 {
	caps := make(map[LinkKey]float64)
	for _, l := range t.Links() {
		caps[LinkKey{From: l.A, To: l.B}] += l.CapacityGbps
		caps[LinkKey{From: l.B, To: l.A}] += l.CapacityGbps
	}
	out := make(map[LinkKey]float64)
	for k, load := range r.LinkLoad() {
		if c := caps[k]; c > 0 {
			out[k] = load / c
		}
	}
	return out
}

// MaxUtilization returns the highest directed-hop utilization, or 0.
func (r *Result) MaxUtilization(t *topo.Topology) float64 {
	max := 0.0
	for _, u := range r.Utilization(t) {
		if u > max {
			max = u
		}
	}
	return max
}

// UniformDemands builds one equal-volume demand per source device toward
// the prefix — the workload used by the funneling experiments.
func UniformDemands(sources []*topo.Device, p netip.Prefix, perSource float64) []Demand {
	out := make([]Demand, 0, len(sources))
	for _, s := range sources {
		out = append(out, Demand{Source: s.ID, Prefix: p, Volume: perSource})
	}
	return out
}
