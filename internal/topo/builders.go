package topo

import "fmt"

// FabricParams sizes a production-style fabric (Figure 1). Zero fields get
// small defaults suitable for tests; Scale* helpers produce paper-scale
// ratios.
type FabricParams struct {
	Pods         int // fabric pods
	RSWsPerPod   int
	FSWsPerPod   int
	Planes       int // spine planes; FSW i in each pod connects to plane i
	SSWsPerPlane int
	Grids        int // FA grids
	FADUsPerGrid int
	FAUUsPerGrid int
	EBs          int // backbone devices

	RackLinkGbps   float64 // RSW-FSW
	FabricLinkGbps float64 // FSW-SSW
	SpineLinkGbps  float64 // SSW-FADU
	FALinkGbps     float64 // FADU-FAUU
	EdgeLinkGbps   float64 // FAUU-EB
}

func (p *FabricParams) setDefaults() {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	deff := func(v *float64, d float64) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&p.Pods, 2)
	def(&p.RSWsPerPod, 4)
	def(&p.FSWsPerPod, 4)
	def(&p.Planes, 4)
	def(&p.SSWsPerPlane, 2)
	def(&p.Grids, 2)
	def(&p.FADUsPerGrid, 2)
	def(&p.FAUUsPerGrid, 2)
	def(&p.EBs, 2)
	deff(&p.RackLinkGbps, 100)
	deff(&p.FabricLinkGbps, 200)
	deff(&p.SpineLinkGbps, 400)
	deff(&p.FALinkGbps, 400)
	deff(&p.EdgeLinkGbps, 400)
}

// BuildFabric constructs a five-layer fabric plus backbone per Figure 1:
//
//   - each pod holds RSWs and FSWs; every RSW connects to every FSW in its pod
//   - FSW i of every pod connects to all SSWs of plane i (requires
//     FSWsPerPod == Planes)
//   - every SSW connects to one FADU in every grid — SSW j to FADU (j mod
//     FADUsPerGrid), the numbering-based wiring the decommission scenario
//     (Figure 4) relies on
//   - within a grid, every FADU connects to every FAUU
//   - every FAUU connects to every EB
func BuildFabric(p FabricParams) *Topology {
	p.setDefaults()
	if p.FSWsPerPod != p.Planes {
		panic(fmt.Sprintf("topo: FSWsPerPod (%d) must equal Planes (%d)", p.FSWsPerPod, p.Planes))
	}
	t := New()

	for pod := 0; pod < p.Pods; pod++ {
		for i := 0; i < p.RSWsPerPod; i++ {
			t.AddDevice(Device{ID: RSWID(pod, i), Layer: LayerRSW, Pod: pod, Plane: -1, Grid: -1, Index: i})
		}
		for i := 0; i < p.FSWsPerPod; i++ {
			t.AddDevice(Device{ID: FSWID(pod, i), Layer: LayerFSW, Pod: pod, Plane: i, Grid: -1, Index: i})
		}
	}
	for plane := 0; plane < p.Planes; plane++ {
		for i := 0; i < p.SSWsPerPlane; i++ {
			t.AddDevice(Device{ID: SSWID(plane, i), Layer: LayerSSW, Pod: -1, Plane: plane, Grid: -1, Index: i})
		}
	}
	for grid := 0; grid < p.Grids; grid++ {
		for i := 0; i < p.FADUsPerGrid; i++ {
			t.AddDevice(Device{ID: FADUID(grid, i), Layer: LayerFADU, Pod: -1, Plane: -1, Grid: grid, Index: i})
		}
		for i := 0; i < p.FAUUsPerGrid; i++ {
			t.AddDevice(Device{ID: FAUUID(grid, i), Layer: LayerFAUU, Pod: -1, Plane: -1, Grid: grid, Index: i})
		}
	}
	for i := 0; i < p.EBs; i++ {
		t.AddDevice(Device{ID: EBID(i), Layer: LayerEB, Pod: -1, Plane: -1, Grid: -1, Index: i})
	}

	// RSW <-> FSW within a pod (full mesh).
	for pod := 0; pod < p.Pods; pod++ {
		for r := 0; r < p.RSWsPerPod; r++ {
			for f := 0; f < p.FSWsPerPod; f++ {
				t.AddLink(RSWID(pod, r), FSWID(pod, f), p.RackLinkGbps)
			}
		}
	}
	// FSW i (any pod) <-> all SSWs of plane i.
	for pod := 0; pod < p.Pods; pod++ {
		for f := 0; f < p.FSWsPerPod; f++ {
			for s := 0; s < p.SSWsPerPlane; s++ {
				t.AddLink(FSWID(pod, f), SSWID(f, s), p.FabricLinkGbps)
			}
		}
	}
	// SSW j <-> FADU (j mod FADUsPerGrid) in every grid.
	for plane := 0; plane < p.Planes; plane++ {
		for s := 0; s < p.SSWsPerPlane; s++ {
			for grid := 0; grid < p.Grids; grid++ {
				t.AddLink(SSWID(plane, s), FADUID(grid, s%p.FADUsPerGrid), p.SpineLinkGbps)
			}
		}
	}
	// FADU <-> FAUU within a grid (full mesh).
	for grid := 0; grid < p.Grids; grid++ {
		for d := 0; d < p.FADUsPerGrid; d++ {
			for u := 0; u < p.FAUUsPerGrid; u++ {
				t.AddLink(FADUID(grid, d), FAUUID(grid, u), p.FALinkGbps)
			}
		}
	}
	// FAUU <-> EB (full mesh).
	for grid := 0; grid < p.Grids; grid++ {
		for u := 0; u < p.FAUUsPerGrid; u++ {
			for e := 0; e < p.EBs; e++ {
				t.AddLink(FAUUID(grid, u), EBID(e), p.EdgeLinkGbps)
			}
		}
	}
	return t
}

// Canonical device ID constructors. Keeping them as functions (rather than
// fmt.Sprintf at call sites) makes scenario code and tests agree on names.

// RSWID names rack switch i of a pod.
func RSWID(pod, i int) DeviceID { return DeviceID(fmt.Sprintf("rsw.pod%d.%d", pod, i)) }

// FSWID names fabric switch i of a pod.
func FSWID(pod, i int) DeviceID { return DeviceID(fmt.Sprintf("fsw.pod%d.%d", pod, i)) }

// SSWID names spine switch i of a plane.
func SSWID(plane, i int) DeviceID { return DeviceID(fmt.Sprintf("ssw.pl%d.%d", plane, i)) }

// FADUID names FA downlink unit i of a grid.
func FADUID(grid, i int) DeviceID { return DeviceID(fmt.Sprintf("fadu.g%d.%d", grid, i)) }

// FAUUID names FA uplink unit i of a grid.
func FAUUID(grid, i int) DeviceID { return DeviceID(fmt.Sprintf("fauu.g%d.%d", grid, i)) }

// EBID names backbone device i.
func EBID(i int) DeviceID { return DeviceID(fmt.Sprintf("eb.%d", i)) }

// ExpansionParams sizes the Figure 2 scenario topology: SSWs reach the
// backbone through an old FAv1+Edge chain, and a new single FAv2 layer is
// introduced to replace both.
type ExpansionParams struct {
	SSWs      int
	FAv1s     int
	Edges     int
	FAv2s     int // devices pre-created but NOT linked; activate incrementally
	LinkGbps  float64
	FAv2Gbps  float64 // capacity of the new layer's links (bigger)
	Backbones int
}

func (p *ExpansionParams) setDefaults() {
	if p.SSWs <= 0 {
		p.SSWs = 4
	}
	if p.FAv1s <= 0 {
		p.FAv1s = 4
	}
	if p.Edges <= 0 {
		p.Edges = 4
	}
	if p.FAv2s <= 0 {
		p.FAv2s = 4
	}
	if p.LinkGbps <= 0 {
		p.LinkGbps = 100
	}
	if p.FAv2Gbps <= 0 {
		p.FAv2Gbps = 400
	}
	if p.Backbones <= 0 {
		p.Backbones = 2
	}
}

// Expansion is the Figure 2 scenario topology plus the bookkeeping needed to
// activate FAv2 nodes one at a time.
type Expansion struct {
	*Topology
	Params ExpansionParams
}

// FAv2ID names new fabric aggregator i.
func FAv2ID(i int) DeviceID { return DeviceID(fmt.Sprintf("fav2.%d", i)) }

// FAv1ID names old fabric aggregator i.
func FAv1ID(i int) DeviceID { return DeviceID(fmt.Sprintf("fav1.%d", i)) }

// EdgeID names old edge device i.
func EdgeID(i int) DeviceID { return DeviceID(fmt.Sprintf("edge.%d", i)) }

// BuildExpansion constructs the initial state of the Figure 2 migration:
//
//	SSW[0..n) — FAv1[0..m) — Edge[0..k) — EB[0..b)
//
// FAv2 devices exist but have no links; ActivateFAv2 wires one in, creating
// the shorter SSW—FAv2—EB path that triggers the first-router problem under
// native BGP.
func BuildExpansion(p ExpansionParams) *Expansion {
	p.setDefaults()
	t := New()
	for i := 0; i < p.SSWs; i++ {
		t.AddDevice(Device{ID: SSWID(0, i), Layer: LayerSSW, Plane: 0, Pod: -1, Grid: -1, Index: i})
	}
	for i := 0; i < p.FAv1s; i++ {
		t.AddDevice(Device{ID: FAv1ID(i), Layer: LayerFAv1, Pod: -1, Plane: -1, Grid: -1, Index: i})
	}
	for i := 0; i < p.Edges; i++ {
		t.AddDevice(Device{ID: EdgeID(i), Layer: LayerEdge, Pod: -1, Plane: -1, Grid: -1, Index: i})
	}
	for i := 0; i < p.FAv2s; i++ {
		t.AddDevice(Device{ID: FAv2ID(i), Layer: LayerFAv2, Pod: -1, Plane: -1, Grid: -1, Index: i})
	}
	for i := 0; i < p.Backbones; i++ {
		t.AddDevice(Device{ID: EBID(i), Layer: LayerEB, Pod: -1, Plane: -1, Grid: -1, Index: i})
	}
	for s := 0; s < p.SSWs; s++ {
		for f := 0; f < p.FAv1s; f++ {
			t.AddLink(SSWID(0, s), FAv1ID(f), p.LinkGbps)
		}
	}
	for f := 0; f < p.FAv1s; f++ {
		for e := 0; e < p.Edges; e++ {
			t.AddLink(FAv1ID(f), EdgeID(e), p.LinkGbps)
		}
	}
	for e := 0; e < p.Edges; e++ {
		for b := 0; b < p.Backbones; b++ {
			t.AddLink(EdgeID(e), EBID(b), p.LinkGbps)
		}
	}
	return &Expansion{Topology: t, Params: p}
}

// ActivateFAv2 wires FAv2 node i to every SSW and every backbone device,
// returning the IDs of the links' endpoints. This is one incremental
// deployment step of the scenario 1 migration.
func (e *Expansion) ActivateFAv2(i int) DeviceID {
	id := FAv2ID(i)
	for s := 0; s < e.Params.SSWs; s++ {
		e.AddLink(SSWID(0, s), id, e.Params.FAv2Gbps)
	}
	for b := 0; b < e.Params.Backbones; b++ {
		e.AddLink(id, EBID(b), e.Params.FAv2Gbps)
	}
	return id
}

// MeshParams sizes the Figure 4 decommission scenario: Planes×N SSWs and
// Grids×N FADUs where SSW-n of every plane connects only to FADU-n of every
// grid.
type MeshParams struct {
	Planes       int
	Grids        int
	PerGroup     int // N: switches per plane and per grid
	FSWsPerPlane int // traffic-source layer: each FSW connects to all SSWs of its plane
	LinkGbps     float64
	Backbones    int // each FADU uplinks to all backbones so traffic has a sink
}

func (p *MeshParams) setDefaults() {
	if p.Planes <= 0 {
		p.Planes = 2
	}
	if p.Grids <= 0 {
		p.Grids = 2
	}
	if p.PerGroup <= 0 {
		p.PerGroup = 4
	}
	if p.FSWsPerPlane <= 0 {
		p.FSWsPerPlane = 2
	}
	if p.LinkGbps <= 0 {
		p.LinkGbps = 100
	}
	if p.Backbones <= 0 {
		p.Backbones = 2
	}
}

// BuildMesh constructs the Figure 4 numbering-wired SSW/FADU mesh, with an
// FSW layer below the SSWs acting as the northbound traffic source (every
// FSW connects to all SSWs of its plane, so traffic can shift between SSW
// numbers when one withdraws).
func BuildMesh(p MeshParams) *Topology {
	p.setDefaults()
	t := New()
	for plane := 0; plane < p.Planes; plane++ {
		for i := 0; i < p.FSWsPerPlane; i++ {
			t.AddDevice(Device{ID: FSWID(plane, i), Layer: LayerFSW, Pod: plane, Plane: plane, Grid: -1, Index: i})
		}
		for n := 0; n < p.PerGroup; n++ {
			t.AddDevice(Device{ID: SSWID(plane, n), Layer: LayerSSW, Plane: plane, Pod: -1, Grid: -1, Index: n})
		}
	}
	for grid := 0; grid < p.Grids; grid++ {
		for n := 0; n < p.PerGroup; n++ {
			t.AddDevice(Device{ID: FADUID(grid, n), Layer: LayerFADU, Grid: grid, Pod: -1, Plane: -1, Index: n})
		}
	}
	for i := 0; i < p.Backbones; i++ {
		t.AddDevice(Device{ID: EBID(i), Layer: LayerEB, Pod: -1, Plane: -1, Grid: -1, Index: i})
	}
	// FSW <-> every SSW of its plane.
	for plane := 0; plane < p.Planes; plane++ {
		for i := 0; i < p.FSWsPerPlane; i++ {
			for n := 0; n < p.PerGroup; n++ {
				t.AddLink(FSWID(plane, i), SSWID(plane, n), p.LinkGbps)
			}
		}
	}
	// SSW-n (every plane) <-> FADU-n (every grid): same-number wiring.
	for plane := 0; plane < p.Planes; plane++ {
		for grid := 0; grid < p.Grids; grid++ {
			for n := 0; n < p.PerGroup; n++ {
				t.AddLink(SSWID(plane, n), FADUID(grid, n), p.LinkGbps)
			}
		}
	}
	for grid := 0; grid < p.Grids; grid++ {
		for n := 0; n < p.PerGroup; n++ {
			for b := 0; b < p.Backbones; b++ {
				t.AddLink(FADUID(grid, n), EBID(b), p.LinkGbps)
			}
		}
	}
	return t
}

// UUID names uplink unit i (Figure 5).
func UUID(i int) DeviceID { return DeviceID(fmt.Sprintf("uu.%d", i)) }

// DUID names downlink unit i (Figure 5).
func DUID(i int) DeviceID { return DeviceID(fmt.Sprintf("du.%d", i)) }

// BuildFig5 constructs the Figure 5 WCMP-convergence topology: ebs backbone
// devices each connected to every UU, and every UU connected to each DU by
// sessionsPerPair parallel links (the paper uses 8 EBs, 4 UUs, 1 DU, 2
// sessions per UU-DU pair).
func BuildFig5(ebs, uus, dus, sessionsPerPair int, linkGbps float64) *Topology {
	if linkGbps <= 0 {
		linkGbps = 100
	}
	t := New()
	for i := 0; i < ebs; i++ {
		t.AddDevice(Device{ID: EBID(i), Layer: LayerEB, Pod: -1, Plane: -1, Grid: -1, Index: i})
	}
	for i := 0; i < uus; i++ {
		t.AddDevice(Device{ID: UUID(i), Layer: LayerUU, Pod: -1, Plane: -1, Grid: -1, Index: i})
	}
	for i := 0; i < dus; i++ {
		t.AddDevice(Device{ID: DUID(i), Layer: LayerDU, Pod: -1, Plane: -1, Grid: -1, Index: i})
	}
	for e := 0; e < ebs; e++ {
		for u := 0; u < uus; u++ {
			t.AddLink(EBID(e), UUID(u), linkGbps)
		}
	}
	for u := 0; u < uus; u++ {
		for d := 0; d < dus; d++ {
			for s := 0; s < sessionsPerPair; s++ {
				t.AddLink(UUID(u), DUID(d), linkGbps)
			}
		}
	}
	return t
}

// GenericID names ad-hoc router i ("r1", "r2", ...).
func GenericID(i int) DeviceID { return DeviceID(fmt.Sprintf("r%d", i)) }

// BuildFig9 constructs the six-router interop topology of Figure 9:
//
//	R1 peers with R2 and R5 (and is the upstream source of prefix D);
//	R6 peers with R2, R3, R4 and R5.
//
// R6 is the RPA-augmented speaker; R1–R5 run native multipath BGP.
func BuildFig9(linkGbps float64) *Topology {
	if linkGbps <= 0 {
		linkGbps = 100
	}
	t := New()
	for i := 1; i <= 6; i++ {
		t.AddDevice(Device{ID: GenericID(i), Layer: LayerGeneric, Pod: -1, Plane: -1, Grid: -1, Index: i})
	}
	pairs := [][2]int{{1, 2}, {1, 5}, {2, 6}, {3, 6}, {4, 6}, {5, 6}}
	for _, pr := range pairs {
		t.AddLink(GenericID(pr[0]), GenericID(pr[1]), linkGbps)
	}
	return t
}

// FAID names fabric aggregator i (Figure 10).
func FAID(i int) DeviceID { return DeviceID(fmt.Sprintf("fa.%d", i)) }

// DMAGID names the DMAG device (Figure 10 has one).
func DMAGID(i int) DeviceID { return DeviceID(fmt.Sprintf("dmag.%d", i)) }

// Fig10Params sizes the Figure 10 sequencing topology.
type Fig10Params struct {
	FSWs, SSWs, FAs int
	LinkGbps        float64
}

// BuildFig10 constructs the Figure 10 deployment-sequencing topology: a DC
// (FSW—SSW—FA) whose FAs reach the backbone both directly and through a
// longer DMAG backup path.
func BuildFig10(p Fig10Params) *Topology {
	if p.FSWs <= 0 {
		p.FSWs = 2
	}
	if p.SSWs <= 0 {
		p.SSWs = 2
	}
	if p.FAs <= 0 {
		p.FAs = 2
	}
	if p.LinkGbps <= 0 {
		p.LinkGbps = 100
	}
	t := New()
	for i := 0; i < p.FSWs; i++ {
		t.AddDevice(Device{ID: FSWID(0, i), Layer: LayerFSW, Pod: 0, Plane: -1, Grid: -1, Index: i})
	}
	for i := 0; i < p.SSWs; i++ {
		t.AddDevice(Device{ID: SSWID(0, i), Layer: LayerSSW, Plane: 0, Pod: -1, Grid: -1, Index: i})
	}
	for i := 0; i < p.FAs; i++ {
		t.AddDevice(Device{ID: FAID(i), Layer: LayerFA, Pod: -1, Plane: -1, Grid: -1, Index: i})
	}
	t.AddDevice(Device{ID: DMAGID(0), Layer: LayerDMAG, Pod: -1, Plane: -1, Grid: -1, Index: 0})
	t.AddDevice(Device{ID: EBID(0), Layer: LayerEB, Pod: -1, Plane: -1, Grid: -1, Index: 0})

	for f := 0; f < p.FSWs; f++ {
		for s := 0; s < p.SSWs; s++ {
			t.AddLink(FSWID(0, f), SSWID(0, s), p.LinkGbps)
		}
	}
	for s := 0; s < p.SSWs; s++ {
		for a := 0; a < p.FAs; a++ {
			t.AddLink(SSWID(0, s), FAID(a), p.LinkGbps)
		}
	}
	for a := 0; a < p.FAs; a++ {
		t.AddLink(FAID(a), EBID(0), p.LinkGbps)   // direct (short) path
		t.AddLink(FAID(a), DMAGID(0), p.LinkGbps) // backup path via DMAG
	}
	t.AddLink(DMAGID(0), EBID(0), p.LinkGbps)
	return t
}
