package topo

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestLayerString(t *testing.T) {
	tests := []struct {
		l    Layer
		want string
	}{
		{LayerRSW, "RSW"},
		{LayerSSW, "SSW"},
		{LayerFAUU, "FAUU"},
		{LayerDMAG, "DMAG"},
		{Layer(99), "Layer(99)"},
	}
	for _, tt := range tests {
		if got := tt.l.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.l), got, tt.want)
		}
	}
}

func TestLayerAltitudeOrdering(t *testing.T) {
	// The production stack must be strictly ordered bottom to top.
	stack := []Layer{LayerRSW, LayerFSW, LayerSSW, LayerFADU, LayerFAUU, LayerEB}
	for i := 1; i < len(stack); i++ {
		if stack[i].Altitude() <= stack[i-1].Altitude() {
			t.Errorf("altitude(%v)=%d not above altitude(%v)=%d",
				stack[i], stack[i].Altitude(), stack[i-1], stack[i-1].Altitude())
		}
	}
	// Legacy layers map into the stack.
	if LayerFAv1.Altitude() != LayerFADU.Altitude() {
		t.Error("FAv1 should sit at FADU altitude")
	}
	if LayerEdge.Altitude() != LayerFAUU.Altitude() {
		t.Error("Edge should sit at FAUU altitude")
	}
}

func TestAddDeviceAssignsUniqueASNs(t *testing.T) {
	tp := New()
	a := tp.AddDevice(Device{ID: "a", Layer: LayerGeneric})
	b := tp.AddDevice(Device{ID: "b", Layer: LayerGeneric})
	if a.ASN == 0 || b.ASN == 0 || a.ASN == b.ASN {
		t.Fatalf("ASNs not unique/nonzero: %d %d", a.ASN, b.ASN)
	}
}

func TestAddDeviceDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate device")
		}
	}()
	tp := New()
	tp.AddDevice(Device{ID: "x"})
	tp.AddDevice(Device{ID: "x"})
}

func TestAddLinkUnknownEndpointPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unknown endpoint")
		}
	}()
	tp := New()
	tp.AddDevice(Device{ID: "a"})
	tp.AddLink("a", "nope", 100)
}

func TestNeighborsAndParallelLinks(t *testing.T) {
	tp := New()
	tp.AddDevice(Device{ID: "a"})
	tp.AddDevice(Device{ID: "b"})
	tp.AddDevice(Device{ID: "c"})
	tp.AddLink("a", "b", 100)
	tp.AddLink("a", "b", 100) // parallel
	tp.AddLink("a", "c", 100)
	n := tp.Neighbors("a")
	if len(n) != 3 {
		t.Fatalf("Neighbors(a) = %v, want 3 entries (multiplicity)", n)
	}
	if n[0] != "b" || n[1] != "b" || n[2] != "c" {
		t.Fatalf("Neighbors(a) = %v, want [b b c]", n)
	}
	if got := len(tp.LinksOf("a")); got != 3 {
		t.Fatalf("LinksOf(a) = %d links, want 3", got)
	}
}

func TestValidate(t *testing.T) {
	tp := New()
	tp.AddDevice(Device{ID: "a"})
	tp.AddDevice(Device{ID: "b"})
	tp.AddLink("a", "b", 100)
	if err := tp.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
	// Duplicate ASN.
	tp2 := New()
	tp2.AddDevice(Device{ID: "a", ASN: 7})
	tp2.AddDevice(Device{ID: "b", ASN: 7})
	if err := tp2.Validate(); err == nil || !strings.Contains(err.Error(), "ASN") {
		t.Fatalf("Validate dup-ASN = %v, want ASN error", err)
	}
	// Bad capacity by direct mutation.
	tp3 := New()
	tp3.AddDevice(Device{ID: "a"})
	tp3.AddDevice(Device{ID: "b"})
	tp3.AddLink("a", "b", 100)
	tp3.links[0].CapacityGbps = 0
	if err := tp3.Validate(); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("Validate zero-capacity = %v, want capacity error", err)
	}
	// Self loop.
	tp4 := New()
	tp4.AddDevice(Device{ID: "a"})
	tp4.AddDevice(Device{ID: "b"})
	tp4.AddLink("a", "b", 100)
	tp4.links[0].B = "a"
	if err := tp4.Validate(); err == nil || !strings.Contains(err.Error(), "self-loop") {
		t.Fatalf("Validate self-loop = %v, want self-loop error", err)
	}
}

func TestDevicesSorted(t *testing.T) {
	tp := New()
	tp.AddDevice(Device{ID: "z"})
	tp.AddDevice(Device{ID: "a"})
	tp.AddDevice(Device{ID: "m"})
	devs := tp.Devices()
	for i := 1; i < len(devs); i++ {
		if devs[i].ID < devs[i-1].ID {
			t.Fatalf("Devices not sorted: %v", devs)
		}
	}
}

func TestByLayerAndLayers(t *testing.T) {
	tp := New()
	tp.AddDevice(Device{ID: "s1", Layer: LayerSSW})
	tp.AddDevice(Device{ID: "s0", Layer: LayerSSW})
	tp.AddDevice(Device{ID: "e0", Layer: LayerEB})
	tp.AddDevice(Device{ID: "r0", Layer: LayerRSW})
	ssws := tp.ByLayer(LayerSSW)
	if len(ssws) != 2 || ssws[0].ID != "s0" {
		t.Fatalf("ByLayer(SSW) = %v", ssws)
	}
	layers := tp.Layers()
	want := []Layer{LayerRSW, LayerSSW, LayerEB}
	if len(layers) != len(want) {
		t.Fatalf("Layers = %v, want %v", layers, want)
	}
	for i := range want {
		if layers[i] != want[i] {
			t.Fatalf("Layers = %v, want %v", layers, want)
		}
	}
}

func TestBuildFabricStructure(t *testing.T) {
	p := FabricParams{Pods: 2, RSWsPerPod: 3, FSWsPerPod: 4, Planes: 4,
		SSWsPerPlane: 2, Grids: 2, FADUsPerGrid: 2, FAUUsPerGrid: 2, EBs: 2}
	tp := BuildFabric(p)
	if err := tp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := len(tp.ByLayer(LayerRSW)); got != 6 {
		t.Errorf("RSWs = %d, want 6", got)
	}
	if got := len(tp.ByLayer(LayerFSW)); got != 8 {
		t.Errorf("FSWs = %d, want 8", got)
	}
	if got := len(tp.ByLayer(LayerSSW)); got != 8 {
		t.Errorf("SSWs = %d, want 8", got)
	}
	// Every RSW connects to all 4 FSWs of its pod.
	if got := len(tp.Neighbors(RSWID(0, 0))); got != 4 {
		t.Errorf("RSW neighbors = %d, want 4", got)
	}
	// FSW of plane i connects to its pod's RSWs plus plane i SSWs.
	if got := len(tp.Neighbors(FSWID(0, 1))); got != 3+2 {
		t.Errorf("FSW neighbors = %d, want 5", got)
	}
	// SSW j connects to plane FSWs (2 pods) and one FADU per grid.
	if got := len(tp.Neighbors(SSWID(1, 0))); got != 2+2 {
		t.Errorf("SSW neighbors = %d, want 4", got)
	}
	// Same-number wiring: SSW index 0 must connect to FADU 0 in each grid.
	for _, nb := range tp.Neighbors(SSWID(0, 0)) {
		d := tp.Device(nb)
		if d.Layer == LayerFADU && d.Index != 0 {
			t.Errorf("SSW-0 wired to FADU-%d, want only FADU-0", d.Index)
		}
	}
}

func TestBuildFabricMismatchedPlanesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when FSWsPerPod != Planes")
		}
	}()
	BuildFabric(FabricParams{FSWsPerPod: 2, Planes: 4})
}

func TestBuildFabricDefaults(t *testing.T) {
	tp := BuildFabric(FabricParams{})
	if err := tp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tp.NumDevices() == 0 || tp.NumLinks() == 0 {
		t.Fatal("default fabric is empty")
	}
}

func TestBuildExpansion(t *testing.T) {
	e := BuildExpansion(ExpansionParams{SSWs: 4, FAv1s: 4, Edges: 4, FAv2s: 2, Backbones: 2})
	if err := e.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// FAv2s exist but are unlinked.
	for i := 0; i < 2; i++ {
		if got := len(e.Neighbors(FAv2ID(i))); got != 0 {
			t.Errorf("FAv2-%d has %d links before activation", i, got)
		}
	}
	// SSW sees all FAv1s.
	if got := len(e.Neighbors(SSWID(0, 0))); got != 4 {
		t.Errorf("SSW neighbors = %d, want 4", got)
	}
	e.ActivateFAv2(0)
	if got := len(e.Neighbors(FAv2ID(0))); got != 4+2 {
		t.Errorf("activated FAv2 neighbors = %d, want 6", got)
	}
	// Activation creates the shorter SSW->FAv2->EB path.
	found := false
	for _, nb := range e.Neighbors(SSWID(0, 0)) {
		if nb == FAv2ID(0) {
			found = true
		}
	}
	if !found {
		t.Error("SSW not wired to activated FAv2")
	}
}

func TestBuildMeshWiring(t *testing.T) {
	tp := BuildMesh(MeshParams{Planes: 2, Grids: 3, PerGroup: 4, FSWsPerPlane: 2, Backbones: 2})
	if err := tp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Upward, SSW-n connects only to FADU-n (same number) in every grid;
	// downward it sees its plane's FSWs.
	fadus, fsws := 0, 0
	for _, nb := range tp.Neighbors(SSWID(0, 2)) {
		d := tp.Device(nb)
		switch d.Layer {
		case LayerFADU:
			fadus++
			if d.Index != 2 {
				t.Errorf("SSW-2 wired to FADU-%d", d.Index)
			}
		case LayerFSW:
			fsws++
			if d.Plane != 0 {
				t.Errorf("SSW plane 0 wired to FSW of plane %d", d.Plane)
			}
		default:
			t.Fatalf("SSW neighbor %v has layer %v", nb, d.Layer)
		}
	}
	if fadus != 3 || fsws != 2 {
		t.Errorf("SSW sees %d FADUs and %d FSWs, want 3 and 2", fadus, fsws)
	}
	// FSW reaches all SSW numbers of its plane.
	if got := len(tp.Neighbors(FSWID(0, 0))); got != 4 {
		t.Errorf("FSW neighbors = %d, want 4", got)
	}
	// FADU-n sees one SSW-n per plane plus backbones.
	if got := len(tp.Neighbors(FADUID(0, 1))); got != 2+2 {
		t.Errorf("FADU neighbors = %d, want 4", got)
	}
}

func TestBuildFig5Sessions(t *testing.T) {
	tp := BuildFig5(8, 4, 1, 2, 100)
	if err := tp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// DU must have 8 sessions toward the 4 UUs (2 per pair).
	if got := len(tp.LinksOf(DUID(0))); got != 8 {
		t.Errorf("DU sessions = %d, want 8", got)
	}
	// Each UU: 8 EB links + 2 DU links.
	if got := len(tp.LinksOf(UUID(0))); got != 10 {
		t.Errorf("UU links = %d, want 10", got)
	}
}

func TestBuildFig9(t *testing.T) {
	tp := BuildFig9(100)
	if err := tp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := len(tp.Neighbors(GenericID(6))); got != 4 {
		t.Errorf("R6 neighbors = %d, want 4", got)
	}
	if got := len(tp.Neighbors(GenericID(1))); got != 2 {
		t.Errorf("R1 neighbors = %d, want 2", got)
	}
}

func TestBuildFig10(t *testing.T) {
	tp := BuildFig10(Fig10Params{FSWs: 2, SSWs: 2, FAs: 2})
	if err := tp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Each FA has SSW links + direct EB + DMAG.
	if got := len(tp.Neighbors(FAID(0))); got != 2+1+1 {
		t.Errorf("FA neighbors = %d, want 4", got)
	}
	// DMAG connects FAs and EB.
	if got := len(tp.Neighbors(DMAGID(0))); got != 3 {
		t.Errorf("DMAG neighbors = %d, want 3", got)
	}
}

func TestFabricASNsUniqueProperty(t *testing.T) {
	f := func(pods, planes uint8) bool {
		p := FabricParams{
			Pods:   int(pods%3) + 1,
			Planes: int(planes%3) + 1,
		}
		p.FSWsPerPod = p.Planes
		tp := BuildFabric(p)
		return tp.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTopologyJSONRoundTrip(t *testing.T) {
	orig := BuildFabric(FabricParams{})
	data, err := orig.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ImportJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDevices() != orig.NumDevices() || got.NumLinks() != orig.NumLinks() {
		t.Fatalf("round trip: %d/%d devices, %d/%d links",
			got.NumDevices(), orig.NumDevices(), got.NumLinks(), orig.NumLinks())
	}
	// ASNs preserved exactly.
	for _, d := range orig.Devices() {
		gd := got.Device(d.ID)
		if gd == nil || gd.ASN != d.ASN || gd.Layer != d.Layer {
			t.Fatalf("device %s mismatch: %+v vs %+v", d.ID, gd, d)
		}
	}
	// The allocator resumes above imported ASNs.
	added := got.AddDevice(Device{ID: "extra"})
	for _, d := range got.Devices() {
		if d.ID != "extra" && d.ASN == added.ASN {
			t.Fatalf("imported topology reallocated ASN %d", added.ASN)
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestImportJSONErrors(t *testing.T) {
	bad := []string{
		`{garbage`,
		`{"devices":[{"ID":""}]}`,
		`{"devices":[{"ID":"a","ASN":1},{"ID":"a","ASN":2}]}`,
		`{"devices":[{"ID":"a","ASN":1}],"links":[{"A":"a","B":"ghost","CapacityGbps":100}]}`,
		`{"devices":[{"ID":"a","ASN":1},{"ID":"b","ASN":1}]}`, // dup ASN -> Validate fails
	}
	for i, doc := range bad {
		if _, err := ImportJSON([]byte(doc)); err == nil {
			t.Errorf("document %d accepted", i)
		}
	}
}
