package centralium

// One benchmark per paper table and figure (the bench targets listed in
// DESIGN.md's experiment index), plus ablation and micro benchmarks for the
// design choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem .
//
// The experiment harnesses themselves print paper-style output through
// `centralium tables`; the benchmarks here measure the cost of regenerating each
// artifact and keep the harnesses exercised under -bench CI runs.

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"centralium/internal/bgp"
	"centralium/internal/bgp/wire"
	"centralium/internal/controller"
	"centralium/internal/core"
	"centralium/internal/experiments"
	"centralium/internal/fabric"
	"centralium/internal/fib"
	"centralium/internal/migrate"
	"centralium/internal/openr"
	"centralium/internal/qualify"
	"centralium/internal/telemetry"
	"centralium/internal/topo"
	"centralium/internal/traffic"
	"centralium/internal/workload"
)

// --- Table 1 -----------------------------------------------------------

func BenchmarkTable1MigrationCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

// --- Table 2: RPA evaluation latency, cache miss vs hit ------------------

func benchEvaluator(b *testing.B) (*core.Evaluator, []core.RouteAttrs) {
	b.Helper()
	cfg := &core.Config{PathSelection: []core.PathSelectionStatement{{
		Name:        "bench",
		Destination: core.Destination{Community: "D"},
		PathSets: []core.PathSet{
			{Signature: core.PathSignature{ASPathRegex: "^(4200000001|4200000002) "}},
			{Signature: core.PathSignature{NextHopRegex: "^fadu\\.g[0-3]\\."}},
			{Signature: core.PathSignature{Communities: []string{"D"}}},
		},
	}}}
	ev, err := core.NewEvaluator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	routes := make([]core.RouteAttrs, 4)
	for j := range routes {
		routes[j] = core.RouteAttrs{
			Prefix:      netip.MustParsePrefix("10.1.0.0/16"),
			ASPath:      []uint32{4200000000 + uint32(j), 64512},
			Communities: []string{"D"},
			NextHop:     fmt.Sprintf("fadu.g%d.0", j),
			Peer:        fmt.Sprintf("fadu.g%d.0", j),
			LocalPref:   100,
		}
	}
	return ev, routes
}

func BenchmarkTable2RPAEvalCacheMiss(b *testing.B) {
	ev, routes := benchEvaluator(b)
	ev.Cache().SetEnabled(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.SelectPaths(routes, 4)
	}
}

func BenchmarkTable2RPAEvalCacheHit(b *testing.B) {
	ev, routes := benchEvaluator(b)
	ev.SelectPaths(routes, 4) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.SelectPaths(routes, 4)
	}
}

// --- Table 3 -------------------------------------------------------------

func BenchmarkTable3MigrationSteps(b *testing.B) {
	tp := topo.BuildFabric(topo.FabricParams{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := migrate.Table3(tp)
		if len(rows) != 5 {
			b.Fatal("bad rows")
		}
	}
}

// --- Figure 2: first-router funneling -------------------------------------

func BenchmarkFig2FirstRouter(b *testing.B) {
	for _, arm := range []struct {
		name   string
		useRPA bool
	}{{"native", false}, {"rpa", true}} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := migrate.RunScenario1(migrate.Scenario1Params{Seed: int64(i), UseRPA: arm.useRPA})
				if r.Events == 0 {
					b.Fatal("no events")
				}
			}
		})
	}
}

// --- Figure 3 --------------------------------------------------------------

func BenchmarkFig3SwitchesPerLayer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		catalog := migrate.GenerateCatalog(migrate.DefaultFleet(), 50, int64(i))
		if len(migrate.AverageByLayer(catalog)) != 5 {
			b.Fatal("bad catalog")
		}
	}
}

// --- Figure 4: last-router funneling ---------------------------------------

func BenchmarkFig4LastRouter(b *testing.B) {
	for _, arm := range []struct {
		name   string
		useRPA bool
	}{{"native", false}, {"rpa", true}} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := migrate.RunScenario2(migrate.Scenario2Params{
					Seed: int64(i), UseRPA: arm.useRPA, KeepFibWarm: arm.useRPA,
				})
				if r.Events == 0 {
					b.Fatal("no events")
				}
			}
		})
	}
}

// --- Figure 5: NHG explosion -----------------------------------------------

func BenchmarkFig5NHGExplosion(b *testing.B) {
	for _, arm := range []struct {
		name   string
		useRPA bool
	}{{"distributed-wcmp", false}, {"route-attribute-rpa", true}} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := migrate.RunScenario3(migrate.Scenario3Params{
					Seed: int64(i), UseRPA: arm.useRPA, Prefixes: 64,
				})
				if r.SteadyNHG == 0 {
					b.Fatal("no groups")
				}
			}
		})
	}
}

// --- Figure 9: advertisement-rule ablation ----------------------------------

func BenchmarkFig9LoopPrevention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Fig9(int64(i)) == "" {
			b.Fatal("empty output")
		}
	}
}

// --- Figure 10: sequencing ablation -----------------------------------------

func BenchmarkFig10Sequencing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Fig10(int64(i)) == "" {
			b.Fatal("empty output")
		}
	}
}

// --- Figure 11: controller footprint -----------------------------------------

func BenchmarkFig11ControllerFootprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.Fig11(experiments.Fig11Params{
			Seed: int64(i), Rounds: 2, IdlePerRound: time.Millisecond,
		})
		if err != nil || out == "" {
			b.Fatalf("fig11: %v", err)
		}
	}
}

// --- Figure 12: deployment latency -------------------------------------------

func BenchmarkFig12DeploymentTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.Fig12(experiments.Fig12Params{Seed: int64(i), Pushes: 200})
		if err != nil || out == "" {
			b.Fatalf("fig12: %v", err)
		}
	}
}

// --- Figure 13: TE vs ECMP vs ideal -------------------------------------------

func BenchmarkFig13TE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig13(experiments.Fig13Params{Seed: int64(i)})
		if len(r.TERatio) == 0 {
			b.Fatal("no events")
		}
	}
}

// --- Figure 14: SEV reproduction -----------------------------------------------

func BenchmarkFig14SEV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Fig14(int64(i)) == "" {
			b.Fatal("empty output")
		}
	}
}

// --- Ablations and micro-benchmarks (DESIGN.md §5) ------------------------------

// BenchmarkAblationMinNextHopSweep sweeps the protection threshold of the
// Figure 4 scenario.
func BenchmarkAblationMinNextHopSweep(b *testing.B) {
	for _, pct := range []float64{25, 50, 75, 100} {
		b.Run(fmt.Sprintf("pct-%.0f", pct), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				migrate.RunScenario2(migrate.Scenario2Params{
					Seed: int64(i), UseRPA: true, KeepFibWarm: true, MinNextHopPercent: pct,
				})
			}
		})
	}
}

func BenchmarkWireUpdateMarshal(b *testing.B) {
	u := &wire.Update{
		Origin:       0,
		ASPath:       []wire.ASPathSegment{{Type: wire.SegSequence, ASNs: []uint32{4200000001, 4200000002, 64512}}},
		NextHop:      netip.MustParseAddr("10.0.0.1"),
		LocalPref:    100,
		HasLocalPref: true,
		Communities:  []wire.Community{42},
		ExtCommunities: []wire.ExtCommunity{
			wire.LinkBandwidth(23456, 100e9),
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Marshal(u); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireUpdateUnmarshal(b *testing.B) {
	u := &wire.Update{
		ASPath:  []wire.ASPathSegment{{Type: wire.SegSequence, ASNs: []uint32{1, 2, 3}}},
		NextHop: netip.MustParseAddr("10.0.0.1"),
		NLRI:    []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
	}
	data, err := wire.Marshal(u)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFIBInstall(b *testing.B) {
	tbl := fib.New(0)
	hops := []fib.NextHop{{ID: "a", Weight: 3}, {ID: "b", Weight: 1}}
	alt := []fib.NextHop{{ID: "a", Weight: 1}, {ID: "b", Weight: 1}}
	p := netip.MustParsePrefix("10.0.0.0/8")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			tbl.Install(p, hops)
		} else {
			tbl.Install(p, alt)
		}
	}
}

func BenchmarkSpeakerDecision(b *testing.B) {
	s := bgp.NewSpeaker(bgp.Config{ID: "ssw", ASN: 300, Multipath: true}, nil)
	for i := 0; i < 4; i++ {
		s.AddPeer(bgp.SessionID(fmt.Sprintf("s%d", i)), fmt.Sprintf("fadu.%d", i), uint32(100+i), 100)
	}
	p := netip.MustParsePrefix("0.0.0.0/0")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := bgp.SessionID(fmt.Sprintf("s%d", i%4))
		s.HandleUpdate(sess, bgp.Update{
			Prefix: p,
			ASPath: []uint32{uint32(100 + i%4), uint32(60 + i%2)},
		})
		s.TakeOutbox()
	}
}

// BenchmarkTapDisabled guards the telemetry tap's zero-cost-when-disabled
// contract on the speaker hot path: with no tap attached, HandleUpdate must
// run exactly as fast (and allocate exactly as much) as before the tap
// existed. The enabled sub-benchmark uses a no-op tap to price the hooks
// themselves, separate from any consumer's work.
func BenchmarkTapDisabled(b *testing.B) {
	bench := func(b *testing.B, tap telemetry.Tap) {
		s := bgp.NewSpeaker(bgp.Config{ID: "du", ASN: 300, Multipath: true}, nil)
		s.SetTap(tap)
		for i := 0; i < 4; i++ {
			s.AddPeer(bgp.SessionID(fmt.Sprintf("s%d", i)), fmt.Sprintf("fadu.%d", i), uint32(100+i), 100)
		}
		p := netip.MustParsePrefix("0.0.0.0/0")
		// Pre-populate all four sessions so the steady state re-announces
		// identical routes: pure decision-pipeline cost, no FIB churn.
		for i := 0; i < 4; i++ {
			s.HandleUpdate(bgp.SessionID(fmt.Sprintf("s%d", i)), bgp.Update{
				Prefix: p, ASPath: []uint32{uint32(100 + i), 60},
			})
		}
		s.TakeOutbox()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sess := bgp.SessionID(fmt.Sprintf("s%d", i%4))
			s.HandleUpdate(sess, bgp.Update{
				Prefix: p, ASPath: []uint32{uint32(100 + i%4), 60},
			})
		}
	}
	b.Run("nil-tap", func(b *testing.B) { bench(b, nil) })
	b.Run("noop-tap", func(b *testing.B) { bench(b, telemetry.TapFunc(func(telemetry.Event) {})) })
}

// --- Convergence scaling -----------------------------------------------------

// BenchmarkConvergence measures a cold-start fleet convergence (backbone
// default route + rack prefixes) at three fabric sizes, with the advertise
// memo on and off: <scale>/incremental and <scale>/full (the oracle). Both
// produce byte-identical results (the differential tests enforce it); the
// benchmark prices the wall-clock difference. The engine-convergence rows of
// results/BENCH_history.jsonl are the committed trajectory. The 1kdevice
// size takes seconds per run — use -bench 'Convergence/(small|medium)' for
// a quick pass.
func BenchmarkConvergence(b *testing.B) {
	for _, sc := range experiments.ConvergenceScales() {
		for _, mode := range []struct {
			name string
			full bool
		}{{"incremental", false}, {"full", true}} {
			b.Run(fmt.Sprintf("%s/%s", sc.Name, mode.name), func(b *testing.B) {
				var events int64
				var advMemo, skipped int
				for i := 0; i < b.N; i++ {
					st := experiments.RunConvergenceMode(sc, 42, mode.full)
					if st.Events == 0 {
						b.Fatal("no events")
					}
					events = st.Events
					advMemo = st.AdvMemoHits
					skipped = st.Skipped
				}
				b.ReportMetric(float64(events), "events")
				b.ReportMetric(float64(advMemo), "adv-memo")
				b.ReportMetric(float64(skipped), "skipped")
			})
		}
	}
}

// --- Checkpoint/restore: forked sweeps ----------------------------------------

// BenchmarkWarmStartSweep prices the what-if sweep as it runs: one
// converged Figure 4 mesh, captured once and forked per drained device.
// What the forks save over one build per device is the cold/warm pair of
// rows `centralium tables -exp sweep-whatif -json` prints, byte-identity
// of the two included (TestWarmStartMatchesCold enforces it).
func BenchmarkWarmStartSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.SweepWhatIf(42) == "" {
			b.Fatal("empty sweep")
		}
	}
}

// --- Phase-2 substrate benchmarks --------------------------------------------

func BenchmarkOpenRFlooding(b *testing.B) {
	tp := topo.BuildFabric(topo.FabricParams{})
	links := tp.Links()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := openr.New(tp)
		l := links[i%len(links)]
		d.SetLinkUp(l.A, l.B, false)
		d.SetLinkUp(l.A, l.B, true)
	}
}

func BenchmarkOpenRSPFProbe(b *testing.B) {
	tp := topo.BuildFabric(topo.FabricParams{})
	d := openr.New(tp)
	devs := tp.Devices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := devs[i%len(devs)].ID
		to := devs[(i*7+3)%len(devs)].ID
		if !d.Probe(from, to) {
			b.Fatal("healthy probe failed")
		}
	}
}

func BenchmarkQualificationRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tp := topo.BuildFig10(topo.Fig10Params{FSWs: 2, SSWs: 2, FAs: 2})
		n := fabric.New(tp, fabric.Options{Seed: int64(i)})
		n.OriginateAt(topo.EBID(0), migrate.DefaultRoute, []string{migrate.BackboneCommunity}, 0)
		n.Converge()
		intent := controller.PathEqualizationIntent(tp,
			[]topo.Layer{topo.LayerFSW, topo.LayerSSW, topo.LayerFA}, migrate.BackboneCommunity)
		rep, err := qualify.Run(qualify.Spec{
			Name: "bench", Net: n, Intent: intent,
			OriginAltitude: topo.LayerEB.Altitude(),
			Workload:       traffic.UniformDemands(tp.ByLayer(topo.LayerFSW), migrate.DefaultRoute, 100),
			Invariants:     []qualify.Invariant{qualify.NoBlackholes(), qualify.NoLoops()},
		})
		if err != nil || !rep.Passed {
			b.Fatalf("qualification failed: %v %v", err, rep)
		}
	}
}

func BenchmarkEastWestWorkload(b *testing.B) {
	tp := topo.BuildFabric(topo.FabricParams{})
	n := fabric.New(tp, fabric.Options{Seed: 3})
	prefixes := workload.SeedRackPrefixes(n)
	n.Converge()
	demands := workload.EastWestDemands(n, prefixes, 1, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := workload.CheckAnyToAny(n, demands)
		if rep.Delivered < 0.999 {
			b.Fatal("loss")
		}
	}
}

func BenchmarkWireMPBGPMarshal(b *testing.B) {
	u := &wire.Update{
		ASPath: []wire.ASPathSegment{{Type: wire.SegSequence, ASNs: []uint32{65001, 64512}}},
		MPReach: &wire.MPReach{
			NextHop: netip.MustParseAddr("fd00::1"),
			NLRI:    []netip.Prefix{netip.MustParsePrefix("::/0"), netip.MustParsePrefix("2001:db8::/32")},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Marshal(u); err != nil {
			b.Fatal(err)
		}
	}
}
