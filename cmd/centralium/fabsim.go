package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"centralium/internal/chaos"
	"centralium/internal/fabric"
	"centralium/internal/migrate"
	"centralium/internal/snapshot"
	"centralium/internal/topo"
	"centralium/internal/traffic"
	"centralium/internal/workload"
)

// fabsimCmd is the one-shot fabric simulator: build (or -load) a fabric,
// converge BGP on it and report routing and traffic state. Three other
// starting points replace the build: -chaos replays a seeded fault plan
// against a live migration scenario and reports the invariant checkers'
// verdicts (internal/chaos; an unhealthy run with -snapshot-dir drops a
// snapshot of its last clean point), -replay reproduces such a run byte
// for byte from that file alone, and -snapshot resumes any saved state
// (-save-snapshot) as if the run had never stopped, -fork proving N
// restored copies byte-identical (internal/snapshot).
func fabsimCmd(fs *flag.FlagSet) runFunc {
	var (
		pods    = podsFlag(fs)
		rsws    = fs.Int("rsws", 4, "RSWs per pod")
		planes  = fs.Int("planes", 4, "spine planes (= FSWs per pod)")
		ssws    = fs.Int("ssws", 2, "SSWs per plane")
		grids   = fs.Int("grids", 2, "FA grids")
		fadus   = fs.Int("fadus", 2, "FADUs per grid")
		fauus   = fs.Int("fauus", 2, "FAUUs per grid")
		ebs     = fs.Int("ebs", 2, "backbone devices")
		seed    = seedFlag(fs)
		verbose = fs.Bool("verbose", false, "print per-device forwarding state")
		save    = fs.String("save", "", "write the topology as JSON to this `file` and exit")
		load    = fs.String("load", "", "load the topology from a JSON `file` instead of building")
		rackPfx = fs.Bool("rack-prefixes", false, "originate one /24 per rack and run east-west traffic")

		chaosMode = fs.Bool("chaos", false, "run a chaos -scenario (decommission | pod-drain) instead of the plain build")
		scenario  = scenarioFlag(fs)
		arm       = fs.String("arm", "native", "chaos arm (native | rpa)")
		faults    = fs.Int("faults", 4, "chaos faults to plan")
		chaosLog  = fs.Bool("chaos-log", false, "print the full canonical chaos run log")
		chaosDir  = fs.String("snapshot-dir", "", "chaos: drop a replayable snapshot of the last clean point into this `dir` when the run ends unhealthy")
		replay    = fs.String("replay", "", "replay a chaos snapshot `file` and exit")

		saveSnap = fs.String("save-snapshot", "", "after convergence, write the full simulation state to this .csnp `file`")
		snapPath = snapshotFlag(fs)
		forkN    = fs.Int("fork", 0, "with -snapshot: fork N independent copies and verify byte-identical state")
	)
	return func(_ string, stdout, _ io.Writer) error {
		switch {
		case *replay != "":
			// Same verdicts, same canonical log, from the file alone.
			res, err := chaos.Replay(*replay)
			if err != nil {
				return err
			}
			return printChaos(stdout, res, *chaosLog)
		case *chaosMode:
			return runChaos(stdout, *scenario, *arm, *seed, *faults, *chaosLog, *chaosDir)
		case *snapPath != "":
			return runRestore(stdout, *snapPath, *forkN, *verbose)
		}

		var tp *topo.Topology
		if *load != "" {
			data, err := os.ReadFile(*load)
			if err != nil {
				return err
			}
			if tp, err = topo.ImportJSON(data); err != nil {
				return err
			}
		} else {
			tp = topo.BuildFabric(topo.FabricParams{
				Pods: *pods, RSWsPerPod: *rsws, FSWsPerPod: *planes, Planes: *planes,
				SSWsPerPlane: *ssws, Grids: *grids, FADUsPerGrid: *fadus,
				FAUUsPerGrid: *fauus, EBs: *ebs,
			})
		}
		if err := tp.Validate(); err != nil {
			return fmt.Errorf("invalid topology: %w", err)
		}
		if *save != "" {
			data, err := tp.ExportJSON()
			if err == nil {
				err = os.WriteFile(*save, data, 0o644)
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s (%d devices, %d links)\n", *save, tp.NumDevices(), tp.NumLinks())
			return nil
		}
		fmt.Fprintf(stdout, "topology: %d devices, %d links\n", tp.NumDevices(), tp.NumLinks())
		for _, l := range tp.Layers() {
			fmt.Fprintf(stdout, "  %-5s x %d\n", l, len(tp.ByLayer(l)))
		}

		n, events := backboneFabric(tp, *seed)
		fmt.Fprintf(stdout, "\nconverged after %d events (virtual time %.1f ms)\n", events, float64(n.Now())/1e6)

		summarize(stdout, n)

		if *rackPfx {
			prefixes := workload.SeedRackPrefixes(n)
			more := n.Converge()
			rep := workload.CheckAnyToAny(n, workload.EastWestDemands(n, prefixes, 10, 8, *seed))
			fmt.Fprintf(stdout, "\nrack prefixes: %d originated (%d more events)\n", len(prefixes), more)
			fmt.Fprintf(stdout, "east-west: %d flows, delivered %.1f%%, blackholed %.1f%%, max util %.3f\n",
				rep.Flows, rep.Delivered*100, rep.Blackholed*100, rep.MaxLinkUtil)
		}

		if *saveSnap != "" {
			enc, err := encodeState(n)
			if err == nil {
				err = os.WriteFile(*saveSnap, enc, 0o644)
			}
			if err != nil {
				return fmt.Errorf("save snapshot: %w", err)
			}
			fmt.Fprintf(stdout, "\nsnapshot: wrote %s (%d bytes)\n", *saveSnap, len(enc))
		}

		if *verbose {
			printNextHops(stdout, n)
		}
		return nil
	}
}

// backboneFabric stands up the network over tp, has every backbone device
// originate the default route, and converges; events is what that took.
func backboneFabric(tp *topo.Topology, seed int64) (n *fabric.Network, events int64) {
	n = fabric.New(tp, fabric.Options{Seed: seed})
	for _, eb := range tp.ByLayer(topo.LayerEB) {
		n.OriginateAt(eb.ID, migrate.DefaultRoute, []string{migrate.BackboneCommunity}, 0)
	}
	return n, n.Converge()
}

// encodeState captures a network and encodes the capture.
func encodeState(n *fabric.Network) ([]byte, error) {
	snap, err := snapshot.Capture(n)
	if err != nil {
		return nil, err
	}
	return snap.Encode()
}

// summarize prints the fleet routing and northbound traffic state — the
// same report whether the network was just converged or just restored.
func summarize(w io.Writer, n *fabric.Network) {
	tp := n.Topo
	var updates, withdrawals int
	for _, d := range tp.Devices() {
		st := n.Speaker(d.ID).Stats()
		updates += st.UpdatesReceived
		withdrawals += st.WithdrawalsSent
	}
	fmt.Fprintf(w, "fleet: %d updates received, %d withdrawals sent\n", updates, withdrawals)

	// Northbound traffic check: every RSW sends toward the default route.
	pr := &traffic.Propagator{Net: n}
	res := pr.Run(traffic.UniformDemands(tp.ByLayer(topo.LayerRSW), migrate.DefaultRoute, 100))
	fmt.Fprintf(w, "\ntraffic: injected %.0f, delivered %.1f%%, blackholed %.1f%%, max link util %.3f\n",
		res.Injected, res.DeliveredFraction()*100, res.BlackholedFraction()*100, res.MaxUtilization(tp))
}

func printNextHops(w io.Writer, n *fabric.Network) {
	fmt.Fprintln(w, "\nper-device default-route next hops:")
	devs := n.Topo.Devices()
	sort.Slice(devs, func(i, j int) bool { return devs[i].ID < devs[j].ID })
	for _, d := range devs {
		nh := n.NextHopWeights(d.ID, migrate.DefaultRoute)
		if len(nh) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-14s ->", d.ID)
		var peers []string
		for peer, weight := range nh {
			peers = append(peers, fmt.Sprintf(" %s(w%d)", peer, weight))
		}
		sort.Strings(peers)
		for _, p := range peers {
			fmt.Fprint(w, p)
		}
		fmt.Fprintln(w)
	}
}

// runRestore resumes from a snapshot file: the restored network carries
// the captured run's full state, so the summary it prints matches what
// the original process would have printed had it continued.
func runRestore(w io.Writer, path string, forkN int, verbose bool) error {
	snap, err := snapshot.Load(path)
	if err != nil {
		return err
	}
	n, err := snap.Restore()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "restored %s: %d devices, %d links, virtual time %.1f ms\n",
		path, n.Topo.NumDevices(), n.Topo.NumLinks(), float64(n.Now())/1e6)

	if forkN > 0 {
		forks, err := snap.Fork(forkN)
		if err != nil {
			return fmt.Errorf("fork: %w", err)
		}
		// Fingerprint via re-capture (not snap.Encode) so snapshot
		// metadata — e.g. a chaos checkpoint's run parameters — doesn't
		// enter the state comparison.
		ref, err := encodeState(n)
		if err != nil {
			return fmt.Errorf("fork: %w", err)
		}
		for i, f := range forks {
			enc, err := encodeState(f)
			if err != nil {
				return fmt.Errorf("fork %d: %w", i, err)
			}
			if !bytes.Equal(enc, ref) {
				return fmt.Errorf("fork %d diverged from the snapshot", i)
			}
		}
		fmt.Fprintf(w, "forked %d independent copies: state fingerprints identical (%d bytes each)\n",
			forkN, len(ref))
	}

	fmt.Fprintln(w)
	summarize(w, n)
	if verbose {
		printNextHops(w, n)
	}
	return nil
}

// runChaos executes one seeded chaos run and prints its verdicts. The
// same seed always reproduces the same run, so a failing seed from CI can
// be replayed here with -chaos-log for the full event stream.
func runChaos(w io.Writer, scenario, armName string, seed int64, faults int, printLog bool, snapshotDir string) error {
	if err := oneOf("scenario", scenario, chaos.Scenarios()); err != nil {
		return err
	}
	arms := map[string]chaos.Arm{"native": chaos.ArmNative, "rpa": chaos.ArmRPA}
	arm, ok := arms[armName]
	if !ok {
		return usagef("-arm %q: want native | rpa", armName)
	}
	res, err := chaos.Run(chaos.RunParams{
		Scenario: scenario, Arm: arm, Seed: seed, Faults: faults,
		CheckpointDir: snapshotDir,
	})
	if err != nil {
		return err
	}
	return printChaos(w, res, printLog)
}

// printChaos prints a chaos run's verdicts; an unhealthy run is errFailed.
func printChaos(w io.Writer, res chaos.RunResult, printLog bool) error {
	fmt.Fprintf(w, "chaos %s arm=%s seed=%d\n", res.Scenario, res.Arm, res.Seed)
	fmt.Fprintf(w, "faults: %d injected, %d suppressed\n", res.FaultsInjected, res.FaultsSuppressed)
	fmt.Fprintf(w, "continuous: %d raw violations, %d effective (outside fault grace)\n",
		res.RawViolations, res.EffectiveViolations)
	fmt.Fprintf(w, "quiescent: %d violations after convergence (%d events)\n", len(res.Quiescent), res.Events)
	for _, v := range res.Quiescent {
		fmt.Fprintf(w, "  %s\n", v)
	}
	if res.Checkpoint != "" {
		fmt.Fprintf(w, "snapshot: %s (replay with centralium fabsim -replay %s)\n", res.Checkpoint, res.Checkpoint)
	}
	if printLog {
		fmt.Fprintf(w, "\n--- canonical log ---\n%s", res.Log)
	}
	if res.EffectiveViolations > 0 || len(res.Quiescent) > 0 {
		return errFailed
	}
	return nil
}
