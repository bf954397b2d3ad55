package experiments

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"centralium/internal/migrate"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "table3",
		"fig2", "fig3", "fig4", "fig5", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"sweep-fig4", "sweep-fig5", "sweep-mnh", "sweep-scale", "sweep-whatif",
		"chaos", "planner",
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	if _, err := Run("nope", 1); err == nil {
		t.Error("unknown experiment did not error")
	}
}

func TestTable1Content(t *testing.T) {
	out := Table1()
	for _, want := range []string{"Routing System Evolution", "Daily", "~6 months", "(e)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig3Content(t *testing.T) {
	out := Fig3(1)
	if !strings.Contains(out, "RSW") || !strings.Contains(out, "Traffic Drain") {
		t.Errorf("Fig3 output incomplete:\n%s", out)
	}
}

func TestTable3Content(t *testing.T) {
	out := Table3()
	for _, want := range []string{"w/o RPA", "<1", "(a)", "(e)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table3 missing %q:\n%s", want, out)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	r := Fig13(Fig13Params{Seed: 1, Events: 60})
	if len(r.TERatio) == 0 {
		t.Fatal("no events produced")
	}
	var teSum, ecmpSum float64
	for i := range r.TERatio {
		if r.TERatio[i] > 1+1e-9 {
			t.Fatalf("TE ratio %v exceeds ideal", r.TERatio[i])
		}
		if r.TERatio[i]+1e-9 < r.ECMPRatio[i] {
			t.Fatalf("TE (%v) below ECMP (%v) at event %d", r.TERatio[i], r.ECMPRatio[i], i)
		}
		teSum += r.TERatio[i]
		ecmpSum += r.ECMPRatio[i]
	}
	nEvents := float64(len(r.TERatio))
	if teSum/nEvents < 0.95 {
		t.Errorf("TE mean ratio %v, want near-optimal (>0.95)", teSum/nEvents)
	}
	if ecmpSum/nEvents > 0.98*teSum/nEvents {
		t.Errorf("ECMP (%v) not clearly below TE (%v)", ecmpSum/nEvents, teSum/nEvents)
	}
	// TE unblocks maintenance events that ECMP would block.
	if r.BlockedTE > r.BlockedECMP {
		t.Errorf("TE blocked more events (%d) than ECMP (%d)", r.BlockedTE, r.BlockedECMP)
	}
	if !strings.Contains(r.Format(), "Centralium TE") {
		t.Error("Format missing TE row")
	}
}

func TestFig9LoopPrevention(t *testing.T) {
	out := Fig9(3)
	lines := strings.Split(out, "\n")
	var naiveLine, safeLine string
	for _, l := range lines {
		if strings.Contains(l, "naive") {
			naiveLine = l
		}
		if strings.Contains(l, "least favorable") {
			safeLine = l
		}
	}
	if !strings.Contains(naiveLine, "true") {
		t.Errorf("naive advertisement did not loop: %q", naiveLine)
	}
	if !strings.Contains(safeLine, "false") || strings.Contains(safeLine, "true") {
		t.Errorf("least-favorable advertisement looped: %q", safeLine)
	}
	if !strings.Contains(safeLine, "100.0%") {
		t.Errorf("least-favorable arm did not deliver everything: %q", safeLine)
	}
	if !strings.Contains(naiveLine, "49") && !strings.Contains(naiveLine, "50") {
		t.Errorf("naive arm should loop roughly half the flows: %q", naiveLine)
	}
}

func TestFig10Sequencing(t *testing.T) {
	out := Fig10(5)
	// Parse the two peak-share values.
	var unPeak, seqPeak float64
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "uncoordinated") {
			if _, err := sscanLast2(l, &unPeak); err != nil {
				t.Fatalf("parse %q: %v", l, err)
			}
		}
		if strings.Contains(l, "sequenced") {
			if _, err := sscanLast2(l, &seqPeak); err != nil {
				t.Fatalf("parse %q: %v", l, err)
			}
		}
	}
	if unPeak < 0.9 {
		t.Errorf("uncoordinated rollout peak = %v, want ~1.0 funnel", unPeak)
	}
	if seqPeak > 0.75 {
		t.Errorf("sequenced rollout peak = %v, want near fair share", seqPeak)
	}
}

// sscanLast2 extracts the second-to-last float on a row (peak share).
func sscanLast2(line string, out *float64) (int, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return 0, errors.New("too few fields")
	}
	v, err := strconv.ParseFloat(fields[len(fields)-2], 64)
	*out = v
	return 1, err
}

func TestFig14SEV(t *testing.T) {
	out := Fig14(7)
	var warmLine, coldLine string
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "true") {
			warmLine = l
		}
		if strings.Contains(l, "false") {
			coldLine = l
		}
	}
	// The misconfiguration black-holes everything; the correct setting
	// delivers everything.
	if !strings.Contains(warmLine, "100%") || !strings.HasPrefix(strings.TrimSpace(warmLine), "true") {
		t.Errorf("SEV arm unexpected: %q", warmLine)
	}
	if !strings.Contains(coldLine, "100%") {
		t.Errorf("correct arm unexpected: %q", coldLine)
	}
	if !strings.Contains(coldLine, "0%") {
		t.Errorf("correct arm should blackhole 0%%: %q", coldLine)
	}
}

func TestTable2CacheEffect(t *testing.T) {
	out := Table2(1)
	if !strings.Contains(out, "w/o cache") || !strings.Contains(out, "w/ cache") {
		t.Fatalf("Table2 output incomplete:\n%s", out)
	}
	if !strings.Contains(out, "speedup") {
		t.Fatalf("Table2 missing speedup:\n%s", out)
	}
}

func TestRunWrapsHeader(t *testing.T) {
	out, err := Run("table1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "===") {
		t.Errorf("header missing:\n%s", out)
	}
}

// Keep heavier experiments exercised at reduced scale.
func TestFig2Fig4Fig5Reduced(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario sweep in short mode")
	}
	n1 := migrate.RunScenario1(migrate.Scenario1Params{Seed: 2, SSWs: 3, FAv1s: 3, Edges: 3, FAv2s: 2})
	if n1.PeakShare < 0.9 {
		t.Errorf("fig2 native peak = %v", n1.PeakShare)
	}
	n2 := migrate.RunScenario2(migrate.Scenario2Params{Seed: 2, Planes: 2, Grids: 3, PerGroup: 3})
	if n2.PeakFADUShare <= n2.FairShare {
		t.Errorf("fig4 native peak = %v (fair %v)", n2.PeakFADUShare, n2.FairShare)
	}
	n3 := migrate.RunScenario3(migrate.Scenario3Params{Seed: 2, Prefixes: 32})
	if n3.PeakNHG < 4 {
		t.Errorf("fig5 native peak NHG = %d", n3.PeakNHG)
	}
}

func TestFig11AndFig12Reduced(t *testing.T) {
	if testing.Short() {
		t.Skip("controller footprint experiments in short mode")
	}
	out, err := Fig11(Fig11Params{Seed: 1, Agents: 2, NSDBTasks: 2, Rounds: 2, IdlePerRound: 5 * 1e6})
	if err != nil {
		t.Fatalf("Fig11: %v", err)
	}
	if !strings.Contains(out, "CPU single-core-equivalent") || !strings.Contains(out, "memory") {
		t.Errorf("Fig11 output incomplete:\n%s", out)
	}
	out, err = Fig12(Fig12Params{Seed: 1, Pushes: 50})
	if err != nil {
		t.Fatalf("Fig12: %v", err)
	}
	if !strings.Contains(out, "50 RPA deployments") || !strings.Contains(out, "p50=") {
		t.Errorf("Fig12 output incomplete:\n%s", out)
	}
}

func TestSweepsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps in short mode")
	}
	for _, id := range []string{"sweep-fig4", "sweep-mnh", "sweep-scale"} {
		out, err := Run(id, 1)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(strings.Split(out, "\n")) < 5 {
			t.Errorf("%s output too short:\n%s", id, out)
		}
	}
	// sweep-fig4's monotonicity claim: native funnel factor grows with grids.
	out := SweepFig4(3)
	var factors []float64
	for _, l := range strings.Split(out, "\n") {
		fields := strings.Fields(l)
		if len(fields) == 5 && (fields[0] == "2" || fields[0] == "4" || fields[0] == "6" || fields[0] == "8") {
			v, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", l, err)
			}
			factors = append(factors, v)
		}
	}
	if len(factors) != 4 {
		t.Fatalf("parsed %d native factors from:\n%s", len(factors), out)
	}
	for i := 1; i < len(factors); i++ {
		if factors[i] <= factors[i-1] {
			t.Fatalf("native funnel factor not increasing: %v", factors)
		}
	}
}
