package guard

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"centralium/internal/fabric"
	"centralium/internal/snapshot"
	"centralium/internal/store"
	"centralium/internal/topo"
)

// memObjects is the tests' object store: a map, first write wins.
type memObjects map[string][]byte

func (m memObjects) Put(key string, data []byte) error {
	if _, ok := m[key]; !ok {
		m[key] = bytes.Clone(data)
	}
	return nil
}

func (m memObjects) Get(key string) ([]byte, bool, error) {
	data, ok := m[key]
	return data, ok, nil
}

// pacedToTerminal drives a campaign pace waves per call through
// Run/Resume, simulating a process that dies and resumes at every pause,
// and returns the terminal result.
func pacedToTerminal(t *testing.T, snap *snapshot.Snapshot, c Campaign, pace int) *Result {
	t.Helper()
	c.MaxWaves = pace
	res, err := Run(context.Background(), snap, c)
	if err != nil {
		t.Fatalf("paced run: %v", err)
	}
	for hops := 0; res.State == StatePaused; hops++ {
		if hops > 64 {
			t.Fatalf("paced run did not terminate")
		}
		if res, err = Resume(context.Background(), res.Checkpoint, c); err != nil {
			t.Fatalf("paced resume: %v", err)
		}
	}
	return res
}

// requireSameTerminal asserts two results reached the byte-identical
// terminal state: same state, same decision log, same terminal
// fingerprint.
func requireSameTerminal(t *testing.T, want, got *Result) {
	t.Helper()
	if want.State != got.State {
		t.Fatalf("terminal state %s, want %s\nlog:\n%s", got.State, want.State, got.Log)
	}
	if want.Log != got.Log {
		t.Fatalf("decision logs diverge\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", want.Log, got.Log)
	}
	wfp, err := want.Snapshot.Fingerprint()
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	gfp, err := got.Snapshot.Fingerprint()
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	if wfp != gfp {
		t.Fatalf("terminal fingerprints diverge: %s vs %s", short(wfp), short(gfp))
	}
	if want.Retries != got.Retries || want.Rollbacks != got.Rollbacks {
		t.Fatalf("counters diverge: retries %d/%d rollbacks %d/%d",
			want.Retries, got.Retries, want.Rollbacks, got.Rollbacks)
	}
}

// stormInstrument re-arms a spine restart on every attempt of wave 1; a
// pure function of (wave, attempt), so resumed runs replay it.
func stormInstrument(n *fabric.Network, wave, attempt int) {
	if wave == 1 {
		n.After(time.Millisecond, func() {
			n.RestartDevice(topo.SSWID(0, 0), 2*time.Millisecond, false)
		})
	}
}

func TestPacedResumeMatchesUninterrupted(t *testing.T) {
	for _, tc := range []struct {
		name       string
		instrument func(n *fabric.Network, wave, attempt int)
		want       State
	}{
		{name: "clean", want: StateCompleted},
		{name: "storm", instrument: stormInstrument, want: StateAborted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap, c := fig10Campaign(t, 11)
			c.Instrument = tc.instrument
			c.Objects = memObjects{}
			ref, err := Run(context.Background(), snap, c)
			if err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}
			if ref.State != tc.want {
				t.Fatalf("uninterrupted terminal = %s, want %s\nlog:\n%s", ref.State, tc.want, ref.Log)
			}
			res := pacedToTerminal(t, snap, c, 1)
			requireSameTerminal(t, ref, res)
		})
	}
}

// TestResumeAcrossStoreReopen is the crash-shaped resume: the guard
// journals through a real WAL-backed store, the process "dies" (store
// closed mid-campaign), and a fresh store handle resumes from the
// journaled checkpoint to the byte-identical terminal state.
func TestResumeAcrossStoreReopen(t *testing.T) {
	dir := t.TempDir()
	snap, c := fig10Campaign(t, 13)
	c.Instrument = stormInstrument

	// Reference: uninterrupted run, no persistence.
	ref, err := Run(context.Background(), snap, Campaign(c))
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	const guardRecType = 5
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	c.Journal = st.Journal(guardRecType, "exec/fig10")
	c.Objects = st.Objects
	c.MaxWaves = 1
	res, err := Run(context.Background(), snap, c)
	if err != nil {
		t.Fatalf("first leg: %v", err)
	}
	if res.State != StatePaused {
		t.Fatalf("first leg terminal = %s, want paused", res.State)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	// The restarted process: reopen the directory, recover the latest
	// guard record from the WAL, and drive to the end.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer st2.Close()
	j := st2.Journal(guardRecType, "exec/fig10")
	cp, ok, err := j.Latest()
	if err != nil || !ok {
		t.Fatalf("latest guard record: ok=%v err=%v", ok, err)
	}
	c.Journal = j
	c.Objects = st2.Objects
	c.MaxWaves = 0
	res, err = Resume(context.Background(), cp, c)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	requireSameTerminal(t, ref, res)

	// The terminal record is durable too: a third process resuming from
	// it rebuilds the terminal result without executing anything.
	cp, ok, err = j.Latest()
	if err != nil || !ok {
		t.Fatalf("terminal guard record: ok=%v err=%v", ok, err)
	}
	res2, err := Resume(context.Background(), cp, c)
	if err != nil {
		t.Fatalf("terminal resume: %v", err)
	}
	requireSameTerminal(t, ref, res2)
	// The aborted record stores each fact of the incident once; the report
	// rebuilt from it is the one the uninterrupted run sealed.
	for _, got := range []*Result{res, res2} {
		if ref.Report == nil || !reflect.DeepEqual(got.Report, ref.Report) {
			t.Fatalf("incident report diverged from the uninterrupted run's:\n got %+v\nwant %+v", got.Report, ref.Report)
		}
	}
	if !reflect.DeepEqual(res2.Quarantined, ref.Quarantined) || res2.FinalFP != ref.FinalFP || res2.WavesDone != ref.WavesDone {
		t.Fatalf("terminal resume: quarantine %v, final %s, %d waves done; want %v, %s, %d",
			res2.Quarantined, short(res2.FinalFP), res2.WavesDone, ref.Quarantined, short(ref.FinalFP), ref.WavesDone)
	}
}

// TestContextCancelPausesResumable: a context cancelled mid-campaign
// freezes the run at the wave boundary; resuming with a fresh context
// reaches the uninterrupted terminal state.
func TestContextCancelPausesResumable(t *testing.T) {
	snap, c := fig10Campaign(t, 17)
	c.Objects = memObjects{}
	ref, err := Run(context.Background(), snap, c)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, snap, c)
	if err != nil {
		t.Fatalf("cancelled run: %v", err)
	}
	if res.State != StatePaused {
		t.Fatalf("cancelled run terminal = %s, want paused\nlog:\n%s", res.State, res.Log)
	}
	res, err = Resume(context.Background(), res.Checkpoint, c)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	requireSameTerminal(t, ref, res)
}

// retryOnceInstrument restarts a spine during wave 1's first attempt only:
// the guard rolls back once and the clean retry completes the campaign.
func retryOnceInstrument(n *fabric.Network, wave, attempt int) {
	if attempt == 0 {
		stormInstrument(n, wave, attempt)
	}
}

// TestPersistSkipsRepeatedCheckpoint: a campaign paced one wave per call
// journals no checkpoint twice in a row — the call that continues a paused
// campaign does not journal its resume point again, nor Put its last-good
// state — whether it continues the live execution or resumes from the
// record, and lands on the one-shot run's final record and journal.
func TestPersistSkipsRepeatedCheckpoint(t *testing.T) {
	ctx := context.Background()
	snap, c := fig10Campaign(t, 23)
	var journal [][]byte
	c.Journal = JournalFunc(func(_ int, cp []byte) error {
		journal = append(journal, bytes.Clone(cp))
		return nil
	})
	ref, err := Run(ctx, snap, c)
	if err != nil {
		t.Fatal(err)
	}
	if ref.State != StateCompleted || ref.Waves < 3 {
		t.Fatalf("one-shot run %s over %d waves, want a completed campaign of 3 or more", ref.State, ref.Waves)
	}
	want := journal

	puts := 0
	objs := memObjects{}
	c.Objects = countingObjects{objs, &puts}
	for _, chain := range []string{"live", "resumed"} {
		journal, puts = nil, 0
		var res *Result
		if chain == "live" {
			e, err := NewExecution(snap, c)
			if err != nil {
				t.Fatal(err)
			}
			for res == nil || res.State == StatePaused {
				if res, err = e.Drive(ctx, 1); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			res = pacedToTerminal(t, snap, c, 1)
		}
		for i := 1; i < len(journal); i++ {
			if bytes.Equal(journal[i-1], journal[i]) {
				t.Errorf("%s: checkpoints %d and %d are byte-equal", chain, i-1, i)
			}
		}
		if !reflect.DeepEqual(journal, want) {
			t.Errorf("%s: journaled %d checkpoints, the one-shot run %d, or different ones", chain, len(journal), len(want))
		}
		if puts != len(want) {
			t.Errorf("%s: %d object Puts for %d checkpoints", chain, puts, len(want))
		}
		if !bytes.Equal(res.Checkpoint, ref.Checkpoint) || res.FinalFP != ref.FinalFP {
			t.Errorf("%s: final record diverged from the one-shot run's:\n got %s\nwant %s", chain, res.Checkpoint, ref.Checkpoint)
		}
	}
}

// countingObjects counts the Puts that reach an object store.
type countingObjects struct {
	memObjects
	puts *int
}

func (o countingObjects) Put(key string, data []byte) error {
	*o.puts++
	return o.memObjects.Put(key, data)
}

// TestLiveExecutionMatchesResume: at every pacing from one wave per call to
// all of them, a chain of Drive calls on one live Execution (which keeps no
// object store) and a chain of Resume calls that rebuild the execution from
// each paused checkpoint both land on the uninterrupted run — decision log,
// terminal fingerprint and record, incident report — and journal the same
// checkpoints, byte for byte, that it journals. A
// resume of the terminal record rebuilds the same result without running
// anything.
func TestLiveExecutionMatchesResume(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name       string
		instrument func(n *fabric.Network, wave, attempt int)
		want       State
	}{
		{name: "clean", want: StateCompleted},
		{name: "rolled-back", instrument: retryOnceInstrument, want: StateCompleted},
		{name: "aborted", instrument: stormInstrument, want: StateAborted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap, c := fig10Campaign(t, 19)
			c.Instrument = tc.instrument
			var journal [][]byte
			c.Journal = JournalFunc(func(_ int, cp []byte) error {
				journal = append(journal, bytes.Clone(cp))
				return nil
			})
			ref, err := Run(ctx, snap, c)
			if err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}
			if ref.State != tc.want || (tc.instrument != nil) != (ref.Rollbacks > 0) {
				t.Fatalf("uninterrupted run %s with %d rollbacks, want %s\nlog:\n%s", ref.State, ref.Rollbacks, tc.want, ref.Log)
			}
			want := journal

			for pace := 1; pace <= ref.Waves; pace++ {
				journal = nil
				e, err := NewExecution(snap, c)
				if err != nil {
					t.Fatal(err)
				}
				var live *Result
				for calls := 0; live == nil || live.State == StatePaused; calls++ {
					if calls > ref.Waves {
						t.Fatalf("pace %d: live execution still paused after %d calls", pace, calls)
					}
					if live, err = e.Drive(ctx, pace); err != nil {
						t.Fatalf("pace %d: drive: %v", pace, err)
					}
				}
				if again, err := e.Drive(ctx, pace); err != nil || again != live {
					t.Fatalf("pace %d: a finished execution drove again (err %v)", pace, err)
				}
				liveCPs := journal

				journal = nil
				stored := c
				stored.Objects = memObjects{}
				resumed := pacedToTerminal(t, snap, stored, pace)
				resumedCPs := journal
				stored.MaxWaves = 0
				rebuilt, err := Resume(ctx, resumed.Checkpoint, stored)
				if err != nil {
					t.Fatalf("pace %d: terminal resume: %v", pace, err)
				}

				for _, got := range []*Result{live, resumed, rebuilt} {
					requireSameTerminal(t, ref, got)
					if got.FinalFP != ref.FinalFP || !bytes.Equal(got.Checkpoint, ref.Checkpoint) ||
						!reflect.DeepEqual(got.Report, ref.Report) || !reflect.DeepEqual(got.Quarantined, ref.Quarantined) {
						t.Fatalf("pace %d: terminal record diverged from the uninterrupted run's:\n got %s %+v\nwant %s %+v",
							pace, got.Checkpoint, got.Report, ref.Checkpoint, ref.Report)
					}
				}
				if !reflect.DeepEqual(liveCPs, resumedCPs) {
					t.Fatalf("pace %d: the live chain journaled %d checkpoints, the resumed chain %d, or different ones", pace, len(liveCPs), len(resumedCPs))
				}
				if !reflect.DeepEqual(liveCPs, want) {
					t.Fatalf("pace %d: %d checkpoints journaled, the uninterrupted run journals %d, or different ones", pace, len(liveCPs), len(want))
				}
			}
		})
	}
}

// TestResumeRejectsMisfiledSnapshot: the object store frames what it is
// given under whatever key it is given, so a well-formed snapshot filed
// under another state's fingerprint reaches the guard intact — and must not
// resume the campaign from the wrong state.
func TestResumeRejectsMisfiledSnapshot(t *testing.T) {
	snap, c := fig10Campaign(t, 5)
	c.Objects = memObjects{}
	c.MaxWaves = 1
	res, err := Run(context.Background(), snap, c)
	if err != nil || res.State != StatePaused {
		t.Fatalf("paced run: %v, %+v", err, res)
	}
	cp, err := DecodeCheckpoint(res.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	base, err := snap.EncodeCanonical()
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Objects.Put(cp.LastGood, base); err != nil {
		t.Fatalf("the store refused a misfiled snapshot: %v", err)
	}
	c.Objects = st.Objects
	if _, err := Resume(context.Background(), res.Checkpoint, c); err == nil || !strings.Contains(err.Error(), "holds snapshot") {
		t.Fatalf("resume from a misfiled last-good snapshot: err = %v, want a content-address refusal", err)
	}
}
