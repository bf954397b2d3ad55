// Package snapshot checkpoints the deterministic fabric: Capture freezes
// a Network's complete state (event queue, per-session FIFO/epoch
// bookkeeping, RNG stream position, per-device BGP speaker state, FIB/NHG
// tables, installed RPAs with their caches, and the virtual clock),
// Encode/Decode move it through a versioned self-describing binary format,
// and Restore/Fork rebuild running networks that continue byte-identically
// to the uninterrupted run — same tap stream, same jitter draws, same
// canonical logs.
//
// Fork is what makes the checkpoint more than crash recovery: one warm
// capture of a converged fabric seeds any number of independent what-if
// branches. The experiment sweeps warm-start from a shared base instead of
// re-converging per point, the chaos harness drops a checkpoint at the
// last clean quiescent point of a violating run for one-command replay,
// and the controller's WhatIf gate simulates a planned change on a fork
// before touching the live fleet — the paper's pre-deployment health-check
// loop (Section 5.3.2, Section 7.1) made executable.
//
// A restore builds only what its fork touches (fabric.NewFromState): it
// shares with the snapshot, read-only, the speakers' records — each speaker
// builds its maps, RIB column views and RPA evaluator from its record on
// first use, and each FIB answers lookups from its record until its first
// write — the compiled RPA programs, the frozen topology and its session
// naming and orders; it copies the event queue and the session table.
// Decode checks each state once (fabric.NetState.Check): it refuses what a
// restore would have to refuse — by name a device or a FIB prefix listed
// twice — and records on the state what its restores need not check again.
//
// A search or a campaign that walks from state to state — the planner's beam,
// the guard's waves — holds rendered snapshots (CaptureFrom, Rendered,
// DecodeRendered): a state together with its canonical bytes and fingerprint.
// Capturing a fork against the rendered snapshot it was restored from costs
// what the fork's run touched: untouched nodes are neither exported nor
// encoded again, their bytes are copied from the parent's, and so is the
// topology's. The bytes are always those of a full capture and a full encode
// (Capture, Encode), which stay as the parent-less case of the same code and
// as the oracle the tests compare with.
package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"os"

	"centralium/internal/fabric"
	"centralium/internal/topo"
)

// Snapshot is one captured fabric state plus free-form metadata (the chaos
// harness stores replay parameters there; operators can stash provenance).
//
// Concurrency contract: the captured state is immutable, and so is a rendered
// snapshot's rendering — both are complete before the constructor returns
// and nothing is memoized afterwards. Once built by Capture, CaptureFrom,
// Rendered, Decode, DecodeRendered, or Load, a Snapshot is safe for concurrent
// use by any number of goroutines — Restore, RestoreWith, Fork, Topology,
// Encode, EncodeCanonical, Fingerprint, Now, and serving as CaptureFrom's
// parent never write to it. What a rendered snapshot hands out from Encode,
// EncodeCanonical and EncodeWithFingerprint is its rendering itself, not a
// copy: read-only to every caller (TestSharedEncodingIsReadOnly). A restored
// network is not a deep copy of it: fabric.NewFromState copies what a
// network edits in place (queue, session table) and shares the rest
// read-only with the snapshot and every sibling restore — the frozen
// topology, AS paths and community lists, immutable engine-wide, each
// speaker's compiled RPA program (core.Program, replaced on deploy, never
// edited), each speaker's record, which it reads to build its own maps, FIB
// and match cache on first use, and its Adj-RIB-In and Adj-RIB-Out columns,
// which the speaker copies before its first write to one. So forks taken
// concurrently from one shared snapshot are independent networks, and
// diverging them leaves the snapshot's bytes untouched; it stays reachable
// for as long as a network restored from it.
// The one mutable field is Meta: callers that modify it while other
// goroutines encode the same snapshot must synchronize, or use
// EncodeCanonical, which never reads Meta. TestConcurrentFork,
// TestSharedForksLeaveSnapshotUntouched, TestCaptureFromConcurrentSiblings
// and TestSiblingForksBuildAndRead hold this contract under the race
// detector.
type Snapshot struct {
	Meta map[string]string

	state *fabric.NetState

	// enc is the state's canonical rendering, on a rendered snapshot (see
	// CaptureFrom); nil on any other.
	enc *rendering
}

// rendering is a state's canonical encoding, its fingerprint, and where in
// the bytes the parts lie that a capture of a derived state can copy. The
// bytes are handed out as they are, their capacity cut to their length so
// that an append by a caller reallocates.
type rendering struct {
	canon []byte
	fp    string
	layout
}

func newRendering(canon []byte, lay layout) *rendering {
	return &rendering{canon: canon[:len(canon):len(canon)], fp: fingerprintOf(canon), layout: lay}
}

// Capture checkpoints a network. It fails when the network is not at a
// consistent cut — control callbacks pending on the event queue — which
// confines checkpoints to quiescent points and pure-delivery convergence
// phases (see fabric.Network.ExportShared). The snapshot is fully detached:
// the live network can keep running without disturbing it.
func Capture(n *fabric.Network) (*Snapshot, error) {
	st, err := n.ExportState()
	if err != nil {
		return nil, err
	}
	return &Snapshot{Meta: map[string]string{}, state: st}, nil
}

// CaptureFrom is Capture for a search or a campaign that walks from state to
// state: the result is a rendered snapshot — it carries its canonical
// encoding and fingerprint, so Encode, EncodeCanonical, Fingerprint and
// EncodeWithFingerprint on it are lookups — and rendering it costs what n
// changed. When parent is the rendered snapshot n was restored from (or last
// captured as), the topology section and the record of every node n's run
// left untouched are copied out of parent's bytes, and only the touched
// nodes are exported and encoded. With any other parent, or nil, everything
// is; the bytes are the same either way (TestCaptureFromMatchesFullCapture).
//
// A rendering is some tens to hundreds of kilobytes that live as long as the
// snapshot does, which is why only this function, Rendered and DecodeRendered
// make one: it belongs to the search or campaign holding the snapshot and
// goes when that does. Long-lived holders (a daemon's cache of bases) keep
// plain snapshots and hand out Rendered views.
func CaptureFrom(parent *Snapshot, n *fabric.Network) (*Snapshot, error) {
	st, sh, err := n.ExportShared()
	if err != nil {
		return nil, err
	}
	var from *rendering
	if parent != nil && parent.enc != nil && sh.Base != nil && sh.Base == parent.state {
		from = parent.enc
	}
	canon, lay, err := encodeState(st, nil, from, sh)
	if err != nil {
		return nil, err
	}
	return &Snapshot{Meta: map[string]string{}, state: st, enc: newRendering(canon, lay)}, nil
}

// Rendered returns a rendered snapshot of the same state (see CaptureFrom): s
// itself when it is one, otherwise a private view that shares s's immutable
// state, copies its metadata, and owns the rendering — s is left as it was,
// holding no bytes.
func (s *Snapshot) Rendered() (*Snapshot, error) {
	if s.enc != nil {
		return s, nil
	}
	if s.state == nil {
		return nil, fmt.Errorf("snapshot: empty snapshot")
	}
	st := *s.state
	st.Batched = 0 // as EncodeCanonical
	canon, lay, err := encodeState(&st, nil, nil, fabric.Shared{})
	if err != nil {
		return nil, err
	}
	meta := maps.Clone(s.Meta)
	if meta == nil {
		meta = map[string]string{}
	}
	return &Snapshot{Meta: meta, state: s.state, enc: newRendering(canon, lay)}, nil
}

// DecodeRendered is Decode for bytes EncodeCanonical wrote: the result is a
// rendered snapshot whose rendering is data itself, kept by reference — the
// caller must not write to it afterwards. Input that decodes but is not in
// canonical shape (a metadata section, a Batched count from a build that had
// one, sections out of order or with trailing bytes) is rendered afresh.
func DecodeRendered(data []byte) (*Snapshot, error) {
	var lay layout
	st, meta, canonical, err := decodeState(data, &lay)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{Meta: meta, state: st}
	if !canonical {
		return s.Rendered()
	}
	s.enc = newRendering(data, lay)
	return s, nil
}

// Restore builds an independent network from the snapshot, on the
// fleet-default decision engine. Every call yields a fresh network; the
// snapshot remains reusable.
func (s *Snapshot) Restore() (*fabric.Network, error) {
	return s.RestoreWith(fabric.RestoreOptions{})
}

// RestoreWith is Restore with explicit options (the decision-engine mode —
// byte-identical either way, so the choice is free at restore time).
func (s *Snapshot) RestoreWith(opts fabric.RestoreOptions) (*fabric.Network, error) {
	if s.state == nil {
		return nil, fmt.Errorf("snapshot: empty snapshot")
	}
	return fabric.NewFromState(s.state, opts)
}

// Topology returns the topology the snapshot was captured on, for callers
// that need the graph without a running fabric. It is the state's own,
// frozen and shared with every restore: edit a Clone.
func (s *Snapshot) Topology() (*topo.Topology, error) {
	if s.state == nil {
		return nil, fmt.Errorf("snapshot: empty snapshot")
	}
	return s.state.Topo, nil
}

// Fork restores n independent what-if branches from one snapshot. Each
// branch is a separate network — diverging one (draining devices,
// injecting faults, deploying RPAs) never affects the others or the
// snapshot itself.
func (s *Snapshot) Fork(n int) ([]*fabric.Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("snapshot: fork count %d < 1", n)
	}
	out := make([]*fabric.Network, n)
	for i := range out {
		net, err := s.Restore()
		if err != nil {
			return nil, fmt.Errorf("snapshot: fork %d: %w", i, err)
		}
		out[i] = net
	}
	return out, nil
}

// Now returns the snapshot's virtual clock (nanoseconds).
func (s *Snapshot) Now() int64 {
	if s.state == nil {
		return 0
	}
	return s.state.Now
}

// Encode renders the snapshot in the versioned binary format. Encoding is
// deterministic: equal states produce equal bytes, so encoded snapshots
// double as state fingerprints in the differential tests.
func (s *Snapshot) Encode() ([]byte, error) {
	if s.state == nil {
		return nil, fmt.Errorf("snapshot: empty snapshot")
	}
	if s.enc != nil && len(s.Meta) == 0 && s.state.Batched == 0 {
		return s.enc.canon, nil
	}
	data, _, err := encodeState(s.state, s.Meta, nil, fabric.Shared{})
	return data, err
}

// EncodeCanonical renders the captured state alone, with no metadata
// section: a pure state identity. Two snapshots of byte-identical fabric
// states encode canonically to equal bytes regardless of what their Meta
// maps hold, which is what makes the encoding usable as a memoization and
// cache key. The engine record's Batched slot is cleared first: today's
// engine always writes 0 there, but snapshots persisted while a
// batch-parallel engine existed may carry a count, and their fingerprints
// (cleared then as now) must not move. Unlike Encode with a cleared Meta,
// it never touches the Meta field, so it is safe to call concurrently with
// everything else.
func (s *Snapshot) EncodeCanonical() ([]byte, error) {
	if s.state == nil {
		return nil, fmt.Errorf("snapshot: empty snapshot")
	}
	if s.enc != nil {
		return s.enc.canon, nil
	}
	st := *s.state
	st.Batched = 0
	data, _, err := encodeState(&st, nil, nil, fabric.Shared{})
	return data, err
}

// Fingerprint hashes the canonical encoding: a compact state identity for
// cache keys and response memoization (the campaign planner and the
// centraliumd snapshot cache both key by it).
func (s *Snapshot) Fingerprint() (string, error) {
	if s.enc != nil {
		return s.enc.fp, nil
	}
	data, err := s.EncodeCanonical()
	if err != nil {
		return "", err
	}
	return fingerprintOf(data), nil
}

func fingerprintOf(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}

// EncodeWithFingerprint returns Encode's bytes and the fingerprint they are
// stored under. With no metadata and nothing for the canonical form to
// clear, the two encodings are the same bytes and one pass serves both.
func (s *Snapshot) EncodeWithFingerprint() (enc []byte, fp string, err error) {
	if enc, err = s.EncodeCanonical(); err != nil {
		return nil, "", err
	}
	if s.enc != nil {
		fp = s.enc.fp
	} else {
		fp = fingerprintOf(enc)
	}
	if len(s.Meta) > 0 || s.state.Batched != 0 {
		enc, err = s.Encode()
	}
	return enc, fp, err
}

// Decode parses bytes produced by Encode. Corrupt or truncated input
// yields an error, never a panic (the fuzz suite holds that line); so does
// an RPA config that does not parse or compile, which Decode compiles once
// per distinct rendering (a restore adopts the programs, it compiles none).
func Decode(data []byte) (*Snapshot, error) {
	st, meta, _, err := decodeState(data, nil)
	if err != nil {
		return nil, err
	}
	return &Snapshot{Meta: meta, state: st}, nil
}

// Save writes the encoded snapshot to a file.
func (s *Snapshot) Save(path string) error {
	data, err := s.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads a snapshot file written by Save.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return Decode(data)
}
