// Package fib models a switch's forwarding information base and, crucially,
// its next-hop-group (NHG) table: the on-chip structure that Section 3.4
// shows can be exhausted by transient convergence states. Prefixes mapping
// to the same weighted next-hop set share one NHG object, exactly as in
// merchant-silicon forwarding pipelines; the table tracks live occupancy,
// the peak reached, and overflow events against a hardware capacity limit.
package fib

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"strconv"
	"strings"
)

// NextHop is one weighted forwarding adjacency. ID is a session or device
// identifier in the emulation (an interface/IP in real hardware).
type NextHop struct {
	ID     string
	Weight int
}

// DefaultGroupLimit approximates the NHG capacity of the paper's DU
// hardware class; Section 3.4 notes 4^8 = 65536 possible transient groups
// "far exceeds the maximum number supported".
const DefaultGroupLimit = 4096

// group is one reference-counted NHG object.
type group struct {
	key  string
	hops []NextHop
	refs int
}

// Table is the FIB of one switch. The zero value is not usable; construct
// with New or NewFromState. Not safe for concurrent use (a switch's FIB
// writer is a single pipeline).
type Table struct {
	limit   int
	entries map[netip.Prefix]*group
	groups  map[string]*group

	// pending is the checkpoint a table restored by NewFromState reads from
	// until load builds the maps out of it: entries in canonical order with
	// hop sets in normal form, warm flags sorted and each an entry's (see
	// NewFromState). While it is set the maps are nil; Lookup,
	// LookupLPM and IsWarm answer from it, every other method that needs the
	// maps calls load first. The record is shared and never written.
	pending *TableState

	peakGroups  int
	overflows   int
	groupChurn  int                   // total NHG object creations
	writes      int                   // total prefix installs/updates
	warmEntries map[netip.Prefix]bool // kept despite withdrawal (KeepFibWarm)

	// gen counts forwarding changes: a prefix pointed at a different group
	// or removed (see Gen).
	gen uint64

	observer func(WriteEvent) // optional write notification (telemetry tap)

	// keyBuf and hopBuf are renderKey's scratch.
	keyBuf []byte
	hopBuf []NextHop

	// keyedOnly makes Install skip its element-wise no-op test and always
	// render the key; only the package's differential test sets it.
	keyedOnly bool
}

// WriteEvent describes one forwarding-table write for an observer: which
// prefix changed and the table occupancy after the write. The package has
// no telemetry dependency; the speaker adapts these into tap events.
type WriteEvent struct {
	Prefix  netip.Prefix
	Removed bool // entry deleted (withdrawal or empty install)
	Warm    bool // entry flagged warm (forwarding kept despite withdrawal)

	Entries    int // prefixes installed after the write
	Groups     int // live NHG objects after the write
	Limit      int // hardware NHG capacity
	GroupChurn int // cumulative NHG creations
	Overflows  int // cumulative overflow events
}

// SetObserver installs a callback invoked after every mutating write
// (Install, Remove, MarkWarm). A nil observer disables notification.
func (t *Table) SetObserver(fn func(WriteEvent)) { t.observer = fn }

func (t *Table) notify(p netip.Prefix, removed, warm bool) {
	if t.observer == nil {
		return
	}
	t.observer(WriteEvent{
		Prefix:     p,
		Removed:    removed,
		Warm:       warm,
		Entries:    len(t.entries),
		Groups:     len(t.groups),
		Limit:      t.limit,
		GroupChurn: t.groupChurn,
		Overflows:  t.overflows,
	})
}

// New returns an empty FIB with the given NHG capacity (values <= 0 get
// DefaultGroupLimit).
func New(groupLimit int) *Table {
	if groupLimit <= 0 {
		groupLimit = DefaultGroupLimit
	}
	return &Table{
		limit:       groupLimit,
		entries:     make(map[netip.Prefix]*group),
		groups:      make(map[string]*group),
		warmEntries: make(map[netip.Prefix]bool),
	}
}

// renderKey canonicalizes a next-hop set into the table's key scratch:
// sorted by ID, weights normalized by their GCD so {a:2,b:2} and {a:1,b:1}
// share one group, as hardware ECMP groups do. Hop sets that arrive already
// sorted (the speaker's always do: one hop per selected session, in session
// order) are read in place. The result is valid until the next call; probing
// a map or comparing with string(key) does not allocate, so only a caller
// that creates a new group pays for a key string.
func (t *Table) renderKey(hops []NextHop) []byte {
	if !slices.IsSortedFunc(hops, compareHopID) {
		t.hopBuf = append(t.hopBuf[:0], hops...)
		slices.SortFunc(t.hopBuf, compareHopID)
		hops = t.hopBuf
	}
	g := weightGCD(hops)
	key := t.keyBuf[:0]
	for _, h := range hops {
		key = append(key, h.ID...)
		key = append(key, '=')
		key = strconv.AppendInt(key, int64(h.Weight/g), 10)
		key = append(key, ';')
	}
	t.keyBuf = key
	return key
}

func compareHopID(a, b NextHop) int { return strings.Compare(a.ID, b.ID) }

// weightGCD returns the GCD of the hops' weights, or 1 when all are zero.
func weightGCD(hops []NextHop) int {
	g := 0
	for _, h := range hops {
		g = gcd(g, h.Weight)
	}
	if g == 0 {
		g = 1
	}
	return g
}

func gcd(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Install points the prefix at the weighted next-hop set, creating or
// sharing an NHG object. Installing an empty set removes the entry.
//
// Re-installing the set a prefix already maps to is a no-op rewrite: the
// write counter advances, a warm flag clears, and the observer hears nothing.
// The decision process does that on most runs, so the live group is compared
// element-wise first and the key is rendered only when that cannot tell.
func (t *Table) Install(p netip.Prefix, hops []NextHop) {
	t.load()
	t.writes++
	delete(t.warmEntries, p)
	if len(hops) == 0 {
		t.Remove(p)
		return
	}
	old := t.entries[p]
	if old != nil && !t.keyedOnly && old.sameSet(hops) {
		return // no-op rewrite
	}
	key := t.renderKey(hops)
	if old != nil {
		if old.key == string(key) {
			return // no-op rewrite of an unsorted set
		}
		t.release(old)
	}
	g := t.groups[string(key)]
	if g == nil {
		g = &group{key: string(key), hops: normalizeHops(hops)}
		t.groups[g.key] = g
		t.groupChurn++
		if len(t.groups) > t.limit {
			t.overflows++
		}
		if len(t.groups) > t.peakGroups {
			t.peakGroups = len(t.groups)
		}
	}
	g.refs++
	t.entries[p] = g
	t.gen++
	t.notify(p, false, false)
}

// sameSet reports whether hops is the group's own set as renderKey would
// read it in place: the group's IDs in the group's (sorted) order, each
// weight the group's times the set's GCD. A set that passes renders the
// group's key; one that fails may still (out of order), so the caller falls
// back to the key.
func (g *group) sameSet(hops []NextHop) bool {
	if len(hops) != len(g.hops) {
		return false
	}
	d := weightGCD(hops)
	for i, h := range hops {
		if h.ID != g.hops[i].ID || h.Weight != g.hops[i].Weight*d {
			return false
		}
	}
	return true
}

func normalizeHops(hops []NextHop) []NextHop {
	sorted := append([]NextHop(nil), hops...)
	slices.SortFunc(sorted, compareHopID)
	g := weightGCD(sorted)
	for i := range sorted {
		sorted[i].Weight /= g
	}
	return sorted
}

// Touch leaves the residue of a no-op rewrite without being shown the hops:
// the write counter advances, any warm flag clears, and the observer hears
// nothing. A speaker that skips the decision run for an update it proves
// cannot move the prefix's entry calls it in place of the Install the run
// would have made (see bgp's skipDecision).
func (t *Table) Touch(p netip.Prefix) {
	t.load()
	t.writes++
	delete(t.warmEntries, p)
}

// MarkWarm flags the prefix's current entry as "kept warm": the route was
// withdrawn from peers but forwarding state is retained
// (KeepFibWarmIfMnhViolated). A later Install or Remove clears the flag.
func (t *Table) MarkWarm(p netip.Prefix) {
	t.load()
	if _, ok := t.entries[p]; ok {
		t.warmEntries[p] = true
		t.notify(p, false, true)
	}
}

// IsWarm reports whether the prefix entry is retained only as warm state.
func (t *Table) IsWarm(p netip.Prefix) bool {
	if st := t.pending; st != nil {
		_, ok := slices.BinarySearchFunc(st.Warm, p, compareText)
		return ok
	}
	return t.warmEntries[p]
}

// Remove deletes the prefix's entry and releases its NHG reference.
func (t *Table) Remove(p netip.Prefix) {
	t.load()
	g := t.entries[p]
	if g == nil {
		return
	}
	delete(t.entries, p)
	delete(t.warmEntries, p)
	t.gen++
	t.release(g)
	t.notify(p, true, false)
}

// Gen is the table's forwarding generation: it advances on every write that
// changes what some prefix forwards to (an entry pointed at a different
// next-hop group, or removed) and on nothing else — not on a no-op rewrite,
// not on MarkWarm, not on a counter reset. Anything derived from the
// table's lookups stays valid while Gen is unchanged. A table rebuilt by
// NewFromState starts again from zero, so a cache keys on the *Table too.
func (t *Table) Gen() uint64 { return t.gen }

func (t *Table) release(g *group) {
	g.refs--
	if g.refs <= 0 {
		delete(t.groups, g.key)
	}
}

// EntryKey returns the canonical NHG key the prefix currently maps to, or
// "" when the prefix is not installed. Two snapshots of the same prefix
// compare equal exactly when the installed best-path set is unchanged.
func (t *Table) EntryKey(p netip.Prefix) string {
	t.load()
	if g := t.entries[p]; g != nil {
		return g.key
	}
	return ""
}

// Lookup returns the next-hop set for the prefix (exact match), or nil.
// Callers must not modify the returned slice.
func (t *Table) Lookup(p netip.Prefix) []NextHop {
	if st := t.pending; st != nil {
		if i, ok := slices.BinarySearchFunc(st.Entries, p, compareEntry); ok {
			return st.Entries[i].Hops
		}
		return nil
	}
	if g := t.entries[p]; g != nil {
		return g.hops
	}
	return nil
}

// LookupLPM returns the longest-prefix-match entry for the address, or nil.
func (t *Table) LookupLPM(addr netip.Addr) []NextHop {
	if st := t.pending; st != nil {
		var best []NextHop
		bestBits := -1
		for _, e := range st.Entries {
			if e.Prefix.Bits() > bestBits && e.Prefix.Contains(addr) {
				best, bestBits = e.Hops, e.Prefix.Bits()
			}
		}
		return best
	}
	var best *group
	bestBits := -1
	for p, g := range t.entries {
		if p.Contains(addr) && p.Bits() > bestBits {
			best, bestBits = g, p.Bits()
		}
	}
	if best == nil {
		return nil
	}
	return best.hops
}

// Prefixes returns all installed prefixes in canonical order — as their
// String renderings sort (see compareText) — for deterministic inspection.
func (t *Table) Prefixes() []netip.Prefix {
	t.load()
	out := make([]netip.Prefix, 0, len(t.entries))
	for p := range t.entries {
		out = append(out, p)
	}
	slices.SortFunc(out, compareText)
	return out
}

// compareText orders prefixes as strings.Compare orders their String
// renderings, which is the order a table lists its entries in, in a
// checkpoint and so in every fingerprint. It renders nothing for two IPv4
// prefixes: the text compares octet by octet and then by length, each number
// as its decimal digits sort (a separator sorts before any digit, so a number
// sorts before every longer one it begins), which is decRank's order.
func compareText(a, b netip.Prefix) int {
	x, y := a.Addr(), b.Addr()
	if !x.Is4() || !y.Is4() || !a.IsValid() || !b.IsValid() {
		return strings.Compare(a.String(), b.String())
	}
	xa, ya := x.As4(), y.As4()
	for i := range xa {
		if c := int(decRank[xa[i]]) - int(decRank[ya[i]]); c != 0 {
			return c
		}
	}
	return int(decRank[a.Bits()]) - int(decRank[b.Bits()])
}

func compareEntry(e Entry, p netip.Prefix) int { return compareText(e.Prefix, p) }

// decRank[v] is the position of v's decimal rendering among those of 0–255
// in string order: "0" < "1" < "10" < "100" < ... < "99".
var decRank = func() (rank [256]uint8) {
	var vs [256]int
	for v := range vs {
		vs[v] = v
	}
	slices.SortFunc(vs[:], func(a, b int) int { return strings.Compare(strconv.Itoa(a), strconv.Itoa(b)) })
	for r, v := range vs {
		rank[v] = uint8(r)
	}
	return rank
}()

// Entry is one row of a table snapshot: a prefix and its (normalized)
// next-hop set.
type Entry struct {
	Prefix netip.Prefix
	Hops   []NextHop
}

// Snapshot returns every installed entry in canonical order (see Prefixes).
// The hop sets are the table's own, which nothing ever writes: read-only to
// the caller, as Lookup's are. The chaos harness uses it to emulate a
// control-plane restart with a warm ASIC: forwarding state survives while the
// routing process reboots.
func (t *Table) Snapshot() []Entry {
	ps := t.Prefixes()
	out := make([]Entry, len(ps))
	for i, p := range ps {
		out[i] = Entry{Prefix: p, Hops: t.entries[p].hops}
	}
	return out
}

// Stats snapshots the table's counters.
type Stats struct {
	Entries    int // prefixes installed
	Groups     int // live NHG objects
	PeakGroups int // high-water NHG occupancy
	Overflows  int // installs that pushed occupancy past the limit
	GroupChurn int // total NHG creations
	Writes     int // total prefix writes
	Limit      int
}

// Stats returns a snapshot of the counters.
func (t *Table) Stats() Stats {
	t.load()
	return Stats{
		Entries:    len(t.entries),
		Groups:     len(t.groups),
		PeakGroups: t.peakGroups,
		Overflows:  t.overflows,
		GroupChurn: t.groupChurn,
		Writes:     t.writes,
		Limit:      t.limit,
	}
}

// ResetStats clears peak/churn/overflow counters (not the entries), so an
// experiment can measure a specific convergence window.
func (t *Table) ResetStats() {
	t.load()
	t.peakGroups = len(t.groups)
	t.overflows = 0
	t.groupChurn = 0
	t.writes = 0
}

// TableState is the complete serializable state of a Table: entries with
// their (normalized) next-hop sets, warm flags, and the cumulative
// counters. NewFromState reconstructs an equivalent table without the
// write/churn side effects Install would record.
type TableState struct {
	Limit   int
	Entries []Entry        // in canonical order (see Prefixes)
	Warm    []netip.Prefix // in canonical order; subset of Entries' prefixes

	PeakGroups int
	Overflows  int
	GroupChurn int
	Writes     int

	// canonical records that the state is in the shape NewFromState adopts
	// in place: ExportState writes it so, and Check found it so. It travels
	// with the value, so a state repeated into a later checkpoint keeps it.
	canonical bool
}

// ErrDuplicatePrefix reports a TableState that lists one prefix twice: no
// table exports one, and restoring it would count the prefix's group twice.
var ErrDuplicatePrefix = errors.New("fib: prefix listed twice in state")

// ExportState captures the table for checkpointing. The result shares only
// hop sets with the table, which nobody writes (see Snapshot).
func (t *Table) ExportState() TableState {
	st := TableState{
		Limit:      t.limit,
		Entries:    t.Snapshot(),
		PeakGroups: t.peakGroups,
		Overflows:  t.overflows,
		GroupChurn: t.groupChurn,
		Writes:     t.writes,
		canonical:  true,
	}
	for _, e := range st.Entries {
		if t.warmEntries[e.Prefix] {
			st.Warm = append(st.Warm, e.Prefix)
		}
	}
	return st
}

// NewFromState rebuilds a table from a checkpoint: NHG objects are
// re-shared by canonical key with correct reference counts, warm flags are
// re-applied, and the counters are restored verbatim (reconstruction
// itself counts as zero writes). A hop set that is already in normal form —
// every one ExportState wrote is — is shared with the state, not copied: a
// group's hops are never written. The observer starts nil; the owner
// re-attaches telemetry after restore.
//
// A state in canonical shape (entries in canonical order, hop sets in normal
// form, warm flags sorted and each an entry's) is adopted by reference and
// the maps are built on the table's first write, or first read that Lookup,
// LookupLPM and IsWarm cannot answer from the state: a restored table nobody
// writes costs one allocation. A state ExportState wrote or Check passed is
// known to be in that shape and is not read here; any other is checked, and
// built at once unless it is canonical. Nothing may write to st afterwards. A
// prefix listed twice is ErrDuplicatePrefix.
func NewFromState(st *TableState) (*Table, error) {
	t := &Table{limit: st.Limit, pending: st}
	if t.limit <= 0 {
		t.limit = DefaultGroupLimit
	}
	t.peakGroups = st.PeakGroups
	t.overflows = st.Overflows
	t.groupChurn = st.GroupChurn
	t.writes = st.Writes
	if !st.canonical {
		canonical, err := checkState(st)
		if err != nil {
			return nil, err
		}
		if !canonical {
			t.load()
		}
	}
	return t, nil
}

// Check refuses a state NewFromState would refuse and records whether it is
// in canonical shape, so that no restore of it reads its entries again. A
// decoder calls it on each state it makes, before anyone else sees the
// state; ExportState's states are canonical by construction.
func (st *TableState) Check() error {
	canonical, err := checkState(st)
	st.canonical = canonical
	return err
}

// checkState reports whether st is in the shape a table can read from in
// place (see NewFromState), and rejects a state load could not rebuild
// faithfully.
func checkState(st *TableState) (canonical bool, err error) {
	canonical = true
	for i, e := range st.Entries {
		if i > 0 && compareText(st.Entries[i-1].Prefix, e.Prefix) >= 0 ||
			!slices.IsSortedFunc(e.Hops, compareHopID) || weightGCD(e.Hops) != 1 {
			canonical = false
			break
		}
	}
	if !canonical {
		seen := make(map[netip.Prefix]bool, len(st.Entries))
		for _, e := range st.Entries {
			if seen[e.Prefix] {
				return false, fmt.Errorf("%w: %v", ErrDuplicatePrefix, e.Prefix)
			}
			seen[e.Prefix] = true
		}
		return false, nil
	}
	for i, p := range st.Warm {
		if i > 0 && compareText(st.Warm[i-1], p) >= 0 {
			return false, nil
		}
		if _, ok := slices.BinarySearchFunc(st.Entries, p, compareEntry); !ok {
			return false, nil
		}
	}
	return true, nil
}

// load builds the maps out of the pending checkpoint, if there is one, and
// drops it: the one place a restored table's groups are made, and it reads
// nothing but the record. Hop sets not in normal form are normalized into a
// copy; warm flags on prefixes with no entry are ignored.
func (t *Table) load() {
	st := t.pending
	if st == nil {
		return
	}
	t.pending = nil
	t.entries = make(map[netip.Prefix]*group, len(st.Entries))
	t.groups = make(map[string]*group)
	t.warmEntries = make(map[netip.Prefix]bool)
	for _, e := range st.Entries {
		key := t.renderKey(e.Hops)
		g := t.groups[string(key)]
		if g == nil {
			hops := e.Hops
			if !slices.IsSortedFunc(hops, compareHopID) || weightGCD(hops) != 1 {
				hops = normalizeHops(hops)
			}
			g = &group{key: string(key), hops: hops}
			t.groups[g.key] = g
		}
		g.refs++
		t.entries[e.Prefix] = g
	}
	for _, p := range st.Warm {
		if _, ok := t.entries[p]; ok {
			t.warmEntries[p] = true
		}
	}
}
