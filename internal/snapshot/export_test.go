package snapshot

import "centralium/internal/fabric"

// SetTestHook installs fn as the package's test hook — it is told of every
// "encode", "decode", "topo-export" and "topo-import" — and returns the
// function that removes it. For the external tests that drive the planner,
// the guard and the daemon, which this package cannot import.
func SetTestHook(fn func(what string)) (restore func()) {
	testHook = fn
	return func() { testHook = nil }
}

// CaptureFull is the oracle the external tests compare CaptureFrom with:
// fabric.Network.ExportFull, every encode a full one.
func CaptureFull(n *fabric.Network) (*Snapshot, error) {
	st, err := n.ExportFull()
	if err != nil {
		return nil, err
	}
	return &Snapshot{Meta: map[string]string{}, state: st}, nil
}
