package telemetry

import (
	"fmt"
	"io"
	"sync"

	"centralium/internal/telemetry/bmpwire"
)

// Exporter is a Tap that streams one device's events over a BMP-style
// connection. The stream opens with an Initiation message whose sysName
// TLV binds the device identity, mirroring how a real router's BMP
// session identifies itself; every subsequent message on the connection
// belongs to that device.
//
// Emit is safe for concurrent use (one exporter may serve networks driven
// on several goroutines). Write errors are sticky: after the first
// failure the exporter goes quiet rather than stalling the routing path.
type Exporter struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewExporter opens a telemetry stream for the named device, sending the
// Initiation immediately.
func NewExporter(w io.Writer, device string) (*Exporter, error) {
	init := &bmpwire.Initiation{Information: []bmpwire.TLV{
		bmpwire.StringTLV(bmpwire.InfoSysName, device),
		bmpwire.StringTLV(bmpwire.InfoString, "centralium telemetry exporter"),
	}}
	if err := bmpwire.WriteMessage(w, init); err != nil {
		return nil, fmt.Errorf("telemetry: initiation: %w", err)
	}
	return &Exporter{w: w}, nil
}

// Emit encodes the event and writes it to the stream.
func (e *Exporter) Emit(ev Event) {
	m, err := EncodeEvent(ev)
	if err != nil {
		return // unencodable kinds are dropped, not fatal
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return
	}
	e.err = bmpwire.WriteMessage(e.w, m)
}

// Err reports the first write error, if any.
func (e *Exporter) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Close sends a Termination message. It does not close the underlying
// writer; the caller owns the connection.
func (e *Exporter) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return e.err
	}
	term := &bmpwire.Termination{Information: []bmpwire.TLV{
		bmpwire.StringTLV(bmpwire.InfoString, "exporter closed"),
	}}
	e.err = bmpwire.WriteMessage(e.w, term)
	return e.err
}
