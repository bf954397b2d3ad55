package session

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"centralium/internal/bgp"
	"centralium/internal/bgp/wire"
	"centralium/internal/telemetry"
)

// Config parameterizes an Endpoint.
type Config struct {
	// RouterID must be a unique IPv4 address per endpoint.
	RouterID netip.Addr
	// HoldTime is the negotiated-down hold time offered in OPEN; keepalives
	// are sent at a third of it (RFC 4271 defaults scaled for tests).
	HoldTime time.Duration
	// Registry maps symbolic communities to wire values; nil gets a fresh
	// one (only correct when all endpoints share it).
	Registry *Registry
	// Device names this endpoint in telemetry events; defaults to the
	// speaker's ID.
	Device string
	// Tap, when set, observes live FSM transitions (session established /
	// torn down) with wall-clock timestamps. This is distinct from the
	// speaker's own tap, which reports RIB-level peer registration on the
	// speaker clock.
	Tap telemetry.Tap
}

// Endpoint hosts one bgp.Speaker behind real BGP sessions. The speaker is
// single-threaded by design, so the endpoint serializes all access and
// fans the speaker's outbox out to the live sessions.
type Endpoint struct {
	cfg     Config
	speaker *bgp.Speaker

	mu    sync.Mutex // guards speaker and conns
	conns map[bgp.SessionID]*conn

	wg     sync.WaitGroup
	closed bool

	// keepalives counts keepalive messages received across all sessions.
	// Tests use it as an observable liveness clock: N received keepalives
	// prove roughly N*HoldTime/3 of protocol time elapsed, without blind
	// wall-clock sleeps.
	keepalives atomic.Uint64
}

// KeepalivesReceived reports the total keepalives received on all
// sessions since the endpoint started.
func (e *Endpoint) KeepalivesReceived() uint64 { return e.keepalives.Load() }

// conn is one established session.
type conn struct {
	id       bgp.SessionID
	netConn  net.Conn
	writeMu  sync.Mutex
	peerASN  uint32
	lastRecv time.Time
	done     chan struct{}
	// doneOnce guards close(done): Close and the read loop's deferred
	// teardown both tear a conn down, possibly at once.
	doneOnce sync.Once

	// Outbound updates are queued (unbounded, order-preserving) and
	// drained by a dedicated writer goroutine. Writing synchronously while
	// holding the endpoint lock would deadlock two endpoints writing to
	// each other over an unbuffered transport: each write needs the peer
	// to read, and each peer's reader needs the endpoint lock.
	qmu   sync.Mutex
	qcond *sync.Cond
	queue []*wire.Update
}

// enqueue appends an update for the writer goroutine.
func (c *conn) enqueue(u *wire.Update) {
	c.qmu.Lock()
	c.queue = append(c.queue, u)
	c.qmu.Unlock()
	c.qcond.Signal()
}

// dequeue blocks for the next update; it returns nil once the session is
// done and the queue drained.
func (c *conn) dequeue() *wire.Update {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	for len(c.queue) == 0 {
		select {
		case <-c.done:
			return nil
		default:
		}
		c.qcond.Wait()
	}
	u := c.queue[0]
	c.queue = c.queue[1:]
	return u
}

// NewEndpoint wraps a speaker. The speaker must not be driven by anything
// else while the endpoint owns it.
func NewEndpoint(sp *bgp.Speaker, cfg Config) (*Endpoint, error) {
	if !cfg.RouterID.Is4() {
		return nil, fmt.Errorf("session: router ID %v is not IPv4", cfg.RouterID)
	}
	if cfg.HoldTime == 0 {
		cfg.HoldTime = 9 * time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry()
	}
	if cfg.Device == "" {
		cfg.Device = sp.ID()
	}
	return &Endpoint{cfg: cfg, speaker: sp, conns: make(map[bgp.SessionID]*conn)}, nil
}

// Speaker exposes the wrapped speaker; callers must hold no session
// assumptions while using it (the endpoint locks internally on delivery, so
// read-only inspection between Converge-like quiescence points is safe in
// tests).
func (e *Endpoint) Speaker() *bgp.Speaker { return e.speaker }

// WithSpeaker runs fn with exclusive access to the speaker and flushes any
// resulting advertisements to the live sessions.
func (e *Endpoint) WithSpeaker(fn func(*bgp.Speaker)) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	fn(e.speaker)
	return e.flushLocked()
}

// Establish performs the OPEN/KEEPALIVE handshake on nc and, on success,
// registers the session with the speaker and starts the reader and
// keepalive loops. Both sides call Establish (BGP's symmetric handshake);
// sessID must match on both ends, as it does for one provisioned link.
func (e *Endpoint) Establish(nc net.Conn, sessID bgp.SessionID, peerDevice string, linkGbps float64) error {
	open := &wire.Open{
		ASN:      e.speaker.ASN(),
		HoldTime: uint16(e.cfg.HoldTime / time.Second),
		RouterID: e.cfg.RouterID,
	}
	// The handshake is symmetric, so sends run concurrently with reads —
	// over an unbuffered transport (net.Pipe) sequential write-then-read on
	// both sides would deadlock.
	sendErr := make(chan error, 1)
	go func() { sendErr <- wire.WriteMessage(nc, open) }()
	_ = nc.SetReadDeadline(time.Now().Add(e.cfg.HoldTime))
	msg, err := wire.ReadMessage(nc)
	if err != nil {
		nc.Close()
		<-sendErr
		return fmt.Errorf("session: read OPEN: %w", err)
	}
	if err := <-sendErr; err != nil {
		nc.Close()
		return fmt.Errorf("session: send OPEN: %w", err)
	}
	peerOpen, ok := msg.(*wire.Open)
	if !ok {
		nc.Close()
		return fmt.Errorf("session: expected OPEN, got type %d", msg.Type())
	}
	reject := func(subcode uint8, cause error) error {
		go wire.WriteMessage(nc, &wire.Notification{Code: wire.NotifOpenMessageError, Subcode: subcode})
		time.AfterFunc(100*time.Millisecond, func() { nc.Close() })
		return cause
	}
	if peerOpen.Version != 4 && peerOpen.Version != 0 {
		return reject(1, fmt.Errorf("session: unsupported BGP version %d", peerOpen.Version))
	}
	if peerOpen.ASN == e.speaker.ASN() {
		// The fabric is eBGP-everywhere; an iBGP peer is a wiring error.
		return reject(2, fmt.Errorf("session: unexpected iBGP peer (ASN %d)", peerOpen.ASN))
	}
	go func() { sendErr <- wire.WriteMessage(nc, &wire.Keepalive{}) }()
	_ = nc.SetReadDeadline(time.Now().Add(e.cfg.HoldTime))
	msg, err = wire.ReadMessage(nc)
	if err != nil {
		nc.Close()
		<-sendErr
		return fmt.Errorf("session: await KEEPALIVE: %w", err)
	}
	if err := <-sendErr; err != nil {
		nc.Close()
		return fmt.Errorf("session: send KEEPALIVE: %w", err)
	}
	if _, ok := msg.(*wire.Keepalive); !ok {
		nc.Close()
		return fmt.Errorf("session: expected KEEPALIVE, got type %d", msg.Type())
	}
	_ = nc.SetReadDeadline(time.Time{})

	c := &conn{
		id:       sessID,
		netConn:  nc,
		peerASN:  peerOpen.ASN,
		lastRecv: time.Now(),
		done:     make(chan struct{}),
	}
	c.qcond = sync.NewCond(&c.qmu)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		nc.Close()
		return errors.New("session: endpoint closed")
	}
	if _, dup := e.conns[sessID]; dup {
		e.mu.Unlock()
		nc.Close()
		return fmt.Errorf("session: duplicate session %q", sessID)
	}
	e.conns[sessID] = c
	e.speaker.AddPeer(sessID, peerDevice, peerOpen.ASN, linkGbps)
	err = e.flushLocked()
	e.mu.Unlock()
	if err != nil {
		e.teardown(c)
		return err
	}

	e.emitFSM(telemetry.KindSessionUp, c)
	e.wg.Add(3)
	go e.readLoop(c)
	go e.writeLoop(c)
	go e.keepaliveLoop(c)
	return nil
}

// emitFSM reports a live session transition on the endpoint's tap.
func (e *Endpoint) emitFSM(kind telemetry.Kind, c *conn) {
	if e.cfg.Tap == nil {
		return
	}
	e.cfg.Tap.Emit(telemetry.Event{
		Kind:    kind,
		Time:    time.Now().UnixNano(),
		Device:  e.cfg.Device,
		Session: string(c.id),
		PeerASN: c.peerASN,
	})
}

// writeLoop drains the session's outbound queue onto the wire.
func (e *Endpoint) writeLoop(c *conn) {
	defer e.wg.Done()
	for {
		u := c.dequeue()
		if u == nil {
			return
		}
		c.writeMu.Lock()
		err := wire.WriteMessage(c.netConn, u)
		c.writeMu.Unlock()
		if err != nil {
			return
		}
	}
}

// readLoop processes inbound messages until error or hold-timer expiry.
func (e *Endpoint) readLoop(c *conn) {
	defer e.wg.Done()
	defer e.teardown(c)
	for {
		// The hold timer: a peer silent for the whole hold time is dead.
		_ = c.netConn.SetReadDeadline(time.Now().Add(e.cfg.HoldTime))
		msg, err := wire.ReadMessage(c.netConn)
		if err != nil {
			return
		}
		c.lastRecv = time.Now()
		switch m := msg.(type) {
		case *wire.Keepalive:
			// Timer refreshed above; the count is the only other effect.
			e.keepalives.Add(1)
		case *wire.Notification:
			return // peer is tearing down
		case *wire.Update:
			e.deliver(c, m)
		default:
			// OPEN after establishment is an FSM error.
			_ = wire.WriteMessage(c.netConn, &wire.Notification{Code: wire.NotifFSMError})
			return
		}
	}
}

// deliver translates one wire update into speaker updates and flushes the
// resulting advertisements.
func (e *Endpoint) deliver(c *conn, m *wire.Update) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, p := range m.Withdrawn {
		e.speaker.HandleUpdate(c.id, bgp.Update{Prefix: p, Withdraw: true})
	}
	if m.MPUnreach != nil {
		for _, p := range m.MPUnreach.Withdrawn {
			e.speaker.HandleUpdate(c.id, bgp.Update{Prefix: p, Withdraw: true})
		}
	}
	if m.MPReach != nil {
		base := bgp.Update{
			ASPath:      m.FlatASPath(),
			Communities: e.cfg.Registry.Decode(m.Communities),
			MED:         m.MED,
		}
		for _, p := range m.MPReach.NLRI {
			u := base
			u.Prefix = p
			e.speaker.HandleUpdate(c.id, u)
		}
	}
	if len(m.NLRI) > 0 {
		var bw float64
		for _, ec := range m.ExtCommunities {
			if _, bytesPerSec, ok := ec.AsLinkBandwidth(); ok {
				bw = float64(bytesPerSec) * 8 / 1e9 // bytes/s -> Gbps
			}
		}
		base := bgp.Update{
			ASPath:            m.FlatASPath(),
			Communities:       e.cfg.Registry.Decode(m.Communities),
			MED:               m.MED,
			LinkBandwidthGbps: bw,
		}
		for _, p := range m.NLRI {
			u := base
			u.Prefix = p
			e.speaker.HandleUpdate(c.id, u)
		}
	}
	_ = e.flushLocked()
}

// flushLocked drains the speaker outbox onto the live sessions. Callers
// hold e.mu.
func (e *Endpoint) flushLocked() error {
	var firstErr error
	for _, m := range e.speaker.TakeOutbox() {
		c := e.conns[m.Session]
		if c == nil {
			continue // session gone
		}
		wu := &wire.Update{}
		isV6 := m.Update.Prefix.Addr().Is6() && !m.Update.Prefix.Addr().Is4In6()
		switch {
		case m.Update.Withdraw && isV6:
			wu.MPUnreach = &wire.MPUnreach{Withdrawn: []netip.Prefix{m.Update.Prefix}}
		case m.Update.Withdraw:
			wu.Withdrawn = []netip.Prefix{m.Update.Prefix}
		default:
			wu.ASPath = []wire.ASPathSegment{{Type: wire.SegSequence, ASNs: m.Update.ASPath}}
			wu.Communities = e.cfg.Registry.Encode(m.Update.Communities)
			wu.Origin = uint8(m.Update.Origin)
			if m.Update.LinkBandwidthGbps > 0 {
				wu.ExtCommunities = []wire.ExtCommunity{
					wire.LinkBandwidth(wire.ASTrans, float32(m.Update.LinkBandwidthGbps*1e9/8)),
				}
			}
			if isV6 {
				wu.MPReach = &wire.MPReach{NextHop: e.nextHop6(), NLRI: []netip.Prefix{m.Update.Prefix}}
			} else {
				wu.NLRI = []netip.Prefix{m.Update.Prefix}
				wu.NextHop = e.cfg.RouterID
			}
		}
		c.enqueue(wu)
	}
	return firstErr
}

// nextHop6 derives the endpoint's IPv6 next-hop identity: a ULA embedding
// the IPv4 router ID (fd00::<router-id>), unique per endpoint.
func (e *Endpoint) nextHop6() netip.Addr {
	rid := e.cfg.RouterID.As4()
	var a [16]byte
	a[0] = 0xfd
	copy(a[12:], rid[:])
	return netip.AddrFrom16(a)
}

// keepaliveLoop sends keepalives at a third of the hold time.
func (e *Endpoint) keepaliveLoop(c *conn) {
	defer e.wg.Done()
	interval := e.cfg.HoldTime / 3
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
			c.writeMu.Lock()
			err := wire.WriteMessage(c.netConn, &wire.Keepalive{})
			c.writeMu.Unlock()
			if err != nil {
				return
			}
		}
	}
}

// teardown closes one session and withdraws its routes.
func (e *Endpoint) teardown(c *conn) {
	e.mu.Lock()
	owned := e.conns[c.id] == c
	if owned {
		delete(e.conns, c.id)
		e.speaker.RemovePeer(c.id)
		_ = e.flushLocked()
	}
	e.mu.Unlock()
	if owned {
		e.emitFSM(telemetry.KindSessionDown, c)
	}
	c.doneOnce.Do(func() { close(c.done) })
	// Release a writer parked in dequeue. Broadcasting under qmu closes the
	// window between the writer's check of done and its Wait, in which the
	// wake-up would be lost and Close would wait for the writer forever.
	c.qmu.Lock()
	c.qcond.Broadcast()
	c.qmu.Unlock()
	c.netConn.Close()
}

// Sessions returns the IDs of live sessions.
func (e *Endpoint) Sessions() []bgp.SessionID {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]bgp.SessionID, 0, len(e.conns))
	for id := range e.conns {
		out = append(out, id)
	}
	return out
}

// Close tears down every session and waits for the loops to exit.
func (e *Endpoint) Close() {
	e.mu.Lock()
	e.closed = true
	conns := make([]*conn, 0, len(e.conns))
	for _, c := range e.conns {
		conns = append(conns, c)
	}
	e.mu.Unlock()
	for _, c := range conns {
		// Polite CEASE, then close.
		c.writeMu.Lock()
		_ = wire.WriteMessage(c.netConn, &wire.Notification{Code: wire.NotifCease})
		c.writeMu.Unlock()
		e.teardown(c)
	}
	e.wg.Wait()
}
