package telemetry

import (
	"fmt"
	"net/netip"

	"centralium/internal/bgp/wire"
	"centralium/internal/telemetry/bmpwire"
)

// This file maps tap events onto the BMP-style wire encoding and back. A
// stream is per-device, like a real BMP session: the Initiation message
// binds the device (sysName TLV) and subsequent messages inherit it.
//
// Mapping:
//
//	KindAdjRIBIn      <-> Route Monitoring, global peer type (RFC 7854)
//	KindBestPath      <-> Route Monitoring, Loc-RIB peer type (RFC 9069)
//	KindSessionUp     <-> Peer Up (session name in an Information TLV)
//	KindSessionDown   <-> Peer Down (session name in the reason data)
//	KindFIBWrite      <-> Stats Report with NHG/FIB gauges
//	KindRPAHit        <-> Stats Report with the statement-name TLV
//	KindTrafficSample <-> Stats Report with traffic-share gauges
//
// Symbolic community strings are not carried — detectors do not consume
// them.

// sharePPM converts a fraction to parts-per-million for the wire.
func sharePPM(f float64) uint64 { return uint64(f * 1e6) }

func fromPPM(v uint64) float64 { return float64(v) / 1e6 }

// EncodeEvent converts one tap event into a BMP message.
func EncodeEvent(ev Event) (bmpwire.Message, error) {
	peer := bmpwire.PeerHeader{
		PeerType:      bmpwire.PeerTypeGlobal,
		PeerDevice:    ev.Peer,
		AS:            ev.PeerASN,
		TimestampNano: ev.Time,
	}
	switch ev.Kind {
	case KindAdjRIBIn, KindBestPath:
		if ev.Kind == KindBestPath {
			peer.PeerType = bmpwire.PeerTypeLocRIB
		}
		u, err := routePDU(ev)
		if err != nil {
			return nil, err
		}
		return &bmpwire.RouteMonitoring{Peer: peer, Update: u}, nil

	case KindSessionUp:
		return &bmpwire.PeerUp{
			Peer:        peer,
			LocalDevice: ev.Device,
			Information: []bmpwire.TLV{bmpwire.StringTLV(bmpwire.InfoSession, ev.Session)},
		}, nil

	case KindSessionDown:
		return &bmpwire.PeerDown{
			Peer:   peer,
			Reason: bmpwire.PeerDownLocalNoNotif,
			Data:   []byte(ev.Session),
		}, nil

	case KindFIBWrite:
		stats := []bmpwire.TLV{
			bmpwire.U64TLV(bmpwire.StatNHGOccupancy, uint64(ev.NHGroups)),
			bmpwire.U64TLV(bmpwire.StatNHGLimit, uint64(ev.NHGLimit)),
			bmpwire.U64TLV(bmpwire.StatNHGChurn, uint64(ev.NHGChurn)),
			bmpwire.U64TLV(bmpwire.StatNHGOverflows, uint64(ev.Overflows)),
			bmpwire.U64TLV(bmpwire.StatFIBEntries, uint64(ev.FIBEntries)),
			bmpwire.U64TLV(bmpwire.StatFIBWarm, b2u(ev.Warm)),
			bmpwire.U64TLV(bmpwire.StatFIBRemoved, b2u(ev.Withdraw)),
		}
		if ev.Prefix.IsValid() {
			stats = append(stats, bmpwire.StringTLV(bmpwire.StatPrefix, ev.Prefix.String()))
		}
		return &bmpwire.StatsReport{Peer: peer, Stats: stats}, nil

	case KindRPAHit:
		stats := []bmpwire.TLV{bmpwire.StringTLV(bmpwire.StatRPAStatement, ev.Statement)}
		if ev.Prefix.IsValid() {
			stats = append(stats, bmpwire.StringTLV(bmpwire.StatPrefix, ev.Prefix.String()))
		}
		return &bmpwire.StatsReport{Peer: peer, Stats: stats}, nil

	case KindTrafficSample:
		return &bmpwire.StatsReport{Peer: peer, Stats: []bmpwire.TLV{
			bmpwire.U64TLV(bmpwire.StatTrafficShare, sharePPM(ev.Share)),
			bmpwire.U64TLV(bmpwire.StatTrafficFair, sharePPM(ev.FairShare)),
			bmpwire.U64TLV(bmpwire.StatTrafficBlackhol, sharePPM(ev.Blackholed)),
		}}, nil
	}
	return nil, fmt.Errorf("telemetry: unencodable event kind %v", ev.Kind)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// routePDU wraps the event's route content in a BGP UPDATE.
func routePDU(ev Event) (*wire.Update, error) {
	u := &wire.Update{}
	isV6 := ev.Prefix.Addr().Is6() && !ev.Prefix.Addr().Is4In6()
	if ev.Withdraw {
		if isV6 {
			u.MPUnreach = &wire.MPUnreach{Withdrawn: []netip.Prefix{ev.Prefix}}
		} else {
			u.Withdrawn = []netip.Prefix{ev.Prefix}
		}
		return u, nil
	}
	if len(ev.ASPath) > 0 {
		u.ASPath = []wire.ASPathSegment{{Type: wire.SegSequence, ASNs: ev.ASPath}}
	}
	if ev.MED != 0 {
		u.MED, u.HasMED = ev.MED, true
	}
	if ev.LinkBandwidthGbps > 0 {
		u.ExtCommunities = []wire.ExtCommunity{
			wire.LinkBandwidth(wire.ASTrans, float32(ev.LinkBandwidthGbps*1e9/8)),
		}
	}
	if isV6 {
		u.MPReach = &wire.MPReach{NextHop: netip.IPv6Unspecified(), NLRI: []netip.Prefix{ev.Prefix}}
	} else {
		u.NLRI = []netip.Prefix{ev.Prefix}
		// The tap has device names, not addresses; the mandatory NEXT_HOP
		// slot carries the unspecified address.
		u.NextHop = netip.IPv4Unspecified()
	}
	return u, nil
}

// DecodeMessage converts a BMP message back into a tap event for the
// stream's bound device. Initiation and Termination frames carry no event
// and report ok=false.
func DecodeMessage(device string, m bmpwire.Message) (Event, bool) {
	switch msg := m.(type) {
	case *bmpwire.RouteMonitoring:
		ev := Event{
			Kind:    KindAdjRIBIn,
			Time:    msg.Peer.TimestampNano,
			Device:  device,
			Peer:    msg.Peer.PeerDevice,
			PeerASN: msg.Peer.AS,
		}
		if msg.Peer.PeerType == bmpwire.PeerTypeLocRIB {
			ev.Kind = KindBestPath
		}
		u := msg.Update
		switch {
		case len(u.Withdrawn) > 0:
			ev.Prefix, ev.Withdraw = u.Withdrawn[0], true
		case u.MPUnreach != nil && len(u.MPUnreach.Withdrawn) > 0:
			ev.Prefix, ev.Withdraw = u.MPUnreach.Withdrawn[0], true
		case len(u.NLRI) > 0:
			ev.Prefix = u.NLRI[0]
		case u.MPReach != nil && len(u.MPReach.NLRI) > 0:
			ev.Prefix = u.MPReach.NLRI[0]
		}
		if !ev.Withdraw {
			ev.ASPath = u.FlatASPath()
			if u.HasMED {
				ev.MED = u.MED
			}
			for _, ec := range u.ExtCommunities {
				if _, bytesPerSec, ok := ec.AsLinkBandwidth(); ok {
					ev.LinkBandwidthGbps = float64(bytesPerSec) * 8 / 1e9
				}
			}
		}
		return ev, true

	case *bmpwire.PeerUp:
		return Event{
			Kind:    KindSessionUp,
			Time:    msg.Peer.TimestampNano,
			Device:  device,
			Peer:    msg.Peer.PeerDevice,
			PeerASN: msg.Peer.AS,
			Session: msg.Session(),
		}, true

	case *bmpwire.PeerDown:
		return Event{
			Kind:    KindSessionDown,
			Time:    msg.Peer.TimestampNano,
			Device:  device,
			Peer:    msg.Peer.PeerDevice,
			PeerASN: msg.Peer.AS,
			Session: string(msg.Data),
		}, true

	case *bmpwire.StatsReport:
		ev := Event{
			Time:   msg.Peer.TimestampNano,
			Device: device,
			Peer:   msg.Peer.PeerDevice,
		}
		if tlv, ok := msg.Stat(bmpwire.StatPrefix); ok {
			if p, err := netip.ParsePrefix(string(tlv.Value)); err == nil {
				ev.Prefix = p
			}
		}
		if tlv, ok := msg.Stat(bmpwire.StatRPAStatement); ok {
			ev.Kind = KindRPAHit
			ev.Statement = string(tlv.Value)
			return ev, true
		}
		if tlv, ok := msg.Stat(bmpwire.StatTrafficShare); ok {
			ev.Kind = KindTrafficSample
			if v, ok := tlv.U64(); ok {
				ev.Share = fromPPM(v)
			}
			ev.FairShare = statPPM(msg, bmpwire.StatTrafficFair)
			ev.Blackholed = statPPM(msg, bmpwire.StatTrafficBlackhol)
			return ev, true
		}
		ev.Kind = KindFIBWrite
		ev.NHGroups = statInt(msg, bmpwire.StatNHGOccupancy)
		ev.NHGLimit = statInt(msg, bmpwire.StatNHGLimit)
		ev.NHGChurn = statInt(msg, bmpwire.StatNHGChurn)
		ev.Overflows = statInt(msg, bmpwire.StatNHGOverflows)
		ev.FIBEntries = statInt(msg, bmpwire.StatFIBEntries)
		ev.Warm = statInt(msg, bmpwire.StatFIBWarm) != 0
		ev.Withdraw = statInt(msg, bmpwire.StatFIBRemoved) != 0
		return ev, true
	}
	return Event{}, false
}

func statInt(m *bmpwire.StatsReport, t uint16) int {
	if tlv, ok := m.Stat(t); ok {
		if v, ok := tlv.U64(); ok {
			return int(v)
		}
	}
	return 0
}

func statPPM(m *bmpwire.StatsReport, t uint16) float64 {
	if tlv, ok := m.Stat(t); ok {
		if v, ok := tlv.U64(); ok {
			return fromPPM(v)
		}
	}
	return 0
}
