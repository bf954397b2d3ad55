package fabric

import (
	"slices"
	"strconv"
	"strings"

	"centralium/internal/bgp"
	"centralium/internal/topo"
)

// frame is the naming and ordering of a network's devices and sessions, none
// of which changes after the network is built: where each device and each
// link's session sits in the network's node and session slabs, the session
// IDs, and the order a state lists its sessions in. It depends on the
// topology's devices and links alone, so it travels with a state's frozen
// topology (NetState.frame): a network hands its own to the states it
// exports, and every network restored from one of them shares it, read-only,
// and hands it on to its own exports. A network built by New derives its
// own; a decoded state gets one derived out of the strings it already holds
// (NetState.Check), so a frame copies none of the session IDs of the state it
// was derived from. It is small — 16 bytes a device and 28 a link — because
// every state of a lineage, cached bases included, keeps it.
//
// It holds no map: a device is found by binary search in devs, and a session
// by the link index its ID begins with (see link). It holds no FIFO keys
// either: a state lists its FIFO entries by key, "<session>><receiver>", and
// since no ID the frame renders is a prefix of another — each is "s", the
// link index, ":" and the ends, and two indexes differ at a digit or where
// one has ":" and the other a digit — that is session order, each session's
// two ends in device order (dirs).
type frame struct {
	devs      []topo.DeviceID // in ID order: the order of Network.nodes and of a state's Nodes
	ids       []bgp.SessionID // each link's session ID, by link index
	ends      [][2]int32      // each link's end devices, as positions in devs
	sessOrder []int32         // the links by session ID
}

// newFrame names and indexes t's devices and links. With st, the state being
// restored, it takes each session ID from st where st holds the very string
// it would render — at its link's position in st.Sessions, as in every state
// of a topology with fewer than 10,000 links.
func newFrame(t *topo.Topology, st *NetState) *frame {
	devs := t.Devices()
	links := t.Links()
	f := &frame{
		devs:      make([]topo.DeviceID, len(devs)),
		ids:       make([]bgp.SessionID, len(links)),
		ends:      make([][2]int32, len(links)),
		sessOrder: make([]int32, len(links)),
	}
	for i, d := range devs {
		f.devs[i] = d.ID
	}
	var buf [64]byte
	for li, l := range links {
		id := appendSessionID(buf[:0], li, l)
		if st != nil && li < len(st.Sessions) && st.Sessions[li].ID == string(id) {
			f.ids[li] = bgp.SessionID(st.Sessions[li].ID)
		} else {
			f.ids[li] = bgp.SessionID(id)
		}
		f.ends[li] = [2]int32{f.dev(l.A), f.dev(l.B)}
		f.sessOrder[li] = int32(li)
	}
	slices.SortFunc(f.sessOrder, func(x, y int32) int { return strings.Compare(string(f.ids[x]), string(f.ids[y])) })
	return f
}

// dirs returns link li's two directions, the one toward the end whose device
// ID sorts first first: the order of the link's FIFO slots.
func (f *frame) dirs(li int32) [2]uint8 {
	if e := f.ends[li]; e[1] < e[0] {
		return [2]uint8{1, 0}
	}
	return [2]uint8{0, 1}
}

// dev returns the position of a device in devs, -1 if it has none.
func (f *frame) dev(id topo.DeviceID) int32 {
	if i, ok := slices.BinarySearch(f.devs, id); ok {
		return int32(i)
	}
	return -1
}

// link returns the index of the link whose session ID is id, -1 if there is
// none: the index is the number the ID begins with ("s%04d:A--B").
func (f *frame) link(id bgp.SessionID) int {
	li, i := 0, 1
	for ; i < len(id) && i <= 10 && '0' <= id[i] && id[i] <= '9'; i++ {
		li = li*10 + int(id[i]-'0')
	}
	if i == 1 || i >= len(id) || id[0] != 's' || id[i] != ':' || li >= len(f.ids) || f.ids[li] != id {
		return -1
	}
	return li
}

// appendSessionID renders link li's session ID, "s%04d:A--B".
func appendSessionID(b []byte, li int, l topo.Link) []byte {
	b = append(b, 's')
	for d := 1000; d > 1 && li < d; d /= 10 {
		b = append(b, '0')
	}
	b = strconv.AppendInt(b, int64(li), 10)
	b = append(b, ':')
	b = append(b, l.A...)
	b = append(b, "--"...)
	return append(b, l.B...)
}

// isFIFOKey reports whether key is "<id>><to>".
func isFIFOKey(key string, id bgp.SessionID, to topo.DeviceID) bool {
	return len(key) == len(id)+1+len(to) && key[len(id)] == '>' &&
		key[:len(id)] == string(id) && key[len(id)+1:] == string(to)
}
