// Package flowstats reassembles packets into flows and computes the
// statistical features classical flow-based IDS baselines consume: packet
// and byte counts, inter-arrival statistics, length statistics, rates, and
// TCP-flag fractions. Flow keys are direction-symmetric so both halves of a
// conversation share state.
package flowstats

import (
	"math"
	"time"

	"p4guard/internal/packet"
)

// FlowKey identifies a bidirectional conversation. For IP traffic it is the
// canonical 5-tuple; for 802.15.4 the PAN and short addresses; for BLE the
// advertiser address and PDU type.
type FlowKey struct {
	Proto byte
	A, B  uint64 // canonical endpoint identifiers, A <= B
}

// KeyFor extracts the flow key from a frame. ok is false when the frame
// does not decode far enough to key it; such packets form per-link
// catch-all flows.
func KeyFor(pkt *packet.Packet) (FlowKey, bool) {
	switch pkt.Link {
	case packet.LinkEthernet:
		return ethernetKey(pkt.Bytes)
	case packet.LinkIEEE802154:
		var mac packet.IEEE802154
		if _, err := mac.Unmarshal(pkt.Bytes); err != nil {
			return FlowKey{}, false
		}
		a := uint64(mac.PANID)<<16 | uint64(mac.Src)
		b := uint64(mac.PANID)<<16 | uint64(mac.Dst)
		return canonical(mac.FrameType, a, b), true
	case packet.LinkBLE:
		var ll packet.BLELinkLayer
		if _, err := ll.Unmarshal(pkt.Bytes); err != nil {
			return FlowKey{}, false
		}
		var addr uint64
		for _, b := range ll.AdvAddr {
			addr = addr<<8 | uint64(b)
		}
		return FlowKey{Proto: ll.PDUType, A: addr, B: 0}, true
	default:
		return FlowKey{}, false
	}
}

func ethernetKey(frame []byte) (FlowKey, bool) {
	var eth packet.Ethernet
	n, err := eth.Unmarshal(frame)
	if err != nil {
		return FlowKey{}, false
	}
	if eth.EtherType != packet.EtherTypeIPv4 {
		// Key non-IP (e.g. ARP) by MAC pair.
		var a, b uint64
		for _, v := range eth.Src {
			a = a<<8 | uint64(v)
		}
		for _, v := range eth.Dst {
			b = b<<8 | uint64(v)
		}
		return canonical(0, a, b), true
	}
	var ip packet.IPv4
	m, err := ip.Unmarshal(frame[n:])
	if err != nil {
		return FlowKey{}, false
	}
	var sport, dport uint16
	switch ip.Protocol {
	case packet.ProtoTCP:
		var tcp packet.TCP
		if _, err := tcp.Unmarshal(frame[n+m:]); err == nil {
			sport, dport = tcp.SrcPort, tcp.DstPort
		}
	case packet.ProtoUDP:
		var udp packet.UDP
		if _, err := udp.Unmarshal(frame[n+m:]); err == nil {
			sport, dport = udp.SrcPort, udp.DstPort
		}
	}
	a := endpointID(ip.Src, sport)
	b := endpointID(ip.Dst, dport)
	return canonical(ip.Protocol, a, b), true
}

func endpointID(ip [4]byte, port uint16) uint64 {
	var v uint64
	for _, b := range ip {
		v = v<<8 | uint64(b)
	}
	return v<<16 | uint64(port)
}

// canonical orders the endpoints so both directions map to one key.
func canonical(proto byte, a, b uint64) FlowKey {
	if a > b {
		a, b = b, a
	}
	return FlowKey{Proto: proto, A: a, B: b}
}

// flowState accumulates running statistics (Welford for variances).
type flowState struct {
	count     int
	bytes     int
	first     time.Duration
	last      time.Duration
	iatMean   float64
	iatM2     float64
	lenMean   float64
	lenM2     float64
	synCount  int
	smallPkts int
}

// Tracker maintains per-flow state across a trace.
type Tracker struct {
	flows map[FlowKey]*flowState
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{flows: make(map[FlowKey]*flowState)}
}

// Flows returns the number of distinct flows seen.
func (t *Tracker) Flows() int { return len(t.flows) }

// Update folds the packet into its flow and returns the flow's feature
// vector as of this packet: pkt_count, byte_count, duration_s,
// mean_iat_ms, std_iat_ms, mean_len, std_len, pps, syn_frac and
// small_pkt_frac. Packets must be fed in time order for inter-arrival
// features to be meaningful.
func (t *Tracker) Update(pkt *packet.Packet) []float64 {
	key, ok := KeyFor(pkt)
	if !ok {
		key = FlowKey{Proto: 0xff, A: uint64(pkt.Link), B: 0}
	}
	st := t.flows[key]
	if st == nil {
		st = &flowState{first: pkt.Time, last: pkt.Time}
		t.flows[key] = st
	}

	if st.count > 0 {
		iat := float64(pkt.Time-st.last) / float64(time.Millisecond)
		st.iatMean, st.iatM2 = welford(st.iatMean, st.iatM2, iat, st.count-1)
	}
	plen := float64(len(pkt.Bytes))
	st.lenMean, st.lenM2 = welford(st.lenMean, st.lenM2, plen, st.count)
	st.count++
	st.bytes += len(pkt.Bytes)
	st.last = pkt.Time
	if len(pkt.Bytes) < 64 {
		st.smallPkts++
	}
	if isSyn(pkt) {
		st.synCount++
	}

	dur := (st.last - st.first).Seconds()
	pps := 0.0
	if dur > 0 {
		pps = float64(st.count) / dur
	}
	iatN := st.count - 1
	return []float64{
		float64(st.count),
		float64(st.bytes),
		dur,
		st.iatMean,
		stddev(st.iatM2, iatN),
		st.lenMean,
		stddev(st.lenM2, st.count),
		pps,
		float64(st.synCount) / float64(st.count),
		float64(st.smallPkts) / float64(st.count),
	}
}

// welford updates a running mean and M2 with the (n+1)-th observation.
func welford(mean, m2, x float64, n int) (float64, float64) {
	n1 := float64(n + 1)
	delta := x - mean
	mean += delta / n1
	m2 += delta * (x - mean)
	return mean, m2
}

func stddev(m2 float64, n int) float64 {
	if n < 2 {
		return 0
	}
	return math.Sqrt(m2 / float64(n-1))
}

// isSyn reports whether the packet is a TCP segment with SYN set and ACK
// clear.
func isSyn(pkt *packet.Packet) bool {
	if pkt.Link != packet.LinkEthernet {
		return false
	}
	var eth packet.Ethernet
	n, err := eth.Unmarshal(pkt.Bytes)
	if err != nil || eth.EtherType != packet.EtherTypeIPv4 {
		return false
	}
	var ip packet.IPv4
	m, err := ip.Unmarshal(pkt.Bytes[n:])
	if err != nil || ip.Protocol != packet.ProtoTCP {
		return false
	}
	var tcp packet.TCP
	if _, err := tcp.Unmarshal(pkt.Bytes[n+m:]); err != nil {
		return false
	}
	return tcp.Flags&packet.TCPSyn != 0 && tcp.Flags&packet.TCPAck == 0
}
