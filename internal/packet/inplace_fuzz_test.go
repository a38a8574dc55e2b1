// Fuzz agreement between the in-place descriptor parser and a reference
// built from the header codecs' Unmarshal methods. It lives in package
// packet_test so the reference sees the decoders as any caller does.
package packet_test

import (
	"testing"

	"p4guard/internal/packet"
)

// refHeader is one header the reference located.
type refHeader struct {
	name     string
	off, len int
}

// refFrame walks one frame with the header decoders, straight-line per
// link, and records each header it decodes.
type refFrame struct {
	f    []byte
	off  int
	hdrs []refHeader
}

// take decodes the next header with h and records it under name; a decode
// error rejects the frame.
func (r *refFrame) take(name string, h interface{ Unmarshal([]byte) (int, error) }) bool {
	n, err := h.Unmarshal(r.f[r.off:])
	if err != nil {
		return false
	}
	r.hdrs = append(r.hdrs, refHeader{name, r.off, n})
	r.off += n
	return true
}

// parse reports whether the frame is accepted on the link. After Ethernet
// only IPv4 and ARP continue, after IPv4 only TCP, UDP and ICMP: any other
// type accepts where it stands. 802.15.4 goes on to the Zigbee NWK header
// only for a data frame with a whole NWK header left. An unknown link
// rejects.
func (r *refFrame) parse(link packet.LinkType) bool {
	switch link {
	case packet.LinkEthernet:
		var eth packet.Ethernet
		if !r.take("ethernet", &eth) {
			return false
		}
		switch eth.EtherType {
		case packet.EtherTypeARP:
			return r.take("arp", &packet.ARP{})
		case packet.EtherTypeIPv4:
			var ip packet.IPv4
			if !r.take("ipv4", &ip) {
				return false
			}
			switch ip.Protocol {
			case packet.ProtoTCP:
				return r.take("tcp", &packet.TCP{})
			case packet.ProtoUDP:
				return r.take("udp", &packet.UDP{})
			case packet.ProtoICMP:
				return r.take("icmp", &packet.ICMP{})
			}
		}
		return true
	case packet.LinkIEEE802154:
		var mac packet.IEEE802154
		if !r.take("mac", &mac) {
			return false
		}
		if mac.FrameType == packet.FrameData && len(r.f)-r.off >= packet.ZigbeeNWKLen {
			return r.take("nwk", &packet.ZigbeeNWK{})
		}
		return true
	case packet.LinkBLE:
		return r.take("ll", &packet.BLELinkLayer{})
	default:
		return false
	}
}

// descAgrees fails the test unless ParseFrame and the reference agree
// field for field — acceptance, header count, and each header's kind
// name, offset and length — and AcceptFrame agrees on acceptance.
func descAgrees(t *testing.T, link packet.LinkType, data []byte) {
	t.Helper()
	ref := refFrame{f: data}
	accepted := ref.parse(link)
	var d packet.FrameDesc
	ok := packet.ParseFrame(link, data, &d)
	if ok != accepted || d.Accepted != accepted {
		t.Fatalf("link %v: in-place accepted=%v, reference accepted=%v (frame %x)",
			link, ok, accepted, data)
	}
	if d.N != len(ref.hdrs) {
		t.Fatalf("link %v: in-place found %d headers, reference %d (frame %x)",
			link, d.N, len(ref.hdrs), data)
	}
	for i, h := range d.Hdrs[:d.N] {
		r := ref.hdrs[i]
		if h.Kind.String() != r.name || int(h.Off) != r.off || int(h.Len) != r.len {
			t.Fatalf("link %v header %d: in-place %s@%d+%d, reference %s@%d+%d (frame %x)",
				link, i, h.Kind, h.Off, h.Len, r.name, r.off, r.len, data)
		}
	}
	if got := packet.AcceptFrame(link, data); got != accepted {
		t.Fatalf("link %v: AcceptFrame=%v, reference accepted=%v (frame %x)", link, got, accepted, data)
	}
}

// links are the links the fuzz and mutation checks parse every frame on;
// the last one is unknown and must reject.
var links = []packet.LinkType{packet.LinkEthernet, packet.LinkIEEE802154, packet.LinkBLE, packet.LinkType(99)}

func inplaceSeedFrames() [][]byte {
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP}
	tcp := packet.TCP{SrcPort: 1, DstPort: 1883, Flags: packet.TCPSyn}
	tcpFrame := tcp.Marshal(ip.Marshal(eth.Marshal(nil), packet.TCPLen))

	udpEth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	udpIP := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP}
	udp := packet.UDP{SrcPort: 1, DstPort: 5683}
	udpFrame := udp.Marshal(udpIP.Marshal(udpEth.Marshal(nil), packet.UDPLen), 0)

	arpEth := packet.Ethernet{EtherType: packet.EtherTypeARP}
	arp := packet.ARP{Op: packet.ARPRequest}
	arpFrame := arp.Marshal(arpEth.Marshal(nil))

	mac := packet.IEEE802154{FrameType: packet.FrameData, PANID: 1, Dst: 2, Src: 3}
	nwk := packet.ZigbeeNWK{FrameType: packet.ZigbeeData, Dst: 4, Src: 5}
	zigFrame := nwk.Marshal(mac.Marshal(nil))

	ble := packet.BLELinkLayer{AccessAddress: packet.BLEAdvAccessAddress, PDUType: packet.BLEAdvInd, Payload: []byte{1, 2}}
	bleFrame := ble.Marshal(nil)
	bareBLE := packet.BLELinkLayer{AccessAddress: packet.BLEAdvAccessAddress, PDUType: packet.BLEAdvInd}

	return [][]byte{
		tcpFrame, udpFrame, arpFrame, zigFrame, bleFrame,
		tcpFrame[:10], tcpFrame[:20], tcpFrame[:35],
		{}, {0xff}, {0x45, 0x00},
		bareBLE.Marshal(nil), // no payload: exactly BLEMinLen bytes
	}
}

// FuzzInPlaceParserAgreement fuzzes raw frames through every link's
// in-place parser: it must agree field for field with the reference
// and never read out of bounds (the fuzz harness catches panics) on
// truncated or malformed input.
func FuzzInPlaceParserAgreement(f *testing.F) {
	for _, seed := range inplaceSeedFrames() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, link := range links {
			descAgrees(t, link, data)
		}
	})
}

// TestInPlaceParserAgreementMutations runs the agreement check over
// systematic mutations of valid frames — every truncation length and
// every single-byte corruption position of the first 64 bytes — so the
// boundary conditions are pinned even without long fuzz runs.
func TestInPlaceParserAgreementMutations(t *testing.T) {
	for _, seed := range inplaceSeedFrames() {
		for _, link := range links {
			for n := 0; n <= len(seed); n++ {
				descAgrees(t, link, seed[:n])
			}
			mut := make([]byte, len(seed))
			for pos := 0; pos < len(seed) && pos < 64; pos++ {
				for _, b := range []byte{0x00, 0x0f, 0x46, 0xff} {
					copy(mut, seed)
					mut[pos] = b
					descAgrees(t, link, mut)
				}
			}
		}
	}
}
