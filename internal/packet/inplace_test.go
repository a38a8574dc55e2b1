package packet

import (
	"testing"
	"time"
)

func ethTCPFrame(ihlWords, dataOffWords int) []byte {
	eth := Ethernet{EtherType: EtherTypeIPv4}
	ip := IPv4{TTL: 64, Protocol: ProtoTCP}
	tcp := TCP{SrcPort: 1000, DstPort: 1883, Flags: TCPSyn}
	f := eth.Marshal(nil)
	f = ip.Marshal(f, TCPLen)
	f = tcp.Marshal(f)
	if ihlWords > 5 {
		// Splice IPv4 options in and fix the IHL nibble.
		opts := make([]byte, (ihlWords-5)*4)
		f = append(f[:EthernetLen+IPv4Len:EthernetLen+IPv4Len], append(opts, f[EthernetLen+IPv4Len:]...)...)
		f[EthernetLen] = 0x40 | byte(ihlWords)
	}
	if dataOffWords > 5 {
		l4 := EthernetLen + (ihlWords * 4)
		opts := make([]byte, (dataOffWords-5)*4)
		f = append(f[:l4+TCPLen:l4+TCPLen], opts...)
		f[l4+12] = byte(dataOffWords) << 4
	}
	return f
}

func TestParseFrameEthernetChains(t *testing.T) {
	cases := []struct {
		name  string
		frame []byte
		want  []HeaderLoc
		ok    bool
	}{
		{
			name:  "eth-ipv4-tcp",
			frame: ethTCPFrame(5, 5),
			want: []HeaderLoc{
				{HdrEthernet, 0, 14}, {HdrIPv4, 14, 20}, {HdrTCP, 34, 20},
			},
			ok: true,
		},
		{
			name:  "eth-ipv4opts-tcpopts",
			frame: ethTCPFrame(7, 6),
			want: []HeaderLoc{
				{HdrEthernet, 0, 14}, {HdrIPv4, 14, 28}, {HdrTCP, 42, 24},
			},
			ok: true,
		},
		{
			name: "eth-arp",
			frame: func() []byte {
				a := ARP{Op: ARPRequest}
				eth := Ethernet{EtherType: EtherTypeARP}
				return a.Marshal(eth.Marshal(nil))
			}(),
			want: []HeaderLoc{{HdrEthernet, 0, 14}, {HdrARP, 14, 28}},
			ok:   true,
		},
		{
			name: "eth-unknown-ethertype",
			frame: func() []byte {
				eth := Ethernet{EtherType: 0x86dd}
				return eth.Marshal(nil)
			}(),
			want: []HeaderLoc{{HdrEthernet, 0, 14}},
			ok:   true,
		},
		{name: "truncated-eth", frame: make([]byte, 13), want: nil, ok: false},
		{
			name: "truncated-ipv4",
			frame: func() []byte {
				eth := Ethernet{EtherType: EtherTypeIPv4}
				return append(eth.Marshal(nil), 0x45, 0)
			}(),
			want: []HeaderLoc{{HdrEthernet, 0, 14}},
			ok:   false,
		},
		{
			name: "ipv6-version-nibble",
			frame: func() []byte {
				f := ethTCPFrame(5, 5)
				f[EthernetLen] = 0x65
				return f
			}(),
			want: []HeaderLoc{{HdrEthernet, 0, 14}},
			ok:   false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var d FrameDesc
			ok := ParseFrame(LinkEthernet, tc.frame, &d)
			if ok != tc.ok || d.Accepted != tc.ok {
				t.Fatalf("accepted = %v/%v, want %v", ok, d.Accepted, tc.ok)
			}
			if len(d.Headers()) != len(tc.want) {
				t.Fatalf("headers = %v, want %v", d.Headers(), tc.want)
			}
			for i, h := range d.Headers() {
				if h != tc.want[i] {
					t.Fatalf("header %d = %+v, want %+v", i, h, tc.want[i])
				}
			}
		})
	}
}

func TestParseFrameLowPowerLinks(t *testing.T) {
	mac := IEEE802154{FrameType: FrameData, Seq: 1, PANID: 2, Dst: 3, Src: 4}
	nwk := ZigbeeNWK{FrameType: ZigbeeData, Dst: 1, Src: 2, Radius: 3, Seq: 4}
	zig := nwk.Marshal(mac.Marshal(nil))

	var d FrameDesc
	if !ParseFrame(LinkIEEE802154, zig, &d) {
		t.Fatal("zigbee frame rejected")
	}
	want := []HeaderLoc{{Hdr802154, 0, 9}, {HdrZigbeeNWK, 9, 8}}
	for i, h := range d.Headers() {
		if h != want[i] {
			t.Fatalf("header %d = %+v, want %+v", i, h, want[i])
		}
	}

	// An ACK frame (no data payload) stops at the MAC header.
	ack := IEEE802154{FrameType: FrameAck, Seq: 9}
	if !ParseFrame(LinkIEEE802154, ack.Marshal(nil), &d) || d.N != 1 || d.Hdrs[0].Kind != Hdr802154 {
		t.Fatalf("ack frame parse = %+v", d)
	}

	// Long-addressing FCF is rejected, matching the codec.
	bad := mac.Marshal(nil)
	bad[1] = (bad[1] &^ 0x0c) | 0x0c // dst addressing mode 3
	if ParseFrame(LinkIEEE802154, bad, &d) || d.N != 0 {
		t.Fatalf("long-addressing frame accepted: %+v", d)
	}

	ble := BLELinkLayer{AccessAddress: BLEAdvAccessAddress, PDUType: BLEAdvInd, Payload: []byte{1, 2, 3}}
	bf := ble.Marshal(nil)
	if !ParseFrame(LinkBLE, bf, &d) || d.N != 1 {
		t.Fatalf("ble frame parse = %+v", d)
	}
	if got := d.Hdrs[0]; got != (HeaderLoc{HdrBLE, 0, uint16(len(bf))}) {
		t.Fatalf("ble header = %+v", got)
	}
	// Payload length pointing past the buffer is rejected.
	bf[5] = byte(len(bf)) // plen such that 6+plen > len
	if ParseFrame(LinkBLE, bf, &d) {
		t.Fatal("over-length ble frame accepted")
	}
}

func TestFrameDescFind(t *testing.T) {
	var d FrameDesc
	ParseFrame(LinkEthernet, ethTCPFrame(5, 5), &d)
	off, n, ok := d.Find(HdrIPv4)
	if !ok || off != 14 || n != 20 {
		t.Fatalf("Find(ipv4) = %d,%d,%v", off, n, ok)
	}
	if _, _, ok := d.Find(HdrUDP); ok {
		t.Fatal("found absent header")
	}
}

func TestAcceptFrameAllocationFree(t *testing.T) {
	frames := [][]byte{
		ethTCPFrame(5, 5),
		ethTCPFrame(7, 6),
		func() []byte {
			ble := BLELinkLayer{AccessAddress: BLEAdvAccessAddress, Payload: []byte{1, 2, 3, 4}}
			return ble.Marshal(nil)
		}(),
	}
	links := []LinkType{LinkEthernet, LinkEthernet, LinkBLE}
	for i, f := range frames {
		link := links[i]
		allocs := testing.AllocsPerRun(200, func() {
			if !AcceptFrame(link, f) {
				t.Fatal("frame rejected")
			}
		})
		if allocs != 0 {
			t.Fatalf("AcceptFrame(%v) allocates %.1f/op", link, allocs)
		}
	}
}

func TestParseFrameIgnoresPacketTime(t *testing.T) {
	// ParseFrame sees only bytes: the same frame wrapped in Packets with
	// different timestamps parses identically (guards against descriptor
	// code ever reading Packet state).
	f := ethTCPFrame(5, 5)
	p1 := Packet{Time: time.Millisecond, Link: LinkEthernet, Bytes: f}
	p2 := Packet{Time: time.Hour, Link: LinkEthernet, Bytes: f}
	var d1, d2 FrameDesc
	ParseFrame(p1.Link, p1.Bytes, &d1)
	ParseFrame(p2.Link, p2.Bytes, &d2)
	if d1 != d2 {
		t.Fatalf("descriptors differ: %+v vs %+v", d1, d2)
	}
}
