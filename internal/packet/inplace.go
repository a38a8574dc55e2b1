package packet

// In-place frame parsing, the one parser the data plane runs. ParseFrame
// resolves the header chain of a raw frame into a small fixed-size
// descriptor with pure offset arithmetic — no header structs are
// materialized, no payload bytes are copied, and nothing escapes to the
// heap. It accepts what the header codecs' Unmarshal methods decode: the
// fuzz suite holds it field for field, on arbitrary frames, to a
// reference built from those decoders.

// HeaderKind identifies one located header in a FrameDesc.
type HeaderKind uint8

// Header kinds the in-place parser locates.
const (
	HdrNone HeaderKind = iota
	HdrEthernet
	HdrARP
	HdrIPv4
	HdrTCP
	HdrUDP
	HdrICMP
	Hdr802154
	HdrZigbeeNWK
	HdrBLE
)

// String returns the header's short name: "ethernet", "ipv4", "mac" for
// 802.15.4, "nwk" for Zigbee, "ll" for BLE and so on.
func (k HeaderKind) String() string {
	switch k {
	case HdrEthernet:
		return "ethernet"
	case HdrARP:
		return "arp"
	case HdrIPv4:
		return "ipv4"
	case HdrTCP:
		return "tcp"
	case HdrUDP:
		return "udp"
	case HdrICMP:
		return "icmp"
	case Hdr802154:
		return "mac"
	case HdrZigbeeNWK:
		return "nwk"
	case HdrBLE:
		return "ll"
	default:
		return "none"
	}
}

// MaxFrameHeaders is the deepest header chain any standard stack
// produces (ethernet → ipv4 → l4).
const MaxFrameHeaders = 4

// HeaderLoc is one located header: kind plus the byte range it occupies.
type HeaderLoc struct {
	Kind HeaderKind
	Off  uint16
	Len  uint16
}

// FrameDesc is the in-place parse result: a fixed-size descriptor of
// header offsets resolved directly over the raw frame. It holds no
// pointers into the frame (offsets only), so a descriptor may outlive
// the buffer it described and arenas can recycle both independently.
type FrameDesc struct {
	N        int
	Accepted bool
	Hdrs     [MaxFrameHeaders]HeaderLoc
}

func (d *FrameDesc) push(kind HeaderKind, off, n int) {
	if d.N < len(d.Hdrs) {
		d.Hdrs[d.N] = HeaderLoc{Kind: kind, Off: uint16(off), Len: uint16(n)}
		d.N++
	}
}

// ParseFrame resolves the frame's header chain in place for the link
// type, filling d (which is reset first) and reporting whether the frame
// reaches an accepting state. It never reads out of bounds on truncated
// or malformed frames and allocates nothing.
func ParseFrame(link LinkType, frame []byte, d *FrameDesc) bool {
	d.N = 0
	d.Accepted = false
	switch link {
	case LinkEthernet:
		d.Accepted = parseEthernetInPlace(frame, d)
	case LinkIEEE802154:
		d.Accepted = parse802154InPlace(frame, d)
	case LinkBLE:
		d.Accepted = parseBLEInPlace(frame, d)
	}
	return d.Accepted
}

// AcceptFrame reports whether the frame parses to an accepting state,
// with no header materialization and no allocation (the BLE decoder's
// Unmarshal copies the PDU payload; this path only checks its bounds).
func AcceptFrame(link LinkType, frame []byte) bool {
	var d FrameDesc
	return ParseFrame(link, frame, &d)
}

func parseEthernetInPlace(f []byte, d *FrameDesc) bool {
	if len(f) < EthernetLen {
		return false
	}
	d.push(HdrEthernet, 0, EthernetLen)
	switch uint16(f[12])<<8 | uint16(f[13]) {
	case EtherTypeIPv4:
		return parseIPv4InPlace(f, EthernetLen, d)
	case EtherTypeARP:
		b := f[EthernetLen:]
		if len(b) < ARPLen {
			return false
		}
		// The reference codec rejects non-Ethernet hardware types.
		if uint16(b[0])<<8|uint16(b[1]) != 1 {
			return false
		}
		d.push(HdrARP, EthernetLen, ARPLen)
		return true
	default:
		return true
	}
}

func parseIPv4InPlace(f []byte, off int, d *FrameDesc) bool {
	b := f[off:]
	if len(b) < IPv4Len {
		return false
	}
	if b[0]>>4 != 4 {
		return false
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4Len || len(b) < ihl {
		return false
	}
	d.push(HdrIPv4, off, ihl)
	next := off + ihl
	switch b[9] {
	case ProtoTCP:
		t := f[next:]
		if len(t) < TCPLen {
			return false
		}
		dataOff := int(t[12]>>4) * 4
		if dataOff < TCPLen || len(t) < dataOff {
			return false
		}
		d.push(HdrTCP, next, dataOff)
		return true
	case ProtoUDP:
		if len(f)-next < UDPLen {
			return false
		}
		d.push(HdrUDP, next, UDPLen)
		return true
	case ProtoICMP:
		if len(f)-next < ICMPLen {
			return false
		}
		d.push(HdrICMP, next, ICMPLen)
		return true
	default:
		return true
	}
}

func parse802154InPlace(f []byte, d *FrameDesc) bool {
	if len(f) < IEEE802154Len {
		return false
	}
	fcf := uint16(f[0]) | uint16(f[1])<<8
	// The reference codec only decodes short destination addressing.
	if fcf>>10&0x3 != 2 {
		return false
	}
	d.push(Hdr802154, 0, IEEE802154Len)
	if byte(fcf&0x7) == FrameData && len(f) >= IEEE802154Len+ZigbeeNWKLen {
		d.push(HdrZigbeeNWK, IEEE802154Len, ZigbeeNWKLen)
	}
	return true
}

func parseBLEInPlace(f []byte, d *FrameDesc) bool {
	if len(f) < BLEMinLen {
		return false
	}
	plen := int(f[5])
	if plen < 6 || 6+plen > len(f) {
		return false
	}
	d.push(HdrBLE, 0, 6+plen)
	return true
}
