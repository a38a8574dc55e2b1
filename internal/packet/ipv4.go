package packet

import (
	"encoding/binary"
	"fmt"
)

// IPv4Len is the length of an option-less IPv4 header.
const IPv4Len = 20

// IP protocol numbers used by the generator and parser.
const (
	ProtoICMP byte = 1
	ProtoTCP  byte = 6
	ProtoUDP  byte = 17
)

// IPv4 is an option-less IPv4 header. TotalLen and Checksum are computed at
// Marshal time; the stored Checksum is what was decoded.
type IPv4 struct {
	TOS      byte
	TotalLen uint16
	ID       uint16
	Flags    byte // 3 bits: reserved, DF, MF
	FragOff  uint16
	TTL      byte
	Protocol byte
	Checksum uint16
	Src      [4]byte
	Dst      [4]byte
}

// Marshal appends the wire form of h to dst, computing the checksum over the
// header with TotalLen = IPv4Len + payloadLen.
func (h *IPv4) Marshal(dst []byte, payloadLen int) []byte {
	start := len(dst)
	total := uint16(IPv4Len + payloadLen)
	dst = append(dst, 0x45, h.TOS) // version 4, IHL 5
	dst = binary.BigEndian.AppendUint16(dst, total)
	dst = binary.BigEndian.AppendUint16(dst, h.ID)
	ff := uint16(h.Flags&0x7)<<13 | (h.FragOff & 0x1fff)
	dst = binary.BigEndian.AppendUint16(dst, ff)
	dst = append(dst, h.TTL, h.Protocol, 0, 0) // checksum placeholder
	dst = append(dst, h.Src[:]...)
	dst = append(dst, h.Dst[:]...)
	sum := ipChecksum(dst[start : start+IPv4Len])
	binary.BigEndian.PutUint16(dst[start+10:start+12], sum)
	return dst
}

// Unmarshal decodes the header from b and returns the number of bytes read
// (IHL×4, options skipped).
func (h *IPv4) Unmarshal(b []byte) (int, error) {
	if len(b) < IPv4Len {
		return 0, fmt.Errorf("ipv4 needs %d bytes, have %d: %w", IPv4Len, len(b), ErrTruncated)
	}
	if v := b[0] >> 4; v != 4 {
		return 0, fmt.Errorf("ipv4: version %d", v)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4Len {
		return 0, fmt.Errorf("ipv4: IHL %d too small", ihl)
	}
	if len(b) < ihl {
		return 0, fmt.Errorf("ipv4 options need %d bytes, have %d: %w", ihl, len(b), ErrTruncated)
	}
	h.TOS = b[1]
	h.TotalLen = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	ff := binary.BigEndian.Uint16(b[6:8])
	h.Flags = byte(ff >> 13)
	h.FragOff = ff & 0x1fff
	h.TTL = b[8]
	h.Protocol = b[9]
	h.Checksum = binary.BigEndian.Uint16(b[10:12])
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	return ihl, nil
}

// ipChecksum computes the RFC 1071 ones-complement checksum of b, treating
// the checksum field bytes as already zeroed.
func ipChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}
