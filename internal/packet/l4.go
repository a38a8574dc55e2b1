package packet

import (
	"encoding/binary"
	"fmt"
)

// TCPLen is the length of an option-less TCP header.
const TCPLen = 20

// TCP flag bits.
const (
	TCPFin byte = 1 << 0
	TCPSyn byte = 1 << 1
	TCPRst byte = 1 << 2
	TCPPsh byte = 1 << 3
	TCPAck byte = 1 << 4
	TCPUrg byte = 1 << 5
)

// TCP is an option-less TCP header. The checksum is a simplified header-only
// checksum (the behavioural data plane never validates L4 checksums).
type TCP struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   byte
	Window  uint16
	Urgent  uint16
}

// Marshal appends the wire form of h to dst.
func (h *TCP) Marshal(dst []byte) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint16(dst, h.SrcPort)
	dst = binary.BigEndian.AppendUint16(dst, h.DstPort)
	dst = binary.BigEndian.AppendUint32(dst, h.Seq)
	dst = binary.BigEndian.AppendUint32(dst, h.Ack)
	dst = append(dst, 5<<4, h.Flags) // data offset 5 words
	dst = binary.BigEndian.AppendUint16(dst, h.Window)
	dst = append(dst, 0, 0) // checksum placeholder
	dst = binary.BigEndian.AppendUint16(dst, h.Urgent)
	sum := ipChecksum(dst[start : start+TCPLen])
	binary.BigEndian.PutUint16(dst[start+16:start+18], sum)
	return dst
}

// Unmarshal decodes the header from b and returns the number of bytes read
// (data offset ×4, options skipped).
func (h *TCP) Unmarshal(b []byte) (int, error) {
	if len(b) < TCPLen {
		return 0, fmt.Errorf("tcp needs %d bytes, have %d: %w", TCPLen, len(b), ErrTruncated)
	}
	off := int(b[12]>>4) * 4
	if off < TCPLen {
		return 0, fmt.Errorf("tcp: data offset %d too small", off)
	}
	if len(b) < off {
		return 0, fmt.Errorf("tcp options need %d bytes, have %d: %w", off, len(b), ErrTruncated)
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Seq = binary.BigEndian.Uint32(b[4:8])
	h.Ack = binary.BigEndian.Uint32(b[8:12])
	h.Flags = b[13]
	h.Window = binary.BigEndian.Uint16(b[14:16])
	h.Urgent = binary.BigEndian.Uint16(b[18:20])
	return off, nil
}

// UDPLen is the length of a UDP header.
const UDPLen = 8

// UDP is a UDP header. Length is computed at Marshal time.
type UDP struct {
	SrcPort uint16
	DstPort uint16
	Length  uint16
}

// Marshal appends the wire form of h to dst with Length = UDPLen+payloadLen.
func (h *UDP) Marshal(dst []byte, payloadLen int) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint16(dst, h.SrcPort)
	dst = binary.BigEndian.AppendUint16(dst, h.DstPort)
	dst = binary.BigEndian.AppendUint16(dst, uint16(UDPLen+payloadLen))
	dst = append(dst, 0, 0)
	sum := ipChecksum(dst[start : start+UDPLen])
	binary.BigEndian.PutUint16(dst[start+6:start+8], sum)
	return dst
}

// Unmarshal decodes the header from b and returns the number of bytes read.
func (h *UDP) Unmarshal(b []byte) (int, error) {
	if len(b) < UDPLen {
		return 0, fmt.Errorf("udp needs %d bytes, have %d: %w", UDPLen, len(b), ErrTruncated)
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Length = binary.BigEndian.Uint16(b[4:6])
	return UDPLen, nil
}

// ICMPLen is the length of an ICMP echo header.
const ICMPLen = 8

// ICMP is an ICMP echo header.
type ICMP struct {
	Type byte
	Code byte
	ID   uint16
	Seq  uint16
}

// Unmarshal decodes the header from b and returns the number of bytes read.
func (h *ICMP) Unmarshal(b []byte) (int, error) {
	if len(b) < ICMPLen {
		return 0, fmt.Errorf("icmp needs %d bytes, have %d: %w", ICMPLen, len(b), ErrTruncated)
	}
	h.Type = b[0]
	h.Code = b[1]
	h.ID = binary.BigEndian.Uint16(b[4:6])
	h.Seq = binary.BigEndian.Uint16(b[6:8])
	return ICMPLen, nil
}
