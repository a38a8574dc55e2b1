// Package pcap reads and writes the classic libpcap capture file format
// (magic 0xa1b2c3d4, microsecond timestamps), enough to exchange generated
// IoT traces with standard tooling.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"p4guard/internal/packet"
)

const (
	magicMicros   = 0xa1b2c3d4
	versionMajor  = 2
	versionMinor  = 4
	maxSnapLen    = 262144
	fileHeaderLen = 24
	recHeaderLen  = 16
	bodyChunk     = 4096 // the most ReadPacket allocates ahead of a body's bytes
)

var (
	// ErrBadMagic is returned when the input is not a little-endian
	// microsecond-resolution pcap file.
	ErrBadMagic = errors.New("pcap: bad magic")
	// ErrLink is returned for a link type the stream does not carry: a
	// file header's unsupported one, or a packet's other than the
	// writer's.
	ErrLink = errors.New("pcap: link type")
	// ErrRecord is returned for a record the format cannot hold: a frame
	// longer than the snap length, or (writing) a time outside
	// [0, 2³² s).
	ErrRecord = errors.New("pcap: record out of range")
)

// Writer emits packets to a pcap stream. All packets must share the link
// type given at construction.
type Writer struct {
	w    io.Writer
	link packet.LinkType
}

// NewWriter writes the pcap file header for the link type and returns a
// Writer.
func NewWriter(w io.Writer, link packet.LinkType) (*Writer, error) {
	var hdr [fileHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicMicros)
	binary.LittleEndian.PutUint16(hdr[4:6], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], versionMinor)
	// thiszone, sigfigs = 0
	binary.LittleEndian.PutUint32(hdr[16:20], maxSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], link.DLT())
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: write file header: %w", err)
	}
	return &Writer{w: w, link: link}, nil
}

// WritePacket appends one record. The packet's Time offset is encoded as
// seconds/microseconds since the epoch, so it reads back truncated to the
// microsecond. A record ReadPacket would refuse, or whose time would wrap,
// is refused here.
func (w *Writer) WritePacket(p *packet.Packet) error {
	if p.Link != w.link {
		return fmt.Errorf("pcap: packet link %v != stream link %v: %w", p.Link, w.link, ErrLink)
	}
	if len(p.Bytes) > maxSnapLen {
		return fmt.Errorf("pcap: %d-byte frame exceeds snaplen %d: %w", len(p.Bytes), maxSnapLen, ErrRecord)
	}
	if p.Time < 0 || p.Time >= 1<<32*time.Second {
		return fmt.Errorf("pcap: time %v outside [0, 2^32 s): %w", p.Time, ErrRecord)
	}
	var hdr [recHeaderLen]byte
	secs := uint32(p.Time / time.Second)
	micros := uint32((p.Time % time.Second) / time.Microsecond)
	binary.LittleEndian.PutUint32(hdr[0:4], secs)
	binary.LittleEndian.PutUint32(hdr[4:8], micros)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(p.Bytes)))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(p.Bytes)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap: write record header: %w", err)
	}
	if _, err := w.w.Write(p.Bytes); err != nil {
		return fmt.Errorf("pcap: write record body: %w", err)
	}
	return nil
}

// Reader decodes packets from a pcap stream.
type Reader struct {
	r    io.Reader
	link packet.LinkType
}

// NewReader parses the pcap file header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [fileHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: read file header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(hdr[0:4]); magic != magicMicros {
		return nil, fmt.Errorf("pcap: magic %#x: %w", magic, ErrBadMagic)
	}
	link, err := packet.LinkTypeFromDLT(binary.LittleEndian.Uint32(hdr[20:24]))
	if err != nil {
		return nil, fmt.Errorf("pcap: %v: %w", err, ErrLink)
	}
	return &Reader{r: r, link: link}, nil
}

// LinkType returns the stream's link type.
func (r *Reader) LinkType() packet.LinkType { return r.link }

// ReadPacket returns the next record, or io.EOF at end of stream.
func (r *Reader) ReadPacket() (*packet.Packet, error) {
	var hdr [recHeaderLen]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("pcap: read record header: %w", err)
	}
	secs := binary.LittleEndian.Uint32(hdr[0:4])
	micros := binary.LittleEndian.Uint32(hdr[4:8])
	caplen := binary.LittleEndian.Uint32(hdr[8:12])
	if caplen > maxSnapLen {
		return nil, fmt.Errorf("pcap: caplen %d exceeds snaplen: %w", caplen, ErrRecord)
	}
	// What the header claims is allocated only as its bytes arrive: the body
	// is read into a buffer of at most bodyChunk bytes that doubles each
	// time it fills, so a stream cut short has allocated at most bodyChunk
	// or four times what it carried, whichever is more.
	body := make([]byte, min(int(caplen), bodyChunk))
	for n := 0; ; {
		m, err := io.ReadFull(r.r, body[n:])
		if n += m; err != nil {
			return nil, fmt.Errorf("pcap: read record body: %w", err)
		}
		if n == int(caplen) {
			break
		}
		body = append(body, make([]byte, min(int(caplen)-n, n))...)
	}
	return &packet.Packet{
		Time:  time.Duration(secs)*time.Second + time.Duration(micros)*time.Microsecond,
		Link:  r.link,
		Bytes: body,
	}, nil
}

// ReadAll drains the stream into a slice.
func (r *Reader) ReadAll() ([]*packet.Packet, error) {
	var pkts []*packet.Packet
	for {
		p, err := r.ReadPacket()
		if errors.Is(err, io.EOF) {
			return pkts, nil
		}
		if err != nil {
			return nil, err
		}
		pkts = append(pkts, p)
	}
}
