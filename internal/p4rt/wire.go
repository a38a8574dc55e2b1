// Package p4rt is a P4Runtime-like control protocol between controller and
// switch: length-prefixed frames over TCP carrying table programming and
// asynchronous digests, the lookup keys of table misses. A frame is a JSON
// envelope; the three bodies that carry table rows — program,
// delta, write — keep their JSON head there and trail the envelope with the
// rows as one packed fixed-width section (codec.go). It substitutes for the
// gRPC-based P4Runtime the paper's testbed used while preserving the same
// controller/switch separation.
package p4rt

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// MaxFrame bounds a single wire frame.
const MaxFrame = 4 << 20

// Version is the protocol version both ends state in the handshake. Peers
// of different versions refuse each other at dial (a RejectError on either
// side): version 2 moved table rows from JSON text to the packed section,
// version 3 made a digest the lookup key instead of the frame, and no peer
// reads two versions.
const Version = 3

// MsgType discriminates envelope payloads.
type MsgType string

// Protocol message types.
const (
	TypeHello     MsgType = "hello"
	TypeHelloAck  MsgType = "hello_ack"
	TypeProgram   MsgType = "program"
	TypeWrite     MsgType = "write"
	TypeResponse  MsgType = "response"
	TypeDigest    MsgType = "digest"
	TypeHeartbeat MsgType = "heartbeat"
	TypeDelta     MsgType = "delta"
)

// Envelope is the outer frame: a type tag, a request-correlation ID
// (0 for async pushes), and the type-specific payload.
type Envelope struct {
	Type MsgType         `json:"type"`
	ID   uint64          `json:"id,omitempty"`
	Body json.RawMessage `json:"body,omitempty"`

	rows []byte // the packed row section behind the envelope, if any
}

// Hello is the switch's first message.
type Hello struct {
	SwitchName string `json:"switch_name"`
	Version    int    `json:"version"`
}

// HelloAck is the switch's greeting response. Node is its fabric identity
// (the netsim topology node its port is attached to), empty outside an
// emulated fabric.
type HelloAck struct {
	ServerName string `json:"server_name"`
	Node       string `json:"node,omitempty"`
	Version    int    `json:"version"`
}

// WireEntry is a detector row in wire form: a range row whose Lo and Hi
// are as wide as the program's key, with a priority and class that fit 32
// bits. It travels as one row of the packed section, never as JSON.
type WireEntry struct {
	Priority int
	Lo       []byte
	Hi       []byte
	Action   string
	Class    int
}

// Program atomically reprograms the detector table: key layout, default
// action, and full entry list (the packed section). TraceID/SpanID
// optionally tie the push into a distributed trace (internal/dtrace).
type Program struct {
	Offsets       []int       `json:"offsets"`
	DefaultAction string      `json:"default_action"`
	DefaultClass  int         `json:"default_class,omitempty"`
	Entries       []WireEntry `json:"-"`
	TraceID       uint64      `json:"trace_id,omitempty"`
	SpanID        uint64      `json:"span_id,omitempty"`

	body *programBody // the fields above already encoded; see Encoded
}

// WireDeltaMove reprioritizes the base entry at canonical index Base to
// Priority, landing at index Order of the resulting program.
type WireDeltaMove struct {
	Base     int `json:"base"`
	Priority int `json:"priority"`
	Order    int `json:"order"`
}

// WireDeltaAdd inserts a new entry at index Order of the resulting
// program. On the wire the orders are the head's "adds" and the entries
// the packed section.
type WireDeltaAdd struct {
	Entry WireEntry
	Order int
}

// DeltaMsg incrementally edits the detector program instead of
// re-sending it wholesale: deletes and priority moves address the
// installed program by canonical index, adds carry their target index.
// BaseCount/BaseHash pin the base the delta was computed against (see
// p4.Table.ProgramSignature); a switch whose installed program differs
// rejects the delta, and the controller falls back to a full Program.
// Offsets must match the installed key layout (a delta cannot reshape the
// schema); DefaultAction/DefaultClass may change.
type DeltaMsg struct {
	Offsets       []int           `json:"offsets"`
	DefaultAction string          `json:"default_action"`
	DefaultClass  int             `json:"default_class,omitempty"`
	BaseCount     int             `json:"base_count"`
	BaseHash      uint64          `json:"base_hash"`
	Deletes       []int           `json:"deletes,omitempty"`
	Moves         []WireDeltaMove `json:"moves,omitempty"`
	Adds          []WireDeltaAdd  `json:"-"`
	TraceID       uint64          `json:"trace_id,omitempty"`
	SpanID        uint64          `json:"span_id,omitempty"`
}

// Size is the number of edit operations the delta carries.
func (d *DeltaMsg) Size() int { return len(d.Deletes) + len(d.Moves) + len(d.Adds) }

// Write inserts a single entry into the detector table (reactive path).
// TraceID/SpanID carry optional trace context, as on Program. The entry is
// the packed section: one row, whose width is the section's length.
type Write struct {
	Entry   WireEntry `json:"-"`
	TraceID uint64    `json:"trace_id,omitempty"`
	SpanID  uint64    `json:"span_id,omitempty"`
}

// Response answers Program/Delta/Write/Heartbeat requests. TraceID/SpanID
// echo the request's trace context so the caller can stitch the ack into
// the trace.
type Response struct {
	OK        bool   `json:"ok"`
	Error     string `json:"error,omitempty"`
	Installed int    `json:"installed,omitempty"`
	TraceID   uint64 `json:"trace_id,omitempty"`
	SpanID    uint64 `json:"span_id,omitempty"`
}

// DigestMsg pushes table misses switch→controller: the frame offsets the
// switch's lookup gathered its keys at, and one key per miss, not the
// frame. A body with a key not one byte per offset is refused whole.
type DigestMsg struct {
	Offsets []int        `json:"offsets"`
	Digests []WireDigest `json:"digests"`
}

// WireDigest is one miss: its key, and when the switch has tracing armed
// its trace context: TraceID names the trace minted at digest drain, SpanID
// the digest_wait span the controller's fan-in span should parent to.
type WireDigest struct {
	Key     []byte `json:"key"`
	TraceID uint64 `json:"trace_id,omitempty"`
	SpanID  uint64 `json:"span_id,omitempty"`
}

// keysFit reports whether every key is one byte per offset.
func (m *DigestMsg) keysFit() bool {
	for _, d := range m.Digests {
		if len(d.Key) != len(m.Offsets) {
			return false
		}
	}
	return true
}

// recycleMin is the size from which a frame's buffer is recycled rather
// than left to the collector: in practice only a program frame (172 KB at
// 8 192 rows), a fresh buffer of which is pages to fault in and clear on
// every push. Smaller frames are allocated at their exact size.
const recycleMin = 64 << 10

// framePool holds the buffers of big frames between uses: the agent's read
// loop returns one when the handler is done with it, the writers when the
// frame is on the wire. A pool and not a buffer per connection, which would
// pin a program's frame for as long as the connection stays open.
var framePool sync.Pool // of *[]byte, cap >= recycleMin

// newFrame returns a buffer of length n for one frame: allocated at that
// size below recycleMin, recycled from there on when the pool has one that
// large. Capacities of big buffers come in steps of recycleMin, so the body
// a controller encodes and the frames its switches read fit one another.
func newFrame(n int) []byte {
	if n < recycleMin {
		return make([]byte, n)
	}
	if p, _ := framePool.Get().(*[]byte); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n, (n+recycleMin-1)/recycleMin*recycleMin)
}

// recycleFrame gives a frame's buffer back once nothing reads it any more.
// Whoever still holds a slice of it — an Envelope's Body — holds bytes
// that will change.
func recycleFrame(b []byte) {
	if cap(b) >= recycleMin {
		big := b // the small frame's header must not escape with it
		framePool.Put(&big)
	}
}

// WriteMsg frames and writes one envelope with a single Write.
func WriteMsg(w io.Writer, typ MsgType, id uint64, body any) error {
	frame, own, err := encodeFrame(typ, id, body)
	if err != nil {
		return err
	}
	err = writeFrame(w, frame)
	if own {
		recycleFrame(frame)
	}
	return err
}

func writeFrame(w io.Writer, frame []byte) error {
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("p4rt: write frame: %w", err)
	}
	return nil
}

// ReadMsg reads one envelope. Body aliases the frame's own buffer and is
// not validated here: a body that is not JSON fails in DecodeBody, which
// reads the JSON only — a row section is the agent's decoders' (codec.go).
func ReadMsg(r io.Reader) (Envelope, error) {
	buf, err := readFrame(r)
	if err != nil {
		return Envelope{}, err
	}
	return splitFrame(buf)
}

// readFrame reads one frame's bytes, length prefix excluded. A frame below
// recycleMin gets a buffer of its size. A bigger one is read into a
// recycled buffer, or failing that into one that grows as the bytes
// arrive — recycleMin first, then four times what has come — so the word
// a peer puts in the header costs it nothing until the bytes follow. The
// caller of a big frame hands it to recycleFrame when done with it, or
// keeps it.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("p4rt: read frame header: %w", err)
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: frame %d exceeds max %d", ErrOversized, n, MaxFrame)
	}
	buf := newFrame(min(n, recycleMin))
	for have := 0; ; {
		buf = buf[:min(n, cap(buf))]
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			recycleFrame(buf)
			return nil, fmt.Errorf("p4rt: read frame body: %w", err)
		}
		if have = len(buf); have == n {
			return buf, nil
		}
		// The outgrown buffer is dropped, not recycled: the pool holds
		// buffers that held a whole frame, and the next one fits the first.
		grown := newFrame(min(n, 4*have))
		copy(grown, buf)
		buf = grown
	}
}

// splitFrame takes a frame's bytes apart; what it returns aliases buf. The
// envelope ends where its JSON object does, and what follows is the row
// section, which only a body that carries rows may have.
func splitFrame(buf []byte) (Envelope, error) {
	env, end, ok := splitEnvelope(buf)
	if !ok {
		if end = valueEnd(buf, 0); end == 0 || buf[0] != '{' {
			return Envelope{}, fmt.Errorf("%w: the envelope is not a JSON object", ErrMalformed)
		}
		if err := json.Unmarshal(buf[:end], &env); err != nil {
			return Envelope{}, fmt.Errorf("%w: decode envelope: %w", ErrMalformed, err)
		}
	}
	if end < len(buf) {
		if env.Type != TypeProgram && env.Type != TypeDelta && env.Type != TypeWrite {
			return Envelope{}, fmt.Errorf("%w: %d bytes after a %q envelope", ErrMalformed, len(buf)-end, env.Type)
		}
		env.rows = buf[end:len(buf):len(buf)]
	}
	return env, nil
}

// DecodeBody unmarshals an envelope body into dst.
func DecodeBody[T any](env Envelope, dst *T) error {
	if err := json.Unmarshal(env.Body, dst); err != nil {
		return fmt.Errorf("%w: decode %s body: %w", ErrMalformed, env.Type, err)
	}
	return nil
}
