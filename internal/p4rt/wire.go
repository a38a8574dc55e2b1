// Package p4rt is a P4Runtime-like control protocol between controller and
// switch: length-prefixed JSON frames over TCP carrying table programming,
// counter reads, and asynchronous digest (packet-in) notifications. It
// substitutes for the gRPC-based P4Runtime the paper's testbed used while
// preserving the same controller/switch separation.
package p4rt

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"p4guard/internal/packet"
)

// MaxFrame bounds a single wire frame.
const MaxFrame = 4 << 20

// MsgType discriminates envelope payloads.
type MsgType string

// Protocol message types.
const (
	TypeHello     MsgType = "hello"
	TypeHelloAck  MsgType = "hello_ack"
	TypeProgram   MsgType = "program"
	TypeWrite     MsgType = "write"
	TypeCounters  MsgType = "counters"
	TypeResponse  MsgType = "response"
	TypeDigest    MsgType = "digest"
	TypeHeartbeat MsgType = "heartbeat"
	TypeStats     MsgType = "stats"
	TypeDelta     MsgType = "delta"
)

// Envelope is the outer frame: a type tag, a request-correlation ID
// (0 for async pushes), and the type-specific payload.
type Envelope struct {
	Type MsgType         `json:"type"`
	ID   uint64          `json:"id,omitempty"`
	Body json.RawMessage `json:"body,omitempty"`
}

// Hello is the switch's first message.
type Hello struct {
	SwitchName string `json:"switch_name"`
	Link       int    `json:"link"`
}

// HelloAck is the controller's (or server's) greeting response. Node is
// the switch's fabric identity (the netsim topology node its port is
// attached to), empty for switches running outside an emulated fabric.
type HelloAck struct {
	ServerName string `json:"server_name"`
	Node       string `json:"node,omitempty"`
}

// WireEntry is a table entry in wire form. Fields mirror p4.Entry.
type WireEntry struct {
	Priority  int    `json:"priority,omitempty"`
	Value     []byte `json:"value,omitempty"`
	Mask      []byte `json:"mask,omitempty"`
	PrefixLen int    `json:"prefix_len,omitempty"`
	Lo        []byte `json:"lo,omitempty"`
	Hi        []byte `json:"hi,omitempty"`
	Action    string `json:"action"`
	Class     int    `json:"class,omitempty"`
}

// Program atomically reprograms the detector table: key layout, default
// action, and full entry list. TraceID/SpanID optionally tie the program
// push into a distributed trace (internal/dtrace); zero means untraced,
// and old peers ignore the fields (unknown JSON keys are skipped).
type Program struct {
	Offsets       []int       `json:"offsets"`
	DefaultAction string      `json:"default_action"`
	DefaultClass  int         `json:"default_class,omitempty"`
	Entries       []WireEntry `json:"entries"`
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
// program.
type WireDeltaAdd struct {
	Entry WireEntry `json:"entry"`
	Order int       `json:"order"`
}

// DeltaMsg incrementally edits the detector program instead of
// re-sending it wholesale: deletes and priority moves address the
// installed program by canonical index, adds carry their target index.
// BaseCount/BaseHash pin the base the delta was computed against (see
// p4.Table.ProgramSignature); a switch whose installed program differs
// rejects the delta, and the controller falls back to a full Program —
// the same fallback old peers trigger by rejecting the unknown message
// type. Offsets must match the installed key layout (a delta cannot
// reshape the schema); DefaultAction/DefaultClass may change.
type DeltaMsg struct {
	Offsets       []int           `json:"offsets"`
	DefaultAction string          `json:"default_action"`
	DefaultClass  int             `json:"default_class,omitempty"`
	BaseCount     int             `json:"base_count"`
	BaseHash      uint64          `json:"base_hash"`
	Deletes       []int           `json:"deletes,omitempty"`
	Moves         []WireDeltaMove `json:"moves,omitempty"`
	Adds          []WireDeltaAdd  `json:"adds,omitempty"`
	TraceID       uint64          `json:"trace_id,omitempty"`
	SpanID        uint64          `json:"span_id,omitempty"`
}

// Size is the number of edit operations the delta carries.
func (d *DeltaMsg) Size() int { return len(d.Deletes) + len(d.Moves) + len(d.Adds) }

// Write inserts a single entry into the detector table (reactive path).
// TraceID/SpanID carry optional trace context, as on Program.
type Write struct {
	Entry   WireEntry `json:"entry"`
	TraceID uint64    `json:"trace_id,omitempty"`
	SpanID  uint64    `json:"span_id,omitempty"`
}

// CountersRequest asks for the detector table's counters.
type CountersRequest struct{}

// StatsRequest asks for the switch's full data-plane stats snapshot —
// the fleet aggregation scrape (controller-side merged /metrics).
type StatsRequest struct{}

// WireSwitchStats is the stats-RPC payload: one switch's data-plane run
// stats, digest queue accounting, and detector table counters.
type WireSwitchStats struct {
	Name        string `json:"name"`
	Node        string `json:"node,omitempty"`
	Packets     int64  `json:"packets"`
	Allowed     int64  `json:"allowed"`
	Dropped     int64  `json:"dropped"`
	Digested    int64  `json:"digested"`
	ParseFailed int64  `json:"parse_failed"`
	RateDropped int64  `json:"rate_dropped"`

	DigestDepth   int    `json:"digest_depth"`
	DigestOffered uint64 `json:"digest_offered"`
	DigestDrained uint64 `json:"digest_drained"`
	DigestDropped uint64 `json:"digest_dropped"`

	TableEntries int    `json:"table_entries"`
	TableHits    uint64 `json:"table_hits"`
	TableMisses  uint64 `json:"table_misses"`
}

// Response answers Program/Write/Counters/Stats requests. TraceID/SpanID
// echo the request's trace context so the caller can stitch the ack into
// the trace; Switch is set only on stats responses.
type Response struct {
	OK        bool             `json:"ok"`
	Error     string           `json:"error,omitempty"`
	Installed int              `json:"installed,omitempty"`
	Entries   int              `json:"entries,omitempty"`
	Hits      uint64           `json:"hits,omitempty"`
	Misses    uint64           `json:"misses,omitempty"`
	TraceID   uint64           `json:"trace_id,omitempty"`
	SpanID    uint64           `json:"span_id,omitempty"`
	Switch    *WireSwitchStats `json:"switch_stats,omitempty"`
}

// DigestMsg pushes packet samples switch→controller.
type DigestMsg struct {
	Packets []WirePacket `json:"packets"`
}

// WirePacket is a packet sample in wire form. TraceID/SpanID carry the
// digest's trace context when the switch has tracing armed: TraceID
// names the trace minted at digest drain, SpanID the digest_wait span
// the controller's fan-in span should parent to. Old peers ignore them.
type WirePacket struct {
	TimeNS  int64  `json:"time_ns"`
	Link    int    `json:"link"`
	Bytes   []byte `json:"bytes"`
	TraceID uint64 `json:"trace_id,omitempty"`
	SpanID  uint64 `json:"span_id,omitempty"`
}

// ToPacket converts the wire form back to a packet.
func (w WirePacket) ToPacket() *packet.Packet {
	return &packet.Packet{
		Time:  time.Duration(w.TimeNS),
		Link:  packet.LinkType(w.Link),
		Bytes: w.Bytes,
	}
}

// FromPacket converts a packet to wire form.
func FromPacket(p *packet.Packet) WirePacket {
	return WirePacket{TimeNS: int64(p.Time), Link: int(p.Link), Bytes: p.Bytes}
}

// recycleMin is the size from which a frame's buffer is recycled rather
// than left to the collector: only a program frame (647 KB at 8 192 rows)
// gets there, and a fresh buffer of that size is pages to fault in and
// clear on every push. Smaller frames — every delta, write, digest and
// response — are allocated at their exact size and never see the pool.
const recycleMin = 64 << 10

// framePool holds the buffers of big frames between uses: the agent's read
// loop returns one when the handler has decoded its body, the writers when
// the frame is on the wire. A pool and not a buffer per connection: a
// connection that carried one program would pin its 647 KB for as long as
// it stays open, while the pool empties at the next collections.
var framePool sync.Pool // of *[]byte, cap >= recycleMin

// newFrame returns a buffer of length n for one frame: allocated at that
// size below recycleMin, recycled from there on when the pool has one that
// large. Capacities of big buffers come in steps of recycleMin, so that the
// buffers one program passes through — the body its controller encodes,
// the frame each switch reads, a few dozen bytes apart — fit one another.
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
// not validated here: a body that is not JSON fails in DecodeBody. (The
// one exception is a canonical program frame, whose extent is known by
// decoding it; only the switch's agent, which reads with readMsg and
// keeps the result, is sent those.)
func ReadMsg(r io.Reader) (Envelope, error) {
	env, _, err := readMsg(r)
	return env, err
}

// readMsg is ReadMsg for the switch's agent: a program frame in the
// canonical form comes back already decoded into the rows it installs.
// rows is nil for every other frame, whose body DecodeBody decodes.
func readMsg(r io.Reader) (Envelope, *programRows, error) {
	buf, err := readFrame(r)
	if err != nil {
		return Envelope{}, nil, err
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

// splitFrame takes a frame's bytes apart; what it returns aliases buf.
func splitFrame(buf []byte) (Envelope, *programRows, error) {
	if env, rows, ok := splitEnvelope(buf); ok {
		return env, rows, nil
	}
	var env Envelope
	if err := json.Unmarshal(buf, &env); err != nil {
		return Envelope{}, nil, fmt.Errorf("%w: decode envelope: %w", ErrMalformed, err)
	}
	return env, nil, nil
}

// DecodeBody unmarshals an envelope body into dst.
func DecodeBody[T any](env Envelope, dst *T) error {
	if err := json.Unmarshal(env.Body, dst); err != nil {
		return fmt.Errorf("%w: decode %s body: %w", ErrMalformed, env.Type, err)
	}
	return nil
}
