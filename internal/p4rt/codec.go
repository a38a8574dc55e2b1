package p4rt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strconv"

	"p4guard/internal/p4"
)

// The frame codec. A frame is a length prefix and one JSON envelope,
// {"type":…[,"id":…],"body":…}, written by hand into one buffer. A body
// that carries table rows — program, delta (its adds), write — keeps its
// head in the JSON (offsets and so the key width w, default action, trace
// ids, base guard, row count) and trails the envelope with its rows packed,
// 2w+9 bytes a row, the action byte a p4.ActionType:
//
//	lo[w] ‖ hi[w] ‖ priority int32 LE ‖ class int32 LE ‖ action byte
//
// DESIGN.md ("Wire encoding") has the rules and the cost table.

// rowSize is the packed size of one row of a key w bytes wide.
func rowSize(w int) int { return 2*w + 9 }

// plain marks the bytes that stand for themselves inside a JSON string
// under encoding/json's default HTML-escaping encoder.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			return false
		}
	}
	return true
}

// ---- encoding -------------------------------------------------------

// The JSON heads of the bodies whose rows are packed: the body's fields and
// how many rows follow — for a delta, its adds' orders. A write's head is
// Write itself, its section one row.
type programHead struct {
	*Program
	Rows int `json:"rows"`
}

type deltaHead struct {
	*DeltaMsg
	Adds []int `json:"adds,omitempty"`
}

// section is the rows a body packs behind its head, keys w bytes wide.
type section struct {
	w       int
	entries []WireEntry    // a program's rows, or a write's one
	adds    []WireDeltaAdd // or a delta's
}

func (s *section) size() int { return (len(s.entries) + len(s.adds)) * rowSize(s.w) }

func (s *section) appendTo(b []byte) ([]byte, error) {
	var err error
	for i := 0; i < len(s.entries) && err == nil; i++ {
		b, err = appendRow(b, s.w, &s.entries[i])
	}
	for i := 0; i < len(s.adds) && err == nil; i++ {
		b, err = appendRow(b, s.w, &s.adds[i].Entry)
	}
	return b, err
}

// fits reports whether the packed section holds e as a row of a key w bytes
// wide: Lo and Hi of that width, priority and class inside int32.
func (e *WireEntry) fits(w int) bool {
	return len(e.Lo) == w && len(e.Hi) == w && int(int32(e.Priority)) == e.Priority && int(int32(e.Class)) == e.Class
}

// appendRow packs one row, or refuses one the layout cannot hold: one that
// does not fit, or whose action the protocol does not name. Nothing is
// truncated.
func appendRow(b []byte, w int, e *WireEntry) ([]byte, error) {
	t, ok := actionType(e.Action)
	if !ok || !e.fits(w) {
		return b, fmt.Errorf("%w: row (priority %d, lo/hi %d/%d bytes, action %q, class %d) is not a %d-byte range row of 32-bit numbers",
			ErrMalformed, e.Priority, len(e.Lo), len(e.Hi), e.Action, e.Class, w)
	}
	b = append(append(b, e.Lo...), e.Hi...)
	b = binary.LittleEndian.AppendUint32(b, uint32(e.Priority))
	b = binary.LittleEndian.AppendUint32(b, uint32(e.Class))
	return append(b, byte(t)), nil
}

// marshalBody returns body's JSON — a row-carrying body's head — and its
// rows. A pointer to such a body is refused: JSON would drop its rows.
func marshalBody(body any) (head []byte, rows section, err error) {
	switch b := body.(type) {
	case Program:
		rows, body = section{w: len(b.Offsets), entries: b.Entries}, programHead{&b, len(b.Entries)}
	case DeltaMsg:
		orders := make([]int, len(b.Adds))
		for i := range b.Adds {
			orders[i] = b.Adds[i].Order
		}
		rows, body = section{w: len(b.Offsets), adds: b.Adds}, deltaHead{&b, orders}
	case Write:
		rows = section{w: len(b.Entry.Lo), entries: []WireEntry{b.Entry}}
	case *Program, *DeltaMsg, *Write:
		return nil, rows, fmt.Errorf("a %T body: send the value, which carries the rows", b)
	}
	head, err = json.Marshal(body)
	return head, rows, err
}

// envHead appends what a frame holds before its body: room for the length
// prefix, then {"type":"…"[,"id":…],"body":
func envHead(b []byte, typ MsgType, id uint64) []byte {
	b = append(append(append(b, 0, 0, 0, 0), `{"type":"`...), typ...)
	if b = append(b, '"'); id != 0 {
		b = strconv.AppendUint(append(b, `,"id":`...), id, 10)
	}
	return append(b, `,"body":`...)
}

// encodeBody writes body into a frame buffer from gap on — a row-carrying
// body's head, the envelope's closing brace, the rows — and leaves the gap
// for the length prefix and envelope head. The buffer is allocated at its
// exact size below recycleMin and taken from framePool from there on.
func encodeBody(gap int, body any) ([]byte, error) {
	head, rows, err := marshalBody(body)
	if err != nil {
		return nil, fmt.Errorf("%w: marshal: %w", ErrMalformed, err)
	}
	n := gap + len(head) + len(`}`) + rows.size()
	if n-4 > MaxFrame {
		return nil, fmt.Errorf("%w: frame %d exceeds max %d", ErrOversized, n-4, MaxFrame)
	}
	b, err := rows.appendTo(append(append(newFrame(n)[:gap], head...), '}'))
	if err != nil {
		recycleFrame(b)
		return nil, err
	}
	return b, nil
}

// encodeFrame builds one wire frame — length prefix, envelope, rows — in a
// single buffer. own reports that the buffer is this frame's alone and
// comes from framePool: the caller hands it to recycleFrame once it is
// written. A Program that carries its body (Program.Encoded) is framed in
// that body's buffer, which is not the caller's to recycle. A type tag is
// written as it is, so one that JSON would escape is refused.
func encodeFrame(typ MsgType, id uint64, body any) (frame []byte, own bool, err error) {
	if p, ok := body.(Program); ok && typ == TypeProgram && p.body != nil && p.body.buf != nil {
		return p.body.frame(id), false, nil
	}
	if !plainString(string(typ)) {
		return nil, false, fmt.Errorf("%w: type %q is not plain text", ErrMalformed, typ)
	}
	var gap [64]byte
	head := envHead(gap[:0], typ, id)
	if frame, err = encodeBody(len(head), body); err != nil {
		return nil, false, err
	}
	copy(frame, head)
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	return frame, len(frame) >= recycleMin, nil
}

// programBody is a Program's body encoded once, for as many frames as
// there are switches to carry it: buf holds the head from bodyGap on, the
// envelope's closing brace and the rows; each frame packs its length prefix
// and envelope head into the gap, so another switch costs some fifty bytes
// written and none copied.
type programBody struct{ buf []byte }

// bodyGap holds the longest head a program frame can have.
const bodyGap = 4 + len(`{"type":"program","id":`) + 20 + len(`,"body":`)

// Encoded returns p carrying its body encoded once: Client.ProgramDetector
// frames the copy it is given around those bytes, under the call's own id,
// instead of encoding the program again for every switch. The copy is for
// one goroutine's sends, one at a time, until release, which hands the
// buffer back for reuse; sent after that — or when p does not encode, a
// row the section cannot hold or a frame past MaxFrame — it is encoded per
// call, as p is, which reports why.
func (p Program) Encoded() (enc Program, release func()) {
	b, err := encodeBody(bodyGap, p)
	if err != nil {
		return p, func() {}
	}
	pb := &programBody{buf: b}
	p.body = pb
	return p, func() {
		recycleFrame(pb.buf)
		pb.buf = nil
	}
}

// frame returns the program frame for one call: the body where it lies,
// the head written in front of it.
func (pb *programBody) frame(id uint64) []byte {
	var gap [bodyGap]byte
	head := envHead(gap[:0], TypeProgram, id)
	frame := pb.buf[bodyGap-len(head):]
	copy(frame, head)
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	return frame
}

// ---- decoding -------------------------------------------------------

// valueEnd returns the index just past the JSON value starting at b[i],
// found by matching brackets outside strings; i itself when no value
// starts there. It does not validate the value — whoever decodes it
// does — but for valid JSON the extent it finds is the value's.
func valueEnd(b []byte, i int) int {
	depth := 0
	for i < len(b) {
		c := b[i]
		i++
		switch c {
		case '"':
			// The closing quote is the next one not behind an odd run of
			// backslashes (the run cannot reach past the opening quote).
			for escaped := true; escaped; {
				q := bytes.IndexByte(b[i:], '"')
				if q < 0 {
					return len(b)
				}
				i += q + 1
				escaped = false
				for j := i - 2; b[j] == '\\'; j-- {
					escaped = !escaped
				}
			}
		case '{', '[':
			depth++
			continue
		case '}', ']', ',', ' ', '\t', '\r', '\n':
			if depth == 0 { // a scalar ended, or none began; c is not the value's
				return i - 1
			}
			if c != '}' && c != ']' {
				continue
			}
			depth--
		default:
			continue
		}
		if depth == 0 { // a top-level string or container just closed
			return i
		}
	}
	return len(b)
}

// splitEnvelope is splitFrame's single-pass route: it takes the envelope
// apart where it lies, Body aliasing buf, and returns where it ends. ok is
// false for anything but {"type":…[,"id":…][,"body":…]} in the form this
// package writes — a type of plain bytes, an id of digits without a leading
// zero — which encoding/json then decides.
func splitEnvelope(buf []byte) (env Envelope, end int, ok bool) {
	rest, ok := bytes.CutPrefix(buf, []byte(`{"type":"`))
	n := 0
	for n < len(rest) && plain[rest[n]] {
		n++
	}
	if !ok || n == len(rest) || rest[n] != '"' {
		return Envelope{}, 0, false
	}
	typ, rest := rest[:n], rest[n+1:]
	if r, found := bytes.CutPrefix(rest, []byte(`,"id":`)); found {
		for n = 0; n < len(r) && r[n]-'0' <= 9; n++ {
		}
		id, err := strconv.ParseUint(string(r[:n]), 10, 64)
		if err != nil || n > 1 && r[0] == '0' {
			return Envelope{}, 0, false
		}
		env.ID, rest = id, r[n:]
	}
	if r, found := bytes.CutPrefix(rest, []byte(`,"body":`)); found {
		if n = valueEnd(r, 0); n == 0 {
			return Envelope{}, 0, false
		}
		env.Body, rest = r[:n:n], r[n:]
	}
	if len(rest) == 0 || rest[0] != '}' {
		return Envelope{}, 0, false
	}
	env.Type = MsgType(typ)
	return env, len(buf) - len(rest) + 1, true
}

// checkRows holds a section to exactly n rows of width w: one comparison,
// before anything is sized by n.
func checkRows(sec []byte, n, w int) error {
	if n < 0 {
		return fmt.Errorf("%w: the head counts no rows", ErrMalformed)
	}
	if size := rowSize(w); len(sec)%size != 0 || len(sec)/size != n {
		return fmt.Errorf("%w: %d bytes of rows are not %d rows of %d bytes", ErrMalformed, len(sec), n, size)
	}
	return nil
}

// row reads row i of a section checkRows passed, its keys where they lie in
// the frame. An action byte the protocol does not define (p4's action types
// run Allow to Nop) makes the section malformed.
func row(sec []byte, w, i int) (lo, hi []byte, priority int, act p4.Action, err error) {
	r := sec[i*rowSize(w) : (i+1)*rowSize(w)]
	act = p4.Action{Type: p4.ActionType(r[2*w+8]), Class: int(int32(binary.LittleEndian.Uint32(r[2*w+4:])))}
	if act.Type < p4.ActionAllow || act.Type > p4.ActionNop {
		err = fmt.Errorf("%w: row %d: action %d", ErrMalformed, i, act.Type)
	}
	return r[:w:w], r[w : 2*w : 2*w], int(int32(binary.LittleEndian.Uint32(r[2*w:]))), act, err
}

// programRows is a program body in the form the switch installs.
type programRows struct {
	offsets         []int
	def             p4.Action
	entries         *p4.Rows
	installed       int // rows in entries
	traceID, spanID uint64
}

// decodeProgram reads a program body straight into the rows the table
// adopts (p4.Table.Program), each row's keys copied out of the frame into
// slabs made for exactly the rows the head counts. The trace ids are set
// once the head is read, refused or not.
func decodeProgram(env Envelope) (p programRows, err error) {
	var prog Program
	h := programHead{&prog, -1} // a head that does not count its rows is refused
	if err := DecodeBody(env, &h); err != nil {
		return p, err
	}
	p = programRows{offsets: prog.Offsets, installed: h.Rows, traceID: prog.TraceID, spanID: prog.SpanID}
	w := len(prog.Offsets)
	if err := checkRows(env.rows, h.Rows, w); err != nil {
		return p, err
	}
	def, err := ParseAction(prog.DefaultAction)
	if err != nil {
		return p, err
	}
	p.def, p.entries = p4.Action{Type: def, Class: prog.DefaultClass}, &p4.Rows{}
	p.entries.Grow(h.Rows, 2*w*h.Rows)
	for i := 0; i < h.Rows; i++ {
		lo, hi, priority, act, err := row(env.rows, w, i)
		if err != nil {
			return p, err
		}
		p.entries.Add(priority, lo, hi, act)
	}
	return p, nil
}

// decodeDelta reads a delta body: the head from JSON, the adds' entries
// from the section with their keys where they lie in the frame (the table
// copies what it keeps).
func decodeDelta(env Envelope) (d DeltaMsg, def p4.Action, pd p4.Delta, err error) {
	h := deltaHead{DeltaMsg: &d}
	if err := DecodeBody(env, &h); err != nil {
		return d, def, pd, err
	}
	w := len(d.Offsets)
	if err := checkRows(env.rows, len(h.Adds), w); err != nil {
		return d, def, pd, err
	}
	t, err := ParseAction(d.DefaultAction)
	if err != nil {
		return d, def, pd, err
	}
	def = p4.Action{Type: t, Class: d.DefaultClass}
	pd = p4.Delta{BaseCount: d.BaseCount, BaseHash: d.BaseHash, Deletes: d.Deletes,
		Moves: make([]p4.DeltaMove, len(d.Moves)), Adds: make([]p4.DeltaAdd, len(h.Adds))}
	for i, m := range d.Moves {
		pd.Moves[i] = p4.DeltaMove(m)
	}
	for i, order := range h.Adds {
		lo, hi, priority, act, err := row(env.rows, w, i)
		if err != nil {
			return d, def, p4.Delta{}, err
		}
		pd.Adds[i] = p4.DeltaAdd{Entry: p4.Entry{Priority: priority, Lo: lo, Hi: hi, Action: act}, Order: order}
	}
	return d, def, pd, nil
}

// decodeWrite reads a write body: its head, and the one row the section
// holds, whose key is as wide as the section is long.
func decodeWrite(env Envelope) (w Write, e p4.Entry, err error) {
	if err := DecodeBody(env, &w); err != nil {
		return w, e, err
	}
	width := max(len(env.rows)-rowSize(0), 0) / 2
	if err := checkRows(env.rows, 1, width); err != nil {
		return w, e, err
	}
	lo, hi, priority, act, err := row(env.rows, width, 0)
	return w, p4.Entry{Priority: priority, Lo: lo, Hi: hi, Action: act}, err
}
