package p4rt

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"p4guard/internal/p4"
)

// Hand-written framing for every message and a codec for Program, the one
// body large enough (647 KB at 8 192 rows) for encoding/json to dominate a
// push: an append encoder, and a decoder that reads a program frame once,
// straight into the rows the switch installs. The wire format is
// unchanged: what is produced here is byte for byte what the two
// json.Marshal calls produced, and what is accepted is what
// json.Unmarshal accepts.
//
// The rule that keeps the two in step: the single-pass routes handle only
// the canonical form this package emits — keys in struct order, no
// whitespace, strings of plain ASCII with nothing to escape, integers
// without sign tricks or leading zeros. Anything else is "not canonical":
// the route reports so without a partial result and the same bytes go
// through encoding/json, which alone decides whether they are valid.
// DESIGN.md ("Wire encoding") has the layout and the cost table.

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

// Object keys of Program and WireEntry as they appear on the wire. A key
// that can only follow another field carries its leading comma.
const (
	keyOffsets       = `{"offsets":`
	keyDefaultAction = `,"default_action":`
	keyDefaultClass  = `,"default_class":`
	keyEntries       = `,"entries":`
	keyTraceID       = `,"trace_id":`
	keySpanID        = `,"span_id":`

	keyPriority  = `"priority":`
	keyValue     = `"value":`
	keyMask      = `"mask":`
	keyPrefixLen = `"prefix_len":`
	keyLo        = `"lo":`
	keyHi        = `"hi":`
	keyAction    = `"action":`
	keyClass     = `,"class":`
)

func uintLen(u uint64) int {
	n := 1
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

func intLen(v int) int {
	if v < 0 {
		return 1 + uintLen(-uint64(v))
	}
	return uintLen(uint64(v))
}

// Each append* helper below writes one omitempty field — nothing for a
// zero value, else key and value — and its *Len twin sizes it. The
// WireEntry fields ahead of "action" end in a comma, hence sep.

func intFieldLen(key string, v int, sep string) int {
	if v == 0 {
		return 0
	}
	return len(key) + intLen(v) + len(sep)
}

func appendIntField(b []byte, key string, v int, sep string) []byte {
	if v == 0 {
		return b
	}
	return append(strconv.AppendInt(append(b, key...), int64(v), 10), sep...)
}

func uintFieldLen(key string, v uint64) int {
	if v == 0 {
		return 0
	}
	return len(key) + uintLen(v)
}

func appendUintField(b []byte, key string, v uint64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendUint(append(b, key...), v, 10)
}

func bytesFieldLen(key string, v []byte) int {
	if len(v) == 0 {
		return 0
	}
	return len(key) + base64.StdEncoding.EncodedLen(len(v)) + len(`"",`)
}

func appendBytesField(b []byte, key string, v []byte) []byte {
	if len(v) == 0 {
		return b
	}
	b = append(append(b, key...), '"')
	return append(base64.StdEncoding.AppendEncode(b, v), '"', ',')
}

// listLen is the length of a JSON list of n items whose encodings total
// sum bytes; a nil list encodes as null.
func listLen(isNil bool, n, sum int) int {
	if isNil {
		return len("null")
	}
	return len("[]") + max(n-1, 0) + sum
}

// programLen is len(json.Marshal(p)). ok is false when a string in p needs
// escaping; the whole body then goes through encoding/json.
func programLen(p *Program) (n int, ok bool) {
	if !plainString(p.DefaultAction) {
		return 0, false
	}
	offsets := 0
	for _, o := range p.Offsets {
		offsets += intLen(o)
	}
	entries := 0
	for i := range p.Entries {
		e := &p.Entries[i]
		if !plainString(e.Action) {
			return 0, false
		}
		entries += len(`{`) + intFieldLen(keyPriority, e.Priority, ",") + bytesFieldLen(keyValue, e.Value) +
			bytesFieldLen(keyMask, e.Mask) + intFieldLen(keyPrefixLen, e.PrefixLen, ",") +
			bytesFieldLen(keyLo, e.Lo) + bytesFieldLen(keyHi, e.Hi) +
			len(keyAction) + len(`""`) + len(e.Action) + intFieldLen(keyClass, e.Class, "") + len(`}`)
	}
	return len(keyOffsets) + listLen(p.Offsets == nil, len(p.Offsets), offsets) +
		len(keyDefaultAction) + len(`""`) + len(p.DefaultAction) +
		intFieldLen(keyDefaultClass, p.DefaultClass, "") +
		len(keyEntries) + listLen(p.Entries == nil, len(p.Entries), entries) +
		uintFieldLen(keyTraceID, p.TraceID) + uintFieldLen(keySpanID, p.SpanID) + len(`}`), true
}

// appendProgram appends json.Marshal(p) for a p that programLen accepted.
func appendProgram(b []byte, p *Program) []byte {
	b = append(b, keyOffsets...)
	if p.Offsets == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, o := range p.Offsets {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(o), 10)
		}
		b = append(b, ']')
	}
	b = append(append(b, keyDefaultAction...), '"')
	b = append(append(b, p.DefaultAction...), '"')
	b = appendIntField(b, keyDefaultClass, p.DefaultClass, "")
	b = append(b, keyEntries...)
	if p.Entries == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range p.Entries {
			e := &p.Entries[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '{')
			b = appendIntField(b, keyPriority, e.Priority, ",")
			b = appendBytesField(b, keyValue, e.Value)
			b = appendBytesField(b, keyMask, e.Mask)
			b = appendIntField(b, keyPrefixLen, e.PrefixLen, ",")
			b = appendBytesField(b, keyLo, e.Lo)
			b = appendBytesField(b, keyHi, e.Hi)
			b = append(append(b, keyAction...), '"')
			b = append(append(b, e.Action...), '"')
			b = appendIntField(b, keyClass, e.Class, "")
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = appendUintField(b, keyTraceID, p.TraceID)
	b = appendUintField(b, keySpanID, p.SpanID)
	return append(b, '}')
}

// encodeFrame builds one wire frame — length prefix, envelope, body — in a
// single buffer: allocated at its exact size below recycleMin, taken from
// framePool from there on. own reports the second: the buffer is this
// frame's alone and the caller hands it to recycleFrame once it is written.
// A Program that carries its body (Program.Encoded) is framed in that
// body's buffer, which is not the caller's to recycle.
func encodeFrame(typ MsgType, id uint64, body any) (frame []byte, own bool, err error) {
	var raw []byte // the body as encoding/json wrote it, when the codec did not take it
	prog, isProg := body.(Program)
	bodyLen, direct := 0, false
	if isProg {
		if pb := prog.body; pb != nil && pb.buf != nil && typ == TypeProgram {
			return pb.frame(id), false, nil
		}
		bodyLen, direct = programLen(&prog)
	}
	if !direct {
		if raw, err = json.Marshal(body); err != nil {
			return nil, false, fmt.Errorf("%w: marshal %s: %w", ErrMalformed, typ, err)
		}
		bodyLen = len(raw)
	}
	var typJSON []byte // set only when the type tag needs escaping
	typLen := len(typ) + 2
	if !plainString(string(typ)) {
		typJSON, _ = json.Marshal(string(typ)) // a string always marshals
		typLen = len(typJSON)
	}
	n := len(`{"type":`) + typLen + len(`,"body":`) + bodyLen + 1
	if id != 0 {
		n += len(`,"id":`) + uintLen(id)
	}
	if n > MaxFrame {
		return nil, false, fmt.Errorf("%w: frame %d exceeds max %d", ErrOversized, n, MaxFrame)
	}
	own = 4+n >= recycleMin
	b := append(newFrame(4 + n)[:4], `{"type":`...)
	if typJSON != nil {
		b = append(b, typJSON...)
	} else {
		b = append(append(append(b, '"'), typ...), '"')
	}
	if id != 0 {
		b = strconv.AppendUint(append(b, `,"id":`...), id, 10)
	}
	b = append(b, `,"body":`...)
	if direct {
		b = appendProgram(b, &prog)
	} else {
		b = append(b, raw...)
	}
	b = append(b, '}')
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return b, own, nil
}

// programBody is a Program's body encoded once, for as many frames as
// there are switches to carry it. buf holds the body from bodyGap on and
// the envelope's closing brace behind it; each frame packs its own length
// prefix and envelope head into the gap, flush against the body, so
// another switch costs some fifty bytes written and none copied.
type programBody struct{ buf []byte }

// bodyGap holds the longest head a program frame can have: the id is a
// uint64.
const bodyGap = 4 + len(`{"type":"program","id":`) + 20 + len(`,"body":`)

// Encoded returns p carrying its body encoded once: Client.ProgramDetector
// frames the copy it is given around those bytes, under the call's own id,
// instead of encoding the program again for every switch. The copy is for
// one goroutine's sends, one at a time, until release, which hands the
// buffer back for reuse; sent after that — or when p is a program the
// codec leaves to encoding/json — it is encoded per call, as p is.
func (p Program) Encoded() (enc Program, release func()) {
	n, ok := programLen(&p)
	size := bodyGap + n + len(`}`)
	if !ok || size-4 > MaxFrame {
		return p, func() {}
	}
	pb := &programBody{buf: append(appendProgram(newFrame(size)[:bodyGap], &p), '}')}
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
	head := append(gap[:4], `{"type":"program"`...)
	if id != 0 {
		head = strconv.AppendUint(append(head, `,"id":`...), id, 10)
	}
	head = append(head, `,"body":`...)
	frame := pb.buf[bodyGap-len(head):]
	copy(frame, head)
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	return frame
}

// ---- decoding -------------------------------------------------------

// scanner is a cursor over canonical-form JSON. A mismatch sets bad and
// the caller discards everything decoded so far; methods stay in bounds
// after that, so callers check bad once at the end (and in loops).
type scanner struct {
	b   []byte
	i   int
	bad bool
}

// lit consumes l if it is next. The keys tried at one position differ in
// length, so looking at l's last byte first settles most mismatches.
func (s *scanner) lit(l string) bool {
	end := s.i + len(l)
	if end <= len(s.b) && s.b[end-1] == l[len(l)-1] && string(s.b[s.i:end]) == l {
		s.i = end
		return true
	}
	return false
}

func (s *scanner) need(l string) {
	if !s.lit(l) {
		s.bad = true
	}
}

// is and must are lit and need for a single byte, which is most of what a
// row is punctuated with: a compare, not a call.
func (s *scanner) is(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *scanner) must(c byte) {
	if !s.is(c) {
		s.bad = true
	}
}

// uint consumes a run of digits: "0", or up to 20 digits with no leading
// zero whose value fits a uint64.
func (s *scanner) uint() uint64 {
	start := s.i
	var v uint64
	for s.i < len(s.b) && s.b[s.i]-'0' <= 9 {
		v = v*10 + uint64(s.b[s.i]-'0')
		s.i++
	}
	switch n := s.i - start; {
	case n == 0, n > 20, n > 1 && s.b[start] == '0':
		s.bad = true
	case n == 20: // may exceed 64 bits; trace IDs get here, priorities do not
		u, err := strconv.ParseUint(string(s.b[start:s.i]), 10, 64)
		s.bad = s.bad || err != nil
		return u
	}
	return v
}

// int consumes an integer that fits an int. "-0" is valid JSON this
// package never writes, so it takes the encoding/json route.
func (s *scanner) int() int {
	neg := s.is('-')
	u := s.uint()
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	if u > limit || neg && u == 0 {
		s.bad = true
	}
	if neg {
		return -int(u)
	}
	return int(u)
}

// str consumes a quoted string of plain bytes and returns its contents,
// aliasing the input.
func (s *scanner) str() []byte {
	s.must('"')
	b, i := s.b, s.i
	for i < len(b) && plain[b[i]] {
		i++
	}
	out := b[s.i:i]
	s.i = i
	s.must('"')
	return out
}

// optInt consumes one of the integer fields ahead of "action" — key,
// value, comma — if it is next.
func (s *scanner) optInt(key string, dst *int) {
	if s.lit(key) {
		*dst = s.int()
		s.must(',')
	}
}

// optKey consumes one of the base64 fields ahead of "action" — key, quoted
// text, comma — if it is next, and returns the text between the quotes
// where it lies in the frame. What it holds is decodeKey's to judge.
func (s *scanner) optKey(key string) []byte {
	if !s.lit(key) {
		return nil
	}
	s.must('"')
	b, i := s.b, s.i
	for i < len(b) && b[i] != '"' {
		i++
	}
	txt := b[s.i:i]
	s.i = i
	s.must('"')
	s.must(',')
	return txt
}

// b64dec maps a byte of the standard base64 alphabet to its six bits and
// every other byte to 0xff.
var b64dec = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for i, c := range "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/" {
		t[c] = byte(i)
	}
	return t
}()

// keyLen is the number of bytes padded base64 text decodes to, going by
// its length and trailing '='; ok is false for text that is not a whole
// number of quanta.
func keyLen(txt []byte) (n int, ok bool) {
	if len(txt)%4 != 0 {
		return 0, false
	}
	n = len(txt) / 4 * 3
	if n > 0 && txt[len(txt)-1] == '=' {
		n--
		if txt[len(txt)-2] == '=' {
			n--
		}
	}
	return n, true
}

// decodeKey decodes txt, of which keyLen(txt) is len(dst), into dst. It
// accepts what base64.StdEncoding does of text without line breaks (which
// a JSON string cannot hold): alphabet bytes only, '=' only as the final
// quantum's padding, unused low bits ignored.
func decodeKey(dst, txt []byte) bool {
	var seen byte // 0xff once any byte was outside the alphabet
	i, j := 0, 0
	for ; i+3 <= len(dst); i, j = i+3, j+4 {
		q := txt[j : j+4]
		a, b, c, d := b64dec[q[0]], b64dec[q[1]], b64dec[q[2]], b64dec[q[3]]
		seen |= a | b | c | d
		o := dst[i : i+3]
		o[0], o[1], o[2] = a<<2|b>>4, b<<4|c>>2, c<<6|d
	}
	switch len(dst) - i { // the padded quantum, if there is one
	case 2:
		a, b, c := b64dec[txt[j]], b64dec[txt[j+1]], b64dec[txt[j+2]]
		seen |= a | b | c
		dst[i], dst[i+1] = a<<2|b>>4, b<<4|c>>2
	case 1:
		a, b := b64dec[txt[j]], b64dec[txt[j+1]]
		seen |= a | b
		dst[i] = a<<2 | b>>4
	}
	return seen < 64
}

// action consumes a quoted action name. A name the protocol does not
// define is not canonical: the encoding/json route reports it.
func (s *scanner) action() p4.ActionType {
	t, ok := actionType(string(s.str()))
	s.bad = s.bad || !ok
	return t
}

func (s *scanner) ints() []int {
	if s.lit("null") {
		return nil
	}
	s.must('[')
	out := []int{}
	if s.is(']') {
		return out
	}
	for !s.bad {
		out = append(out, s.int())
		if !s.is(',') {
			break
		}
	}
	s.must(']')
	return out
}

// row consumes one entry object and adds it to out. A canonical row is a
// range row of the program's width — lo and hi of len(keys)/2 bytes, no
// value or mask; anything else no detector accepts or no peer here sends,
// and goes to encoding/json. Rows.Add copies the two from keys, the scratch
// they are decoded in: a stored row never aliases the frame.
func (s *scanner) row(out *p4.Rows, keys []byte) {
	s.must('{')
	var priority, prefixLen int
	s.optInt(keyPriority, &priority)
	s.optInt(keyPrefixLen, &prefixLen)
	lo, hi := s.optKey(keyLo), s.optKey(keyHi)
	s.need(keyAction)
	act := p4.Action{Type: s.action()}
	if s.lit(keyClass) {
		act.Class = s.int()
	}
	s.must('}')

	w := len(keys) / 2
	nLo, okLo := keyLen(lo)
	nHi, okHi := keyLen(hi)
	if s.bad = s.bad || !okLo || !okHi || nLo != w || nHi != w; s.bad {
		return
	}
	s.bad = !decodeKey(keys[:w], lo) || !decodeKey(keys[w:], hi)
	out.Add(priority, prefixLen, keys[:w], keys[w:], act)
}

// rows consumes the n entries into the builder the table adopts
// (p4.Table.Program), so it is sized to the rows, not past them: room for
// 16, then sampleRows, then from those rows' mean length for the bytes left
// plus 1/128. A frame whose rows run shorter than its sample at least
// doubles — a hostile body costs a logarithm of copies — and never past what
// the bytes left could hold: minEntry a row, 3/4 of its text a key.
func (s *scanner) rows(w int) (out *p4.Rows, n int) {
	out = &p4.Rows{}
	if s.lit("null") {
		return out, 0
	}
	s.must('[')
	if s.is(']') {
		return out, 0
	}
	const (
		minEntry   = len(`{"action":""},`)
		sampleRows = 256 // enough rows to tell their mean length to a part in 128
	)
	start, room, keys := s.i, 0, make([]byte, 2*w)
	for !s.bad {
		if n == room {
			left := len(s.b) - s.i
			more := 16
			if n > 0 {
				more = left*n/(s.i-start) + 1
				more += more/128 + 1
				switch {
				case n < sampleRows && n+more > sampleRows:
					more = sampleRows - n
				case n > sampleRows:
					more = max(more, n)
				}
			}
			more = min(more, left/minEntry+1)
			out.Grow(more, left/4*3)
			room += more
		}
		s.row(out, keys)
		n++
		if !s.is(',') {
			break
		}
	}
	s.must(']')
	return out, n
}

// programRows is a Program in the form the switch installs, which is what
// the single-pass route decodes a program frame into.
type programRows struct {
	offsets         []int
	def             p4.Action
	entries         *p4.Rows
	installed       int // rows in entries
	traceID, spanID uint64
}

// parseProgramRows is the single-pass route for a program body: nil for
// anything but a canonical Program whose every action the protocol names,
// valid or not. Accepting proves that body is exactly one JSON object.
func parseProgramRows(body []byte) *programRows {
	s := scanner{b: body}
	p := &programRows{}
	s.need(keyOffsets)
	p.offsets = s.ints()
	s.need(keyDefaultAction)
	p.def.Type = s.action()
	if s.lit(keyDefaultClass) {
		p.def.Class = s.int()
	}
	s.need(keyEntries)
	p.entries, p.installed = s.rows(len(p.offsets))
	if s.lit(keyTraceID) {
		p.traceID = s.uint()
	}
	if s.lit(keySpanID) {
		p.spanID = s.uint()
	}
	s.must('}')
	if s.bad || s.i != len(body) {
		return nil
	}
	return p
}

// valueEnd returns the index just past the JSON value starting at b[i],
// found by matching brackets outside strings; i itself when no value
// starts there. It does not validate the value — whoever decodes the body
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

// splitEnvelope is the single-pass route of readMsg: it takes the
// envelope apart where it lies, Body aliasing buf. ok is false for
// anything but the canonical {"type":…[,"id":…][,"body":…]}.
//
// The envelope this package writes has body last, so a program body is
// tried as everything up to the frame's closing brace, and decoded on the
// spot: parseProgramRows accepts only if those bytes are exactly one
// object, which is the proof that they are the body. When it declines —
// members after body, whitespace, anything not canonical — rows is nil,
// the extent comes from valueEnd and encoding/json decodes the body later.
func splitEnvelope(buf []byte) (env Envelope, rows *programRows, ok bool) {
	s := scanner{b: buf}
	s.need(`{"type":`)
	typ := s.str()
	if s.lit(`,"id":`) {
		env.ID = s.uint()
	}
	if s.lit(`,"body":`) {
		if last := len(buf) - 1; !s.bad && string(typ) == string(TypeProgram) && buf[last] == '}' {
			if rows = parseProgramRows(buf[s.i:last]); rows != nil {
				env.Type, env.Body = TypeProgram, buf[s.i:last:last]
				return env, rows, true
			}
		}
		end := valueEnd(buf, s.i)
		s.bad = s.bad || end == s.i
		env.Body, s.i = buf[s.i:end:end], end
	}
	s.must('}')
	if s.bad || s.i != len(buf) {
		return Envelope{}, nil, false
	}
	env.Type = MsgType(typ)
	return env, nil, true
}
