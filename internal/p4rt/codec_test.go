package p4rt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"p4guard/internal/p4"
	"p4guard/internal/switchsim"
)

// refFrame is the framing this package used before the hand-written
// codec — marshal the body, marshal it again inside the envelope — kept
// here as the oracle the encoder must match byte for byte: the whole frame
// of a body without rows, the JSON of one with them, whose packed sections
// follow the envelope.
func refFrame(t testing.TB, typ MsgType, id uint64, body any, sections ...[]byte) []byte {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("reference marshal: %v", err)
	}
	env, err := json.Marshal(Envelope{Type: typ, ID: id, Body: raw})
	if err != nil {
		t.Fatalf("reference envelope marshal: %v", err)
	}
	return rawFrame(string(env) + string(bytes.Join(sections, nil)))
}

// rawFrame length-prefixes env, whatever it holds.
func rawFrame(env string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(env))), env...)
}

// packRow is one row of the packed section, written from the layout:
// lo ‖ hi ‖ priority int32 LE ‖ class int32 LE ‖ action byte.
func packRow(lo, hi []byte, priority, class int32, act p4.ActionType) []byte {
	b := append(append([]byte(nil), lo...), hi...)
	b = binary.LittleEndian.AppendUint32(b, uint32(priority))
	b = binary.LittleEndian.AppendUint32(b, uint32(class))
	return append(b, byte(act))
}

// wireHead is a program's JSON head as the protocol states it, field by
// field, independently of the types the encoder marshals.
type wireHead struct {
	Offsets       []int  `json:"offsets"`
	DefaultAction string `json:"default_action"`
	DefaultClass  int    `json:"default_class,omitempty"`
	TraceID       uint64 `json:"trace_id,omitempty"`
	SpanID        uint64 `json:"span_id,omitempty"`
	Rows          int    `json:"rows"`
}

// refProgramFrame is the frame p must encode to: the reference head, then
// each entry packed by hand.
func refProgramFrame(t testing.TB, id uint64, p Program) []byte {
	t.Helper()
	var sec []byte
	for _, e := range p.Entries {
		at, err := ParseAction(e.Action)
		if err != nil {
			t.Fatal(err)
		}
		sec = append(sec, packRow(e.Lo, e.Hi, int32(e.Priority), int32(e.Class), at)...)
	}
	return refFrame(t, TypeProgram, id, wireHead{p.Offsets, p.DefaultAction, p.DefaultClass, p.TraceID, p.SpanID, len(p.Entries)}, sec)
}

// oneWrite records the single buffer WriteMsg hands to its writer.
type oneWrite struct {
	writes int
	buf    []byte
}

func (w *oneWrite) Write(p []byte) (int, error) {
	w.writes++
	w.buf = p
	return len(p), nil
}

// checkFrame asserts that WriteMsg produces want in one exact-capacity
// Write, and that ReadMsg splits it as encoding/json does: the envelope
// decoded by a json.Decoder, the row section whatever follows it.
func checkFrame(t *testing.T, typ MsgType, id uint64, body any, want []byte) {
	t.Helper()
	var w oneWrite
	if err := WriteMsg(&w, typ, id, body); err != nil {
		t.Fatalf("WriteMsg(%s): %v", typ, err)
	}
	if !bytes.Equal(w.buf, want) {
		t.Fatalf("WriteMsg(%s) frame differs from the reference\n got %q\nwant %q", typ, w.buf, want)
	}
	if w.writes != 1 || (len(w.buf) < recycleMin && cap(w.buf) != len(w.buf)) {
		t.Fatalf("WriteMsg(%s): %d writes, cap %d for len %d; want one write, of exact capacity below the recycle size", typ, w.writes, cap(w.buf), len(w.buf))
	}
	var wantEnv Envelope
	dec := json.NewDecoder(bytes.NewReader(want[4:]))
	if err := dec.Decode(&wantEnv); err != nil {
		t.Fatalf("reference envelope decode: %v", err)
	}
	if sec := want[4+dec.InputOffset():]; len(sec) > 0 {
		wantEnv.rows = sec
	}
	env, err := ReadMsg(bytes.NewReader(want)) // w.buf may have gone back for reuse
	if err != nil {
		t.Fatalf("ReadMsg(%s): %v", typ, err)
	}
	if !reflect.DeepEqual(env, wantEnv) {
		t.Fatalf("ReadMsg(%s) = %+v, want %+v", typ, env, wantEnv)
	}
}

var (
	testActions = []string{"allow", "drop", "digest", "", "custom", "a<b", `x"y`, `back\slash`,
		"naïve", "tab\there", "\x7f", "\xff\xfe", "amp&", " "}
	testInts32 = []int{0, 1, -1, 7, 10, 99, 100, -1000, 1 << 20, math.MaxInt32, math.MinInt32}
	testInts   = append([]int{math.MaxInt32 + 1, math.MinInt32 - 1, math.MinInt64, math.MaxInt64}, testInts32...)
	testUints  = []uint64{0, 1, 9, 10, 0xfeed, 1 << 62, 1 << 63, 1<<63 + 12345, 9999999999999999999, 10000000000000000000, math.MaxUint64}
)

func pick[T any](rng *rand.Rand, from []T) T { return from[rng.Intn(len(from))] }

// randProgram covers nil vs empty lists, every omitempty field of the head
// zero and non-zero, extreme integers, head strings that need escaping,
// keys of the program's width with every byte value, and in one program
// of four a row the section cannot hold: another width, an action the
// protocol does not name, a priority or class past 32 bits.
func randProgram(rng *rand.Rand) Program {
	p := Program{DefaultAction: testActions[rng.Intn(3)]} // the three the protocol names
	if rng.Intn(5) == 0 {
		p.DefaultAction = pick(rng, testActions)
	}
	switch rng.Intn(5) {
	case 0:
	case 1:
		p.Offsets = []int{}
	case 2:
		p.Offsets = []int{pick(rng, testInts)}
	default:
		for i, n := 0, 1+rng.Intn(16); i < n; i++ {
			p.Offsets = append(p.Offsets, rng.Intn(64))
		}
	}
	if rng.Intn(2) == 0 {
		p.DefaultClass = pick(rng, testInts)
	}
	if rng.Intn(5) == 1 {
		p.Entries = []WireEntry{}
	}
	for i, n := 0, rng.Intn(24); i < n; i++ {
		w := len(p.Offsets)
		e := WireEntry{Lo: make([]byte, w), Hi: make([]byte, w), Action: testActions[rng.Intn(3)]}
		rng.Read(e.Lo)
		rng.Read(e.Hi)
		if rng.Intn(2) == 0 {
			e.Priority = pick(rng, testInts32)
		}
		if rng.Intn(2) == 0 {
			e.Class = pick(rng, testInts32)
		}
		p.Entries = append(p.Entries, e)
	}
	if n := len(p.Entries); n > 0 && rng.Intn(4) == 0 {
		e := &p.Entries[rng.Intn(n)]
		switch rng.Intn(4) {
		case 0:
			e.Lo = append(e.Lo, 1)
		case 1:
			e.Action = testActions[3+rng.Intn(len(testActions)-3)]
		case 2:
			e.Priority = testInts[rng.Intn(4)]
		default:
			e.Class = testInts[rng.Intn(4)]
		}
	}
	if rng.Intn(2) == 0 {
		p.TraceID, p.SpanID = pick(rng, testUints), pick(rng, testUints)
	}
	return p
}

// packable reports whether every row fits the section: Lo and Hi of the
// program's width, 32-bit numbers, an action the protocol names.
func packable(p Program) bool {
	for _, e := range p.Entries {
		_, err := ParseAction(e.Action)
		if err != nil || len(e.Lo) != len(p.Offsets) || len(e.Hi) != len(p.Offsets) ||
			e.Priority != int(int32(e.Priority)) || e.Class != int(int32(e.Class)) {
			return false
		}
	}
	return true
}

// storedProgram programs a fresh range table keyed on offsets with program
// and returns what the table then holds — signature, default action and
// entries in match order — or the refusal.
func storedProgram(offsets []int, def p4.Action, program func(*p4.Table, []p4.FieldSpec) error) string {
	specs := make([]p4.FieldSpec, len(offsets))
	for i, off := range offsets {
		specs[i] = p4.FieldSpec{Offset: off, Width: 1}
	}
	tbl := p4.NewTable("det", p4.MatchRange, specs, 0, def)
	if err := program(tbl, specs); err != nil {
		return err.Error()
	}
	entries := tbl.Entries()
	for i := range entries {
		entries[i].ID = 0
	}
	n, sig := tbl.ProgramSignature()
	return fmt.Sprintf("%d/%#x under %+v: %+v", n, sig, tbl.DefaultAction, entries)
}

// stored is what a table holds once it has adopted the decoded rows.
func (p *programRows) stored() string {
	return storedProgram(p.offsets, p.def, func(tbl *p4.Table, specs []p4.FieldSpec) error {
		return tbl.Program(specs, p.def, p.entries)
	})
}

// refProgram is a program as the reference decoder holds it: exchange
// entries, never a builder.
type refProgram struct {
	offsets         []int
	def             p4.Action
	entries         []p4.Entry
	traceID, spanID uint64
}

func (p *refProgram) stored() string {
	return storedProgram(p.offsets, p.def, func(tbl *p4.Table, _ []p4.FieldSpec) error {
		return tbl.Replace(p.entries)
	})
}

// refHead is a program head as the reference decoder reads it: a missing
// row count stays nil.
type refHead struct {
	Program
	Rows *int `json:"rows"`
}

// refRows is the reference decoder of a program body, written from the
// layout alone: encoding/json for the head, the rows cut from the section
// by arithmetic, and Table.Replace (in stored) to say what they make.
// class is "malformed" or "action" (the default's name) when it refuses.
func refRows(head, sec []byte) (p refProgram, class string) {
	var h refHead
	if json.Unmarshal(head, &h) != nil || h.Rows == nil || *h.Rows < 0 || *h.Rows > len(sec) || *h.Rows*(2*len(h.Offsets)+9) != len(sec) {
		return p, "malformed"
	}
	def, err := ParseAction(h.DefaultAction)
	w, le := len(h.Offsets), binary.LittleEndian
	p = refProgram{h.Offsets, p4.Action{Type: def, Class: h.DefaultClass}, make([]p4.Entry, *h.Rows), h.TraceID, h.SpanID}
	for i := 0; i < len(p.entries) && err == nil; i++ {
		r := sec[i*(2*w+9):]
		act := p4.Action{Type: p4.ActionType(r[2*w+8]), Class: int(int32(le.Uint32(r[2*w+4:])))}
		if _, err := ParseAction(act.Type.String()); err != nil {
			return p, "malformed"
		}
		p.entries[i] = p4.Entry{Priority: int(int32(le.Uint32(r[2*w:]))), Lo: r[:w], Hi: r[w : 2*w], Action: act}
	}
	if err != nil {
		return p, "action"
	}
	return p, ""
}

// refRead is what a reader holding nothing but the protocol makes of one
// frame's bytes: a json.Decoder takes the envelope off the front, and what
// it leaves is the row section, which only program, delta and write carry.
func refRead(buf []byte) string {
	var env Envelope
	dec := json.NewDecoder(bytes.NewReader(buf))
	if len(buf) == 0 || buf[0] != '{' || dec.Decode(&env) != nil {
		return "malformed"
	}
	sec := buf[dec.InputOffset():]
	if env.Type != TypeProgram {
		if len(sec) > 0 && env.Type != TypeDelta && env.Type != TypeWrite {
			return "malformed"
		}
		return "type " + string(env.Type)
	}
	p, class := refRows(env.Body, sec)
	if class != "" {
		return class
	}
	return fmt.Sprintf("id %d, trace %d/%d, offsets %v: %s", env.ID, p.traceID, p.spanID, p.offsets, p.stored())
}

// agentDecode reads one program frame the way the agent does: readFrame,
// splitFrame, decodeProgram.
func agentDecode(r io.Reader) (Envelope, programRows, error) {
	buf, err := readFrame(r)
	if err != nil {
		return Envelope{}, programRows{}, err
	}
	env, err := splitFrame(buf)
	if err != nil || env.Type != TypeProgram {
		return env, programRows{}, err
	}
	p, err := decodeProgram(env)
	return env, p, err
}

// agentRead is what the agent makes of one frame's bytes, in refRead's
// terms. A body the single-pass envelope split let through unchecked is
// refused by whoever decodes it, so it reads as malformed here.
func agentRead(buf []byte) string {
	env, p, err := agentDecode(bytes.NewReader(rawFrame(string(buf))))
	switch {
	case errors.Is(err, ErrMalformed):
		return "malformed"
	case err != nil:
		return "action"
	case env.Type != TypeProgram && env.Body != nil && !json.Valid(env.Body):
		return "malformed"
	case env.Type != TypeProgram:
		return "type " + string(env.Type)
	}
	return fmt.Sprintf("id %d, trace %d/%d, offsets %v: %s", env.ID, p.traceID, p.spanID, p.offsets, p.stored())
}

// TestProgramFrameMatchesEncodingJSON is the differential test of the
// program codec: a frame's JSON equals the two-marshal reference of the
// head the protocol states and its section the rows packed by hand; frame
// → table equals the reference decoder's; every frame the encoder writes
// takes the single-pass envelope split; and a program with a row the
// section cannot hold is refused at encode, typed, by both encode routes.
func TestProgramFrameMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	progs := []Program{{}, {Offsets: []int{}, Entries: []WireEntry{}}, {Entries: []WireEntry{{}}}, {DefaultAction: "digest"}}
	for i := 0; i < 400; i++ {
		progs = append(progs, randProgram(rng))
	}
	applied, refused := 0, 0
	for i, p := range progs {
		if !packable(p) {
			if _, _, err := encodeFrame(TypeProgram, uint64(i), p); !errors.Is(err, ErrMalformed) {
				t.Fatalf("program %d holds a row the section cannot: encode err = %v, want ErrMalformed", i, err)
			}
			if enc, _ := p.Encoded(); enc.body != nil {
				t.Fatalf("program %d holds a row the section cannot, and was encoded once", i)
			}
			refused++
			continue
		}
		want := refProgramFrame(t, uint64(i), p)
		checkFrame(t, TypeProgram, uint64(i), p, want)
		if _, _, ok := splitEnvelope(want[4:]); !ok {
			t.Fatalf("program %d: the envelope does not take the single-pass split\n%q", i, want[4:])
		}
		got, ref := agentRead(want[4:]), refRead(want[4:])
		if got != ref {
			t.Fatalf("program %d: frame → table differs from the reference decoder\n got %s\nwant %s", i, got, ref)
		}
		if strings.HasPrefix(got, "id ") && !strings.Contains(got, "bad entry") {
			applied++
		}
	}
	if applied < len(progs)/4 || refused < len(progs)/10 {
		t.Fatalf("%d of %d programs applied, %d refused at encode: the generator no longer covers the outcomes", applied, len(progs), refused)
	}
}

// TestFramingMatchesEncodingJSON: every message type goes through the
// same hand-written framing. A body without rows is the two-marshal
// reference byte for byte; a program, delta or write is the reference
// marshal of its head followed by its packed rows.
func TestFramingMatchesEncodingJSON(t *testing.T) {
	entry := WireEntry{Priority: 3, Lo: []byte{1, 2}, Hi: []byte{3, 4}, Action: "drop", Class: 1}
	row := packRow(entry.Lo, entry.Hi, 3, 1, p4.ActionDrop)
	prog := Program{Offsets: []int{0, 1}, DefaultAction: "allow", Entries: []WireEntry{entry}}
	progHead := wireHead{Offsets: []int{0, 1}, DefaultAction: "allow", Rows: 1}
	write := Write{Entry: entry, TraceID: 1 << 63}
	writeHead := struct {
		TraceID uint64 `json:"trace_id"`
	}{1 << 63}
	delta := DeltaMsg{Offsets: []int{0, 1}, DefaultAction: "allow", BaseCount: 1, Adds: []WireDeltaAdd{{Entry: entry, Order: 4}}}
	deltaHead := json.RawMessage(`{"offsets":[0,1],"default_action":"allow","base_count":1,"base_hash":0,"adds":[4]}`)
	bodies := []struct {
		typ  MsgType
		body any
		head any // what the reference marshals, when it is not body
		rows []byte
	}{
		{TypeHello, Hello{SwitchName: "gw<0>", Version: Version}, nil, nil},
		{TypeHelloAck, HelloAck{ServerName: "s", Node: "n", Version: Version}, nil, nil},
		{TypeProgram, prog, progHead, row},
		{TypeWrite, write, writeHead, row},
		{TypeDelta, delta, deltaHead, row},
		{TypeDigest, DigestMsg{Offsets: []int{0, 1, 2}, Digests: []WireDigest{{Key: []byte("<&>"), TraceID: 5}}}, nil, nil},
		{TypeResponse, Response{Error: "unknown message type \"x\"", Installed: 3}, nil, nil},
		{TypeHeartbeat, struct{}{}, nil, nil},
		{"counters", nil, nil, nil},
		{"stats", json.RawMessage(`{"future":[1,2,{"k":"}]"}]}`), nil, nil},
		{"", "scalar body", nil, nil},
		{"x_future-type.1", 12.5, nil, nil},
	}
	for _, b := range bodies {
		head := b.head
		if head == nil {
			head = b.body
		}
		for _, id := range []uint64{0, 1, 10, math.MaxUint64} {
			checkFrame(t, b.typ, id, b.body, refFrame(t, b.typ, id, head, b.rows))
		}
	}
	// A body whose rows JSON would drop, and a type tag JSON would escape,
	// are refused rather than written some other way.
	refused := []struct {
		typ  MsgType
		body any
	}{
		{TypeProgram, &prog}, {TypeProgram, (*Program)(nil)}, {TypeWrite, &write}, {TypeDelta, &delta},
		{"a<b", 12.5}, {`quo"te`, []int{1, 2}}, {"naïve", true}, {"nul\x00", nil},
	}
	for _, r := range refused {
		var w oneWrite
		if err := WriteMsg(&w, r.typ, 1, r.body); !errors.Is(err, ErrMalformed) || w.writes != 0 {
			t.Fatalf("WriteMsg(%q, %T): err = %v after %d writes, want ErrMalformed and nothing written", r.typ, r.body, err, w.writes)
		}
	}
}

// programFrameCases are frames the decoder must treat exactly as the
// reference does although they are not what this package writes: heads
// in every shape encoding/json reads or refuses, sections that disagree
// with them, envelopes whose extent is in doubt, and frames of protocol
// version 1, whose rows were JSON text (the base64-* cases among them),
// which a version-2 agent refuses. They are also the checked-in seed
// corpus of FuzzReadProgramFrame (TestFuzzCorpusCheckedIn keeps
// testdata/fuzz in step with this list).
func programFrameCases() map[string][]byte {
	row := string(packRow([]byte{1}, []byte{2}, 5, 1, p4.ActionDrop))
	row2 := string(packRow([]byte{1, 2}, []byte{3, 4}, 5, 1, p4.ActionDrop))
	body := func(head string, rows ...string) []byte {
		return rawFrame(`{"type":"program","id":7,"body":` + head + `}` + strings.Join(rows, ""))
	}
	v1 := func(entries string) []byte {
		return body(`{"offsets":[0],"default_action":"allow","entries":[` + entries + `]}`)
	}
	cases := map[string][]byte{
		"canonical":         body(`{"offsets":[0,1],"default_action":"allow","trace_id":18446744073709551615,"rows":2}`, row2, row2),
		"null-lists":        body(`{"offsets":null,"default_action":"digest","rows":0}`),
		"reordered-keys":    body(`{"rows":1,"default_action":"allow","offsets":[0]}`, row),
		"reordered-entry":   v1(`{"action":"drop","priority":5}`),
		"unknown-key":       body(`{"offsets":[0],"future":{"a":[1]},"default_action":"allow","rows":0}`),
		"unknown-entry-key": v1(`{"action":"drop","x":1}`),
		"duplicate-entries": body(`{"offsets":[0],"default_action":"allow","rows":0,"rows":1}`, row),
		"leading-zero":      body(`{"offsets":[0],"default_action":"allow","rows":01}`, row),
		"minus-zero":        body(`{"offsets":[-0],"default_action":"allow","rows":0}`),
		"minus-zero-class":  body(`{"offsets":[0],"default_action":"allow","default_class":-0,"rows":0}`),
		"uint-20-digits":    body(`{"offsets":[0],"default_action":"allow","rows":0,"trace_id":18446744073709551616}`),
		"int-20-digits":     body(`{"offsets":[12345678901234567890],"default_action":"allow","rows":0}`),
		"int-min":           body(`{"offsets":[-9223372036854775808],"default_action":"allow","rows":0}`),
		"float-priority":    body(`{"offsets":[0],"default_action":"allow","rows":1.0}`, row),
		"exp-priority":      body(`{"offsets":[0],"default_action":"allow","rows":1e0}`, row),
		"escaped-action":    body(`{"offsets":[0],"default_action":"a<b","rows":1}`, row),
		"non-ascii-action":  body(`{"offsets":[0],"default_action":"naïve","rows":1}`, row),
		"raw-html-action":   body(`{"offsets":[0],"default_action":"a<b","rows":0}`),
		"control-in-string": body(`{"offsets":[0],"default_action":"a` + "\n" + `b","rows":0}`),
		"bad-base64":        v1(`{"lo":"A*I=","action":"drop"}`),
		"base64-no-pad":     v1(`{"lo":"AQI","action":"drop"}`),
		"base64-pad-mid":    v1(`{"lo":"A=I=","action":"drop"}`),
		"base64-all-pad":    v1(`{"lo":"====","action":"drop"}`),
		"base64-loose-bits": v1(`{"lo":"AR==","action":"drop"}`),
		"base64-empty":      v1(`{"lo":"","action":"drop"}`),
		"null-fields":       body(`{"offsets":[0],"default_action":null,"rows":null}`),
		"wrong-types":       body(`{"offsets":"0","default_action":1,"rows":{}}`),
		"case-folded-keys":  body(`{"Offsets":[3],"DEFAULT_ACTION":"allow","ROWS":1}`, row),
		"missing-action":    body(`{"offsets":[0],"default_action":"allow","rows":1}`, row[:len(row)-1]+"\x00"),
		"comma-first":       v1(`{,"class":1}`),
		"trailing-comma":    body(`{"offsets":[0,],"default_action":"allow","rows":0}`),
		"empty-object":      body(`{}`),
		"null-body":         body(`null`),
		"array-body":        body(`[1,2]`),
		"string-body":       body(`"}],{["`),
		"unbalanced-body":   body(`{"offsets":[0}`, row),
		"mismatched-close":  body(`{"offsets":[0}]`, row),
		"body-whitespace":   body(`{ "offsets": [0, 1],`+"\n\t"+`"default_action": "allow", "rows": 1 }`, row2),
		"body-lead-space":   rawFrame(`{"type":"program","body": {"offsets":[0],"default_action":"allow","rows":1}}` + row),
		"scalar-body-space": rawFrame(`{"type":"program","body":12 }`),
		"body-padded":       body(` {"offsets":[0],"default_action":"allow","rows":1} `, row),
		"frame-padded":      rawFrame(` {"type":"program","id":7,"body":{"offsets":[0],"default_action":"allow","rows":0}} `),
		"key-after-body":    rawFrame(`{"type":"program","body":{"offsets":[0],"default_action":"allow","rows":1},"id":7}` + row),
		"unknown-after":     rawFrame(`{"type":"program","id":7,"body":{"offsets":[0],"default_action":"allow","rows":1},"x":{"y":"}"}}` + row),
		"duplicate-type":    rawFrame(`{"type":"write","type":"program","body":{"offsets":[0],"default_action":"allow","rows":1}}` + row),
		"id-leading-zero":   rawFrame(`{"type":"program","id":07,"body":{}}`),
		"id-overflow":       rawFrame(`{"type":"program","id":18446744073709551616,"body":{}}`),
		"escaped-type":      rawFrame(`{"type":"pro\u0067ram","id":7,"body":{"offsets":[0],"default_action":"allow","rows":1}}` + row),
		"no-body":           rawFrame(`{"type":"program","id":7}`),
		"empty-body":        rawFrame(`{"type":"program","id":7,"body":}`),
		"trailing-bytes":    body(`{"offsets":[0],"default_action":"allow","rows":0}`, "xyz"),
		"trailing-brace":    rawFrame(`{"type":"program","id":7,"body":{}}}`),
		"lone-backslash":    rawFrame(`{"type":"program","body":"\`),
		"not-json":          rawFrame(`hello`),
		"empty-frame":       rawFrame(``),
		"delta-frame": rawFrame(`{"type":"delta","id":9,"body":{"offsets":[0],"default_action":"allow","base_count":1,` +
			`"base_hash":7,"deletes":[0],"adds":[0]}}` + row),
	}
	// The envelopes that test where a body ends; TestRecordedFrameAnswers
	// holds what the agent answers to each.
	for name, rec := range recordedFrames {
		cases["extent-"+name] = rawFrame(rec.frame)
	}
	truncated := body(`{"offsets":[0],"default_action":"allow","rows":1}`, row)
	cases["truncated-frame"] = truncated[:len(truncated)-9]
	cases["after-frame"] = append(body(`{"offsets":[0],"default_action":"allow","rows":1}`, row), "next frame"...)
	cases["header-only"] = []byte{0, 0}
	cases["claims-max-frame"] = append(binary.BigEndian.AppendUint32(nil, MaxFrame), `{"type":"program"}`...)
	cases["claims-max-frame-plus-1"] = append(binary.BigEndian.AppendUint32(nil, MaxFrame+1), `{"type":"program"}`...)
	return cases
}

// checkProgramFrame reads data as one framed program both ways — the
// agent's route and the reference decoder — and fails on any disagreement
// in the table a program leaves (entries in match order, signature,
// default action) or in the class of the refusal; transport-level failures
// (short header, truncated or oversized frame) stay what they were. What
// decoding may allocate is checkFrameAllocs'.
func checkProgramFrame(t *testing.T, data []byte) {
	t.Helper()
	_, _, err := agentDecode(bytes.NewReader(data))
	if len(data) < 4 {
		if err == nil || errors.Is(err, ErrMalformed) {
			t.Fatalf("short header: err = %v, want a read error", err)
		}
		return
	}
	n := binary.BigEndian.Uint32(data)
	if n > MaxFrame {
		if !errors.Is(err, ErrOversized) {
			t.Fatalf("frame claims %d bytes: err = %v, want ErrOversized", n, err)
		}
		return
	}
	if int(n) > len(data)-4 {
		if err == nil || errors.Is(err, ErrMalformed) || errors.Is(err, ErrOversized) {
			t.Fatalf("truncated frame: err = %v, want a read error", err)
		}
		return
	}
	buf := data[4 : 4+n]
	if got, want := agentRead(buf), refRead(buf); got != want {
		t.Fatalf("the agent reads\n%s\nthe reference decoder\n%s", got, want)
	}
	// The envelope split on its own: accepting is a claim that
	// encoding/json agrees.
	if fast, end, ok := splitEnvelope(buf); ok {
		var ref Envelope
		if json.Unmarshal(buf[:end], &ref) == nil && !reflect.DeepEqual(fast, ref) {
			t.Fatalf("splitEnvelope = %+v, encoding/json = %+v", fast, ref)
		}
	}
}

// checkFrameAllocs bounds what the agent's route allocates reading data: an
// oversized claim is refused before anything is sized by it, and decoding
// allocates no more than a small multiple of the bytes that arrived.
func checkFrameAllocs(t *testing.T, data []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _ = agentDecode(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if len(data) < 4 {
		return
	}
	alloc, n := after.TotalAlloc-before.TotalAlloc, uint64(binary.BigEndian.Uint32(data))
	if n > MaxFrame {
		if alloc > 64<<10 {
			t.Fatalf("oversized claim allocated %d bytes before being refused", alloc)
		}
		return
	}
	// The frame buffer grows as bytes arrive, to its claimed size at most;
	// everything after that is bounded by what actually arrived.
	if bound := n + 16*uint64(len(data)) + 64<<10; alloc > bound {
		t.Fatalf("decoding a %d-byte input allocated %d bytes (bound %d)", len(data), alloc, bound)
	}
}

// TestProgramFrameAllocBounds holds every hand-written case, and the random
// programs the fuzzer is seeded with, to checkFrameAllocs.
func TestProgramFrameAllocBounds(t *testing.T) {
	for name, data := range programFrameCases() {
		t.Run(name, func(t *testing.T) { checkFrameAllocs(t, data) })
	}
	for _, data := range seedFrames(t) {
		checkFrameAllocs(t, data)
	}
}

// TestProgramFrameCases runs the hand-written cases directly, and pins
// which envelopes the single-pass split declines to encoding/json.
func TestProgramFrameCases(t *testing.T) {
	cases := programFrameCases()
	for name, data := range cases {
		t.Run(name, func(t *testing.T) { checkProgramFrame(t, data) })
	}
	declined := map[string]bool{"body-lead-space": true, "frame-padded": true, "key-after-body": true,
		"unknown-after": true, "duplicate-type": true, "id-leading-zero": true, "id-overflow": true,
		"escaped-type": true, "empty-body": true, "lone-backslash": true, "not-json": true, "empty-frame": true,
		"extent-body-before-type": true, "extent-body-first": true, "extent-member-after-program": true,
		"extent-missing-envelope-close": true, "extent-second-body": true, "extent-second-body-first-junk": true,
		"extent-second-body-scalar": true, "extent-space-then-brace": true, "body-padded": true,
		"scalar-body-space": true, "unbalanced-body": true}
	for name, data := range cases {
		if len(data) < 4 || int(binary.BigEndian.Uint32(data)) > len(data)-4 {
			continue
		}
		buf := data[4 : 4+binary.BigEndian.Uint32(data)]
		if _, _, ok := splitEnvelope(buf); ok == declined[name] {
			t.Errorf("%s: the single-pass split accepted = %v", name, ok)
		}
	}
}

var updateCorpus = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzReadProgramFrame from programFrameCases")

// TestDecodedKeysShareOneSlab: the decoder copies every row's lo and hi
// into the program's one key slab (p4.Rows.Add) — what decoding allocates
// does not grow with the rows — and a table stores exactly those of each.
func TestDecodedKeysShareOneSlab(t *testing.T) {
	var allocs []float64
	for _, rows := range []int{16, 4096} {
		p := benchProgram(rows)
		frame := refProgramFrame(t, 1, p)
		env, err := splitFrame(frame[4:])
		if err != nil {
			t.Fatal(err)
		}
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			if _, err := decodeProgram(env); err != nil {
				t.Fatal(err)
			}
		}))
		head, sec := env.Body, env.rows
		ref, class := refRows(head, sec)
		got, err := decodeProgram(env)
		if err != nil || class != "" {
			t.Fatal(err, class)
		}
		if held, want := got.stored(), ref.stored(); held != want {
			t.Fatalf("rows=%d: the table holds\n%s\nfrom the decoder, from the reference\n%s", rows, held, want)
		}
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("decoding 16 rows allocates %.0f times, 4096 rows %.0f: something is made per row", allocs[0], allocs[1])
	}
}

// TestHostileBodyCannotInflateSlabs: a head's row count is a claim the
// section must bear out before anything is sized by it, so a count of a
// trillion rows, or of one row of a key a million bytes wide, behind a few
// bytes of section costs nothing; and rows that are what they claim, on a
// key of four thousand bytes, cost their keys and their stored rows.
func TestHostileBodyCannotInflateSlabs(t *testing.T) {
	decode := func(offsets string, rows int, sec []byte) (p programRows, err error, alloc int) {
		env, err := splitFrame([]byte(fmt.Sprintf(`{"type":"program","body":{"offsets":[%s],"default_action":"allow","rows":%d}}%s`, offsets, rows, sec)))
		if err != nil {
			t.Fatal(err)
		}
		// The cheapest of three decodes: TotalAlloc counts the whole
		// process, and a goroutine an earlier test left winding down may
		// allocate inside one of them.
		alloc = math.MaxInt
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			p, err = decodeProgram(env)
			runtime.ReadMemStats(&after)
			alloc = min(alloc, int(after.TotalAlloc-before.TotalAlloc))
		}
		return p, err, alloc
	}
	row := packRow([]byte{1}, []byte{2}, 1, 0, p4.ActionDrop)
	for name, c := range map[string]struct {
		offsets string
		rows    int
		sec     []byte
	}{
		"trillion-rows":  {"0", 1 << 40, row},
		"overflow-rows":  {"0", math.MaxInt64/11 + 1, row},
		"negative-rows":  {"0", -1, row},
		"one-row-short":  {"0", 2, row},
		"wide-claim":     {"0", 1, bytes.Repeat(row, 100_000)},
		"rows-of-no-key": {"", 1 << 30, bytes.Repeat(row, 3)},
	} {
		if _, err, alloc := decode(c.offsets, c.rows, c.sec); !errors.Is(err, ErrMalformed) || alloc > 4<<10 {
			t.Errorf("%s: err %v, allocating %d bytes for rows the section does not hold", name, err, alloc)
		}
	}
	const width = 4 << 10
	offsets := strings.Repeat("0,", width-1) + "0"
	key := bytes.Repeat([]byte{7}, width)
	wide := bytes.Repeat(packRow(key, key, 1, 0, p4.ActionDrop), 3)
	_, _, layout := decode(offsets, 0, nil)
	got, err, alloc := decode(offsets, 3, wide)
	if err != nil || got.installed != 3 {
		t.Fatalf("wide rows: %v", err)
	}
	if budget := 3*2*width + 3*storedRow + 1<<10; alloc-layout > budget {
		t.Errorf("three rows of %d bytes of key each allocated %d bytes beside the layout, budget %d", 2*width, alloc-layout, budget)
	}
}

// TestPackedSectionBounds walks the edges of the section on keys of 0, 1,
// 16 and 17 bytes. Rows whose priority and class sit on the int32 edges
// round-trip byte-identically — encoded, decoded, programmed into a table
// and encoded again from what it holds. A head whose count is a row off
// either way, a section a byte off either way, and a count whose rows would
// need MaxFrame are refused with ErrMalformed, having allocated no more
// than the frame and a kilobyte for reading the head and saying why; and a
// row one past an edge, or a byte off the width, is refused at encode.
func TestPackedSectionBounds(t *testing.T) {
	edges := []int{math.MaxInt32, 1, 0, -1, math.MinInt32} // descending: the table lists them in this order
	actions := []string{"allow", "drop", "digest", "allow", "drop"}
	for _, w := range []int{0, 1, 16, 17} {
		p := Program{Offsets: make([]int, w), DefaultAction: "digest", TraceID: 1}
		for i := range p.Offsets {
			p.Offsets[i] = i
		}
		for i, e := range edges {
			lo, hi := bytes.Repeat([]byte{byte(i)}, w), bytes.Repeat([]byte{byte(255 - i)}, w)
			p.Entries = append(p.Entries, WireEntry{Priority: e, Lo: lo, Hi: hi, Action: actions[i], Class: edges[len(edges)-1-i]})
		}
		frame, _, err := encodeFrame(TypeProgram, 1, p)
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		sw := newTestSwitch(t)
		if _, resps := handleFrames(t, sw, frame); len(resps) != 1 || !resps[0].OK {
			t.Fatalf("w=%d: %+v", w, resps)
		}
		det, err := sw.Pipeline().Table(switchsim.DetectorTable)
		if err != nil {
			t.Fatal(err)
		}
		back := Program{Offsets: p.Offsets, DefaultAction: det.DefaultAction.Type.String(), TraceID: 1}
		for _, e := range det.Entries() {
			back.Entries = append(back.Entries, WireEntry{Priority: e.Priority, Lo: e.Lo, Hi: e.Hi, Action: e.Action.Type.String(), Class: e.Action.Class})
		}
		if again, _, err := encodeFrame(TypeProgram, 1, back); err != nil || !bytes.Equal(again, frame) {
			t.Fatalf("w=%d: the table's rows encode to\n%q\nnot\n%q (%v)", w, again, frame, err)
		}

		head := func(rows int) string {
			return fmt.Sprintf(`{"type":"program","body":{"offsets":%s,"default_action":"digest","rows":%d}}`, strings.ReplaceAll(fmt.Sprint(p.Offsets), " ", ","), rows)
		}
		env, err := splitFrame(frame[4:])
		if err != nil {
			t.Fatal(err)
		}
		sec, n := env.rows, len(p.Entries)
		for name, bad := range map[string]string{
			"a row more":    head(n+1) + string(sec),
			"a row less":    head(n-1) + string(sec),
			"a byte more":   head(n) + string(sec) + "\x00",
			"a byte less":   head(n) + string(sec[:len(sec)-1]),
			"past MaxFrame": head(MaxFrame/rowSize(w)+1) + string(sec),
		} {
			env, err := splitFrame([]byte(bad))
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = decodeProgram(env)
			runtime.ReadMemStats(&after)
			if alloc := int(after.TotalAlloc - before.TotalAlloc); !errors.Is(err, ErrMalformed) || alloc > len(bad)+1<<10 && !raceEnabled {
				t.Errorf("w=%d, %s: err %v, allocating %d bytes for a %d-byte frame", w, name, err, alloc, len(bad))
			}
		}

		for name, e := range map[string]WireEntry{
			"priority past int32": {Priority: math.MaxInt32 + 1, Lo: p.Entries[0].Lo, Hi: p.Entries[0].Hi, Action: "drop"},
			"class past int32":    {Class: math.MinInt32 - 1, Lo: p.Entries[0].Lo, Hi: p.Entries[0].Hi, Action: "drop"},
			"lo a byte wider":     {Lo: append([]byte{0}, p.Entries[0].Lo...), Hi: p.Entries[0].Hi, Action: "drop"},
			"unknown action":      {Lo: p.Entries[0].Lo, Hi: p.Entries[0].Hi, Action: "reflect"},
		} {
			odd := Program{Offsets: p.Offsets, DefaultAction: "digest", Entries: []WireEntry{p.Entries[0], e}}
			if _, _, err := encodeFrame(TypeProgram, 1, odd); !errors.Is(err, ErrMalformed) {
				t.Errorf("w=%d, %s: encode err %v, want ErrMalformed", w, name, err)
			}
		}
	}
}

// TestPackedFramesGolden pins the bytes of a two-row program frame and of
// a write frame (TestDeltaMsgWireShape pins a delta's): a change to the
// layout is a diff here, not only a round trip that still agrees with
// itself.
func TestPackedFramesGolden(t *testing.T) {
	prog := Program{Offsets: []int{3, 4}, DefaultAction: "digest", DefaultClass: 2, TraceID: 3, SpanID: 4, Entries: []WireEntry{
		{Priority: 2, Lo: []byte{1, 2}, Hi: []byte{3, 4}, Action: "drop", Class: 1},
		{Priority: -1, Lo: []byte{0, 0}, Hi: []byte{255, 255}, Action: "allow"},
	}}
	write := Write{Entry: WireEntry{Priority: 1 << 20, Lo: []byte{0xee, 1}, Hi: []byte{0xee, 1}, Action: "drop", Class: 1}, TraceID: 5}
	for _, c := range []struct {
		typ  MsgType
		body any
		want string
	}{
		{TypeProgram, prog, "\x00\x00\x00\x9a" +
			`{"type":"program","id":7,"body":{"offsets":[3,4],"default_action":"digest","default_class":2,"trace_id":3,"span_id":4,"rows":2}}` +
			"\x01\x02" + "\x03\x04" + "\x02\x00\x00\x00" + "\x01\x00\x00\x00" + "\x02" +
			"\x00\x00" + "\xff\xff" + "\xff\xff\xff\xff" + "\x00\x00\x00\x00" + "\x01"},
		{TypeWrite, write, "\x00\x00\x00\x3a" +
			`{"type":"write","id":7,"body":{"trace_id":5}}` +
			"\xee\x01" + "\xee\x01" + "\x00\x00\x10\x00" + "\x01\x00\x00\x00" + "\x02"},
	} {
		if frame, _, err := encodeFrame(c.typ, 7, c.body); err != nil || string(frame) != c.want {
			t.Errorf("%s frame drifted (%v):\n got %q\nwant %q", c.typ, err, frame, c.want)
		}
	}
}

// storedRow is what a table keeps of one row beside its key: p4's
// TestStoredRowFootprint pins the struct to it.
const storedRow = 80

// heapAfter is the live heap once build has run and what it returns is all
// that is kept of it: the cheapest of three readings, each a HeapAlloc
// difference across two collections the way the benchmark reads heap_mb.
func heapAfter(build func() any) int {
	best := 0
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		kept := build()
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(kept)
		if got := int(after.HeapAlloc) - int(before.HeapAlloc); i == 0 || got < best {
			best = got
		}
	}
	return best
}

// TestDecodedSlabFitsItsRows: the slabs the decoder builds are what the
// table keeps for as long as the program stands, and the head counts the
// rows before they are read, so they are sized exactly: a table programmed
// from the frame holds what one programmed from a builder made by hand for
// exactly those rows holds, within a page, at every size.
func TestDecodedSlabFitsItsRows(t *testing.T) {
	for _, rows := range []int{16, 17, 300, 8192, 50000} {
		p := benchProgram(rows)
		frame := refProgramFrame(t, 1, p)
		specs := []p4.FieldSpec{{Width: 6}}
		program := func(build func() *p4.Rows) func() any {
			return func() any {
				tbl := p4.NewTable("det", p4.MatchRange, nil, 0, p4.Action{})
				if err := tbl.Program(specs, p4.Action{Type: p4.ActionDigest}, build()); err != nil {
					t.Fatalf("rows=%d: %v", rows, err)
				}
				return tbl
			}
		}
		decoded := heapAfter(program(func() *p4.Rows {
			env, err := splitFrame(frame[4:])
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodeProgram(env)
			if err != nil || got.installed != rows {
				t.Fatalf("rows=%d: %v", rows, err)
			}
			return got.entries
		}))
		exact := heapAfter(program(func() *p4.Rows {
			r := &p4.Rows{}
			r.Grow(rows, 12*rows)
			for _, e := range p.Entries {
				at, _ := ParseAction(e.Action)
				r.Add(e.Priority, e.Lo, e.Hi, p4.Action{Type: at, Class: e.Class})
			}
			return r
		}))
		if spare := decoded - exact; spare > 4<<10 {
			t.Errorf("rows=%d: the table keeps %d bytes decoded from the frame, %d built by hand: %d to spare", rows, decoded, exact, spare)
		}
	}
}

// TestFuzzCorpusCheckedIn: every hand-written case is a seed file of
// FuzzReadProgramFrame, so `go test -fuzz` starts from them and plain
// `go test` replays them. Run with -update after editing the cases.
func TestFuzzCorpusCheckedIn(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReadProgramFrame")
	for name, data := range programFrameCases() {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		path := filepath.Join(dir, name)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("%s is missing or stale (err %v); run go test -run TestFuzzCorpusCheckedIn -update", path, err)
		}
	}
}

// TestDecodeProgramMergesLikeEncodingJSON: json.Unmarshal merges into a
// non-zero destination, so DecodeBody must too.
func TestDecodeProgramMergesLikeEncodingJSON(t *testing.T) {
	body := []byte(`{"offsets":[4],"default_action":"drop","rows":0}`)
	seed := Program{DefaultClass: 9, TraceID: 5, Entries: []WireEntry{{Class: 2}}}
	got, want := seed, seed
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if err := DecodeBody(Envelope{Type: TypeProgram, Body: body}, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || got.DefaultClass != 9 {
		t.Fatalf("DecodeBody into a non-zero Program = %+v, want %+v", got, want)
	}
}

// seedFrames are the frames of the random programs the fuzzer starts from,
// the ones the section can hold.
func seedFrames(t testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(2))
	var out [][]byte
	for i := 0; len(out) < 8; i++ {
		if p := randProgram(rng); packable(p) {
			out = append(out, refProgramFrame(t, uint64(i), p))
		}
	}
	return out
}

// FuzzReadProgramFrame compares the agent's decoder with the reference
// decoder on arbitrary frames (checkProgramFrame); it measures nothing, so
// every execution is a decode.
func FuzzReadProgramFrame(f *testing.F) {
	for _, data := range seedFrames(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkProgramFrame(t, data)
		// Mutations rarely keep the length prefix right; framing the same
		// bytes honestly gets them past it and into the decoders. A seed's
		// own envelope is tried too, so its mutations are.
		checkProgramFrame(t, rawFrame(string(data)))
		if len(data) > 4 {
			checkProgramFrame(t, rawFrame(string(data[4:])))
		}
	})
}

// benchProgram is shaped like what the controller deploys: range rows on
// a 6-byte key — a few learned ranges, then points — descending
// priorities, drop/allow by class.
func benchProgram(rows int) Program {
	rng := rand.New(rand.NewSource(int64(rows)))
	p := Program{Offsets: []int{23, 34, 35, 36, 37, 46}, DefaultAction: "digest", Entries: make([]WireEntry, rows)}
	for i := range p.Entries {
		lo, hi := make([]byte, 6), make([]byte, 6)
		rng.Read(lo)
		rng.Read(hi)
		for j := range lo { // a range the table accepts
			lo[j], hi[j] = min(lo[j], hi[j]), max(lo[j], hi[j])
		}
		if i >= 16 { // and past a handful of learned ranges, the point rows reactive installs leave
			copy(hi, lo)
		}
		p.Entries[i] = WireEntry{Priority: rows - i, Lo: lo, Hi: hi, Action: "allow"}
		if i%3 == 0 {
			p.Entries[i].Action, p.Entries[i].Class = "drop", 1
		}
	}
	return p
}

// BenchmarkProgramFrame measures one Program frame on one P: through
// WriteMsg (encode), read and decoded into the rows the table installs as
// the agent's loop does it, the frame recycled (decode: its allocations
// are the row and key slabs, sized once), and from the frame to a
// programmed detector table (apply).
func BenchmarkProgramFrame(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, rows := range []int{16, 8192} {
		prog := benchProgram(rows)
		frame := refProgramFrame(b, 1, prog)
		b.Run(fmt.Sprintf("encode/rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			for i := 0; i < b.N; i++ {
				if err := WriteMsg(io.Discard, TypeProgram, 1, prog); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("decode/rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			r := bytes.NewReader(frame)
			for i := 0; i < b.N; i++ {
				r.Reset(frame)
				buf, err := readFrame(r)
				if err != nil {
					b.Fatal(err)
				}
				env, err := splitFrame(buf)
				if err != nil {
					b.Fatal(err)
				}
				if got, err := decodeProgram(env); err != nil || got.installed != rows {
					b.Fatalf("decode: %v (%+v)", err, got)
				}
				recycleFrame(buf)
			}
		})
		b.Run(fmt.Sprintf("apply/rows=%d", rows), func(b *testing.B) {
			s := &Server{sw: newTestSwitch(b)}
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			r := bytes.NewReader(frame)
			for i := 0; i < b.N; i++ {
				r.Reset(frame)
				if resp := applyFrame(b, s, r); !resp.OK || resp.Installed != rows {
					b.Fatalf("apply: %+v", resp)
				}
			}
		})
	}
}
