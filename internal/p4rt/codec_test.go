package p4rt

import (
	"bytes"
	"encoding/base64"
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
)

// refFrame is the framing this package used before the hand-written
// codec — marshal the body, marshal it again inside the envelope — kept
// here as the oracle the new encoder must match byte for byte.
func refFrame(t testing.TB, typ MsgType, id uint64, body any) []byte {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("reference marshal: %v", err)
	}
	env, err := json.Marshal(Envelope{Type: typ, ID: id, Body: raw})
	if err != nil {
		t.Fatalf("reference envelope marshal: %v", err)
	}
	return rawFrame(string(env))
}

// rawFrame length-prefixes env, whatever it holds.
func rawFrame(env string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(env))), env...)
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

// checkFrame asserts that WriteMsg produces the reference frame in one
// exact-capacity Write, and that ReadMsg splits it as encoding/json does.
func checkFrame(t *testing.T, typ MsgType, id uint64, body any) Envelope {
	t.Helper()
	want := refFrame(t, typ, id, body)
	var w oneWrite
	if err := WriteMsg(&w, typ, id, body); err != nil {
		t.Fatalf("WriteMsg(%s): %v", typ, err)
	}
	if !bytes.Equal(w.buf, want) {
		t.Fatalf("WriteMsg(%s) frame differs from the two-marshal reference\n got %q\nwant %q", typ, w.buf, want)
	}
	if w.writes != 1 || (len(w.buf) < recycleMin && cap(w.buf) != len(w.buf)) {
		t.Fatalf("WriteMsg(%s): %d writes, cap %d for len %d; want one write, of exact capacity below the recycle size", typ, w.writes, cap(w.buf), len(w.buf))
	}
	var wantEnv Envelope
	if err := json.Unmarshal(want[4:], &wantEnv); err != nil {
		t.Fatalf("reference envelope decode: %v", err)
	}
	env, err := ReadMsg(bytes.NewReader(want)) // w.buf may have gone back for reuse
	if err != nil {
		t.Fatalf("ReadMsg(%s): %v", typ, err)
	}
	if !reflect.DeepEqual(env, wantEnv) {
		t.Fatalf("ReadMsg(%s) = %+v, want %+v", typ, env, wantEnv)
	}
	return env
}

var (
	testActions = []string{"allow", "drop", "digest", "set_class", "nop", "", "custom", "a<b", `x"y`, `back\slash`,
		"naïve", "tab\there", "\x7f", "\xff\xfe", "amp&", " "}
	testInts  = []int{0, 1, -1, 7, 10, 99, 100, -1000, 1 << 20, math.MaxInt32, math.MinInt64, math.MaxInt64, -math.MaxInt64}
	testUints = []uint64{0, 1, 9, 10, 0xfeed, 1 << 62, 1 << 63, 1<<63 + 12345, 9999999999999999999, 10000000000000000000, math.MaxUint64}
	testKeys  = []int{0, 1, 2, 3, 5, 6, 16, 64}
)

func pick[T any](rng *rand.Rand, from []T) T { return from[rng.Intn(len(from))] }

// randKey is nil, empty, or 1/16/64-ish random bytes.
func randKey(rng *rand.Rand) []byte {
	if rng.Intn(3) == 0 {
		return nil
	}
	k := make([]byte, pick(rng, testKeys))
	rng.Read(k)
	return k
}

// randProgram covers nil vs empty lists, every omitempty field zero and
// non-zero, negative and extreme integers, strings that need escaping.
// plainOnly keeps every string inside what the codec encodes itself.
func randProgram(rng *rand.Rand, plainOnly bool) Program {
	action := func() string {
		if plainOnly {
			return testActions[rng.Intn(7)]
		}
		return pick(rng, testActions)
	}
	p := Program{DefaultAction: action()}
	switch rng.Intn(4) {
	case 0:
	case 1:
		p.Offsets = []int{}
	default:
		for i, n := 0, 1+rng.Intn(16); i < n; i++ {
			p.Offsets = append(p.Offsets, pick(rng, testInts))
		}
	}
	if rng.Intn(2) == 0 {
		p.DefaultClass = pick(rng, testInts)
	}
	switch rng.Intn(5) {
	case 0:
	case 1:
		p.Entries = []WireEntry{}
	default:
		for i, n := 0, 1+rng.Intn(24); i < n; i++ {
			e := WireEntry{Action: action()}
			if rng.Intn(2) == 0 {
				e.Priority = pick(rng, testInts)
			}
			if rng.Intn(2) == 0 {
				e.Value, e.Mask = randKey(rng), randKey(rng)
			}
			if rng.Intn(3) == 0 {
				e.PrefixLen = pick(rng, testInts)
			}
			if rng.Intn(2) == 0 {
				e.Lo, e.Hi = randKey(rng), randKey(rng)
			}
			if rng.Intn(2) == 0 {
				e.Class = pick(rng, testInts)
			}
			p.Entries = append(p.Entries, e)
		}
	}
	if rng.Intn(2) == 0 {
		p.TraceID, p.SpanID = pick(rng, testUints), pick(rng, testUints)
	}
	return p
}

// refProgram is a program as the oracle of the frame → rows route holds
// it: exchange entries, never a builder.
type refProgram struct {
	offsets         []int
	def             p4.Action
	entries         []p4.Entry
	traceID, spanID uint64
}

// refRows is the oracle of the frame → rows route: encoding/json takes the
// envelope and the body apart, ToP4Entry converts row by row, and what a
// table stores of them is what Table.Replace makes of the entries.
// decodeErr is what encoding/json said; convErr the first action without a
// p4 type, the default's before any entry's.
func refRows(buf []byte) (env Envelope, rows *refProgram, decodeErr, convErr error) {
	var p Program
	if decodeErr = json.Unmarshal(buf, &env); decodeErr == nil {
		decodeErr = json.Unmarshal(env.Body, &p)
	}
	if decodeErr != nil {
		return env, nil, decodeErr, nil
	}
	def, convErr := ParseAction(p.DefaultAction)
	rows = &refProgram{offsets: p.Offsets, def: p4.Action{Type: def, Class: p.DefaultClass},
		entries: make([]p4.Entry, len(p.Entries)), traceID: p.TraceID, spanID: p.SpanID}
	for i := 0; i < len(p.Entries) && convErr == nil; i++ {
		rows.entries[i], convErr = p.Entries[i].ToP4Entry()
	}
	if convErr != nil {
		return env, nil, nil, convErr
	}
	return env, rows, nil, nil
}

// readRows reads one program frame the way the agent does: readMsg, and
// for a frame the single pass declined, DecodeBody and Program.rows.
func readRows(r io.Reader) (env Envelope, rows *programRows, single bool, decodeErr, convErr error) {
	env, rows, decodeErr = readMsg(r)
	if decodeErr != nil || rows != nil {
		return env, rows, rows != nil, decodeErr, nil
	}
	var p Program
	if decodeErr = DecodeBody(env, &p); decodeErr != nil {
		return env, nil, false, decodeErr, nil
	}
	rows, convErr = p.rows()
	return env, rows, false, nil, convErr
}

// storedRow is what a table keeps of one row beside its key: p4's
// TestStoredRowFootprint pins the struct to it.
const storedRow = 80

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

// stored is what a table holds once it has adopted the decoded rows (which
// are the table's from then on; a refused builder is as it was).
func (p *programRows) stored() string {
	return storedProgram(p.offsets, p.def, func(tbl *p4.Table, specs []p4.FieldSpec) error {
		return tbl.Program(specs, p.def, p.entries)
	})
}

func (p *refProgram) stored() string {
	return storedProgram(p.offsets, p.def, func(tbl *p4.Table, _ []p4.FieldSpec) error {
		return tbl.Replace(p.entries)
	})
}

// sameRows compares a decoded program with the oracle's by what a table
// stores of each: the envelope fields as decoded, the rows as read back.
func sameRows(a *programRows, b *refProgram) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return reflect.DeepEqual(a.offsets, b.offsets) && a.installed == len(b.entries) &&
		a.traceID == b.traceID && a.spanID == b.spanID && a.stored() == b.stored()
}

func programIsPlain(p Program) bool {
	ok := plainString(p.DefaultAction)
	for _, e := range p.Entries {
		ok = ok && plainString(e.Action)
	}
	return ok
}

// programIsCanonical: nothing to escape, every action one the protocol
// names and every row a range row of the program's width — what the frame
// → rows route decodes itself.
func programIsCanonical(p Program) bool {
	_, err := ParseAction(p.DefaultAction)
	fit := true
	for _, e := range p.Entries {
		if err == nil {
			_, err = ParseAction(e.Action)
		}
		fit = fit && len(e.Value)+len(e.Mask) == 0 && len(e.Lo) == len(p.Offsets) && len(e.Hi) == len(p.Offsets)
	}
	return err == nil && fit && programIsPlain(p)
}

// TestProgramFrameMatchesEncodingJSON is the differential test of the
// Program codec: frames equal the two-marshal reference byte for byte,
// frame → rows equals json.Unmarshal + ToP4Entry, and a program in the
// canonical form really takes the single-pass routes (so neither check is
// vacuous).
func TestProgramFrameMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	progs := []Program{{}, {Offsets: []int{}, Entries: []WireEntry{}}, {Entries: []WireEntry{{}}},
		{DefaultAction: "nop"}, {DefaultAction: "allow", Offsets: []int{}, Entries: []WireEntry{}}}
	for i := 0; i < 400; i++ {
		p := randProgram(rng, i%2 == 0)
		if i%4 == 0 { // known actions and range rows of the program's width: what the single pass decodes
			p.DefaultAction = testActions[rng.Intn(5)]
			for j := range p.Entries {
				e := &p.Entries[j]
				e.Action, e.Value, e.Mask = testActions[rng.Intn(5)], nil, nil
				e.Lo, e.Hi = make([]byte, len(p.Offsets)), make([]byte, len(p.Offsets))
				rng.Read(e.Lo)
				rng.Read(e.Hi)
			}
		}
		progs = append(progs, p)
	}
	singles := 0
	for i, p := range progs {
		isPlain := programIsPlain(p)
		if _, direct := programLen(&p); direct != isPlain {
			t.Fatalf("program %d: encoder took the codec = %v, want %v", i, direct, isPlain)
		}
		checkFrame(t, TypeProgram, uint64(i), p)

		frame := refFrame(t, TypeProgram, uint64(i), p)
		_, want, wantErr, wantConv := refRows(frame[4:])
		if wantErr != nil {
			t.Fatalf("program %d: reference decode: %v", i, wantErr)
		}
		env, got, single, err, conv := readRows(bytes.NewReader(frame))
		if err != nil || env.Type != TypeProgram || env.ID != uint64(i) {
			t.Fatalf("program %d: read as (%s, %d): %v", i, env.Type, env.ID, err)
		}
		if single != programIsCanonical(p) {
			t.Fatalf("program %d: decoder took the single pass = %v\n%s", i, single, frame[4:])
		}
		if fmt.Sprint(conv) != fmt.Sprint(wantConv) || !sameRows(got, want) {
			t.Fatalf("program %d: frame → rows differs from json.Unmarshal + ToP4Entry\n got %+v (%v)\nwant %+v (%v)", i, got, conv, want, wantConv)
		}
		if single {
			singles++
		}
	}
	if singles < len(progs)/8 {
		t.Fatalf("only %d of %d programs took the single pass", singles, len(progs))
	}
}

// TestDecodeKeyMatchesStdEncoding: key text is decoded by hand, so its
// accepted set is checked against base64.StdEncoding directly — every
// string of up to one quantum over an alphabet of valid, padding and
// hostile bytes, and random longer ones. Line breaks are the one thing
// StdEncoding skips that a JSON string cannot hold: those must be refused.
func TestDecodeKeyMatchesStdEncoding(t *testing.T) {
	alphabet := []byte("AQz9+/=*-_ \n\r\"\\\xff")
	check := func(txt []byte) {
		want, err := base64.StdEncoding.DecodeString(string(txt))
		wantOK := err == nil && !bytes.ContainsAny(txt, "\r\n")
		n, ok := keyLen(txt)
		got := make([]byte, n)
		ok = ok && decodeKey(got, txt)
		if ok != wantOK || ok && !bytes.Equal(got, want) {
			t.Fatalf("decodeKey(%q) = %x, %v; StdEncoding: %x, %v", txt, got, ok, want, err)
		}
	}
	var txt [4]byte
	for n := 0; n <= len(txt); n++ {
		for i, combos := 0, int(math.Pow(float64(len(alphabet)), float64(n))); i < combos; i++ {
			for j, v := 0, i; j < n; j, v = j+1, v/len(alphabet) {
				txt[j] = alphabet[v%len(alphabet)]
			}
			check(txt[:n])
		}
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 20000; i++ {
		raw := make([]byte, rng.Intn(24))
		rng.Read(raw)
		long := []byte(base64.StdEncoding.EncodeToString(raw))
		check(long)
		if len(long) > 0 {
			long[rng.Intn(len(long))] = pick(rng, alphabet)
			check(long)
		}
	}
}

// TestFramingMatchesEncodingJSON: every message type goes through the
// same hand-written framing; bodies other than Program stay on
// encoding/json, and the frame must not change for any of them.
func TestFramingMatchesEncodingJSON(t *testing.T) {
	entry := WireEntry{Priority: 3, Lo: []byte{1, 2}, Hi: []byte{3, 4}, Action: "drop", Class: 1}
	prog := Program{Offsets: []int{0}, DefaultAction: "allow", Entries: []WireEntry{entry}}
	bodies := []struct {
		typ  MsgType
		body any
	}{
		{TypeHello, Hello{SwitchName: "gw<0>", Link: 1}},
		{TypeHelloAck, HelloAck{ServerName: "s", Node: "n"}},
		{TypeProgram, prog},
		{TypeProgram, &prog}, // pointer bodies take the encoding/json route
		{TypeProgram, (*Program)(nil)},
		{TypeWrite, Write{Entry: entry, TraceID: 1 << 63}},
		{TypeDelta, DeltaMsg{Offsets: []int{0}, DefaultAction: "allow", BaseCount: 1, Adds: []WireDeltaAdd{{Entry: entry}}}},
		{TypeDigest, DigestMsg{Packets: []WirePacket{{TimeNS: -5, Bytes: []byte("<&>")}}}},
		{TypeResponse, Response{Error: "unknown message type \"x\"", Switch: &WireSwitchStats{Name: "gw"}}},
		{TypeHeartbeat, struct{}{}},
		{TypeCounters, nil},
		{TypeStats, json.RawMessage(`{"future":[1,2,{"k":"}]"}]}`)},
		{"", "scalar body"},
		{"a<b", 12.5},
		{`quo"te`, []int{1, 2}},
		{"naïve\x00", true},
	}
	for _, b := range bodies {
		for _, id := range []uint64{0, 1, 10, math.MaxUint64} {
			checkFrame(t, b.typ, id, b.body)
		}
	}
}

// programFrameCases are frames the decoder must treat exactly as
// encoding/json does although they are not what this package writes.
// They are also the checked-in seed corpus of FuzzReadProgramFrame
// (TestFuzzCorpusCheckedIn keeps testdata/fuzz in step with this list).
func programFrameCases() map[string][]byte {
	body := func(b string) []byte { return rawFrame(`{"type":"program","id":7,"body":` + b + `}`) }
	entry := `{"priority":5,"lo":"AQI=","hi":"AwQ=","action":"drop","class":1}`
	cases := map[string][]byte{
		"canonical":         body(`{"offsets":[0,1],"default_action":"allow","entries":[` + entry + `,` + entry + `],"trace_id":18446744073709551615}`),
		"null-lists":        body(`{"offsets":null,"default_action":"digest","entries":null}`),
		"reordered-keys":    body(`{"entries":[` + entry + `],"default_action":"allow","offsets":[0]}`),
		"reordered-entry":   body(`{"offsets":[0],"default_action":"allow","entries":[{"action":"drop","priority":5}]}`),
		"unknown-key":       body(`{"offsets":[0],"future":{"a":[1]},"default_action":"allow","entries":[]}`),
		"unknown-entry-key": body(`{"offsets":[0],"default_action":"allow","entries":[{"action":"drop","x":1}]}`),
		"duplicate-entries": body(`{"offsets":[0],"default_action":"allow","entries":[],"entries":[` + entry + `]}`),
		"leading-zero":      body(`{"offsets":[0],"default_action":"allow","entries":[{"priority":01,"action":"drop"}]}`),
		"minus-zero":        body(`{"offsets":[-0],"default_action":"allow","entries":[]}`),
		"minus-zero-class":  body(`{"offsets":[0],"default_action":"allow","default_class":-0,"entries":[]}`),
		"uint-20-digits":    body(`{"offsets":[0],"default_action":"allow","entries":[],"trace_id":18446744073709551616}`),
		"int-20-digits":     body(`{"offsets":[12345678901234567890],"default_action":"allow","entries":[]}`),
		"int-min":           body(`{"offsets":[-9223372036854775808],"default_action":"allow","entries":[]}`),
		"float-priority":    body(`{"offsets":[0],"default_action":"allow","entries":[{"priority":1.0,"action":"drop"}]}`),
		"exp-priority":      body(`{"offsets":[0],"default_action":"allow","entries":[{"priority":1e2,"action":"drop"}]}`),
		"escaped-action":    body(`{"offsets":[0],"default_action":"a<b","entries":[{"action":"x\"y"}]}`),
		"non-ascii-action":  body(`{"offsets":[0],"default_action":"naïve","entries":[{"action":"` + "\xff" + `"}]}`),
		"raw-html-action":   body(`{"offsets":[0],"default_action":"a<b","entries":[]}`),
		"control-in-string": body(`{"offsets":[0],"default_action":"a` + "\n" + `b","entries":[]}`),
		"bad-base64":        body(`{"offsets":[0],"default_action":"allow","entries":[{"lo":"A*I=","action":"drop"}]}`),
		"base64-no-pad":     body(`{"offsets":[0],"default_action":"allow","entries":[{"lo":"AQI","action":"drop"}]}`),
		"base64-pad-mid":    body(`{"offsets":[0],"default_action":"allow","entries":[{"lo":"A=I=","action":"drop"}]}`),
		"base64-all-pad":    body(`{"offsets":[0],"default_action":"allow","entries":[{"lo":"====","action":"drop"}]}`),
		"base64-loose-bits": body(`{"offsets":[0],"default_action":"allow","entries":[{"lo":"AR==","action":"drop"}]}`),
		"base64-empty":      body(`{"offsets":[0],"default_action":"allow","entries":[{"lo":"","action":"drop"}]}`),
		"null-fields":       body(`{"offsets":[0],"default_action":null,"entries":[{"lo":null,"priority":null,"action":"drop"}]}`),
		"wrong-types":       body(`{"offsets":"0","default_action":1,"entries":{}}`),
		"case-folded-keys":  body(`{"Offsets":[3],"DEFAULT_ACTION":"allow","entries":[]}`),
		"missing-action":    body(`{"offsets":[0],"default_action":"allow","entries":[{}]}`),
		"comma-first":       body(`{"offsets":[0],"default_action":"allow","entries":[{,"class":1}]}`),
		"trailing-comma":    body(`{"offsets":[0,],"default_action":"allow","entries":[]}`),
		"empty-object":      body(`{}`),
		"null-body":         body(`null`),
		"array-body":        body(`[1,2]`),
		"string-body":       body(`"}],{["`),
		"unbalanced-body":   body(`{"offsets":[0}`),
		"mismatched-close":  body(`{"offsets":[0}]`),
		"body-whitespace":   body(`{ "offsets": [0, 1],` + "\n\t" + `"default_action": "allow", "entries": [ ] }`),
		"body-lead-space":   rawFrame(`{"type":"program","body": {"offsets":[0],"default_action":"allow","entries":[]}}`),
		"scalar-body-space": rawFrame(`{"type":"program","body":12 }`),
		"body-padded":       body(` {"offsets":[0],"default_action":"allow","entries":[]} `),
		"frame-padded":      rawFrame(` {"type":"program","id":7,"body":{"offsets":[0],"default_action":"allow","entries":[]}} `),
		"key-after-body":    rawFrame(`{"type":"program","body":{"offsets":[0],"default_action":"allow","entries":[]},"id":7}`),
		"unknown-after":     rawFrame(`{"type":"program","id":7,"body":{"offsets":[0],"default_action":"allow","entries":[]},"x":{"y":"}"}}`),
		"duplicate-type":    rawFrame(`{"type":"write","type":"program","body":{"offsets":[0],"default_action":"allow","entries":[]}}`),
		"id-leading-zero":   rawFrame(`{"type":"program","id":07,"body":{}}`),
		"id-overflow":       rawFrame(`{"type":"program","id":18446744073709551616,"body":{}}`),
		"escaped-type":      rawFrame(`{"type":"pro\u0067ram","id":7,"body":{"offsets":[0],"default_action":"allow","entries":[]}}`),
		"no-body":           rawFrame(`{"type":"program","id":7}`),
		"empty-body":        rawFrame(`{"type":"program","id":7,"body":}`),
		"trailing-bytes":    rawFrame(`{"type":"program","id":7,"body":{"offsets":[0],"default_action":"allow","entries":[]}}xyz`),
		"trailing-brace":    rawFrame(`{"type":"program","id":7,"body":{}}}`),
		"lone-backslash":    rawFrame(`{"type":"program","body":"\`),
		"not-json":          rawFrame(`hello`),
		"empty-frame":       rawFrame(``),
		"delta-frame": rawFrame(`{"type":"delta","id":9,"body":{"offsets":[0],"default_action":"allow","base_count":1,` +
			`"base_hash":7,"deletes":[0],"adds":[{"entry":` + entry + `,"order":0}]}}`),
	}
	// The envelopes that test where a body ends; TestRecordedFrameAnswers
	// holds what each one did before the decoder settled that.
	for name, rec := range recordedFrames {
		cases["extent-"+name] = rawFrame(rec.frame)
	}
	truncated := body(`{"offsets":[0],"default_action":"allow","entries":[` + entry + `]}`)
	cases["truncated-frame"] = truncated[:len(truncated)-9]
	cases["after-frame"] = append(body(`{"offsets":[0],"default_action":"allow","entries":[]}`), "next frame"...)
	cases["header-only"] = []byte{0, 0}
	cases["claims-max-frame"] = append(binary.BigEndian.AppendUint32(nil, MaxFrame), `{"type":"program"}`...)
	cases["claims-max-frame-plus-1"] = append(binary.BigEndian.AppendUint32(nil, MaxFrame+1), `{"type":"program"}`...)
	return cases
}

// checkProgramFrame reads data as one framed Program both ways — the
// agent's route (readMsg, then DecodeBody + Program.rows for what the
// single pass declined) and a plain encoding/json + ToP4Entry reference —
// and fails on any disagreement:
//   - whenever the single-pass route accepts, encoding/json accepts and a
//     table stores the same program from either side (or refuses both
//     alike);
//   - whenever encoding/json rejects, the frame is rejected with
//     ErrMalformed (at readMsg or at DecodeBody);
//   - an action without a p4 type is the same error on both;
//   - transport-level failures (short header, truncated or oversized
//     frame) stay what they were.
//
// What decoding may allocate is checkFrameAllocs'.
func checkProgramFrame(t *testing.T, data []byte) {
	t.Helper()
	env, got, single, err, conv := readRows(bytes.NewReader(data))
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

	wantEnv, want, wantErr, wantConv := refRows(buf)
	switch {
	case wantErr != nil && !errors.Is(err, ErrMalformed):
		t.Fatalf("encoding/json rejects the frame (%v) but err = %v, want ErrMalformed", wantErr, err)
	case wantErr == nil && err != nil:
		t.Fatalf("encoding/json accepts the frame but err = %v", err)
	case wantErr == nil && (env.Type != wantEnv.Type || env.ID != wantEnv.ID || fmt.Sprint(conv) != fmt.Sprint(wantConv) || !sameRows(got, want)):
		t.Fatalf("decoded (%s, %d, %+v, %v), encoding/json decodes (%s, %d, %+v, %v)",
			env.Type, env.ID, got, conv, wantEnv.Type, wantEnv.ID, want, wantConv)
	}
	if single && (wantErr != nil || wantConv != nil || env.Type != TypeProgram || !bytes.Equal(env.Body, wantEnv.Body)) {
		t.Fatalf("the single pass accepted a frame encoding/json reads as (%s, %q, %v, %v)", wantEnv.Type, wantEnv.Body, wantErr, wantConv)
	}

	// The envelope route on its own: accepting is a claim that
	// encoding/json agrees.
	if fast, _, ok := splitEnvelope(buf); ok {
		var ref Envelope
		if json.Unmarshal(buf, &ref) == nil && !reflect.DeepEqual(fast, ref) {
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
	readRows(bytes.NewReader(data))
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
	if bound := n + 128*uint64(len(data)) + 64<<10; alloc > bound {
		t.Fatalf("decoding a %d-byte input allocated %d bytes (bound %d)", len(data), alloc, bound)
	}
}

// TestProgramFrameAllocBounds holds every hand-written case, and the random
// programs the fuzzer is seeded with, to checkFrameAllocs: the bound the
// fuzz body checked on every execution, six runtime.ReadMemStats a time,
// before it moved here.
func TestProgramFrameAllocBounds(t *testing.T) {
	for name, data := range programFrameCases() {
		t.Run(name, func(t *testing.T) { checkFrameAllocs(t, data) })
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		checkFrameAllocs(t, refFrame(t, TypeProgram, uint64(i), randProgram(rng, i%2 == 0)))
	}
}

// TestProgramFrameCases runs the hand-written cases directly, and pins
// which route each of the headline ones takes.
func TestProgramFrameCases(t *testing.T) {
	cases := programFrameCases()
	for name, data := range cases {
		t.Run(name, func(t *testing.T) { checkProgramFrame(t, data) })
	}
	singlePass := map[string]bool{"canonical": true, "null-lists": true,
		"int-min": true, "after-frame": true, "extent-canonical-two-rows": true}
	for name, data := range cases {
		if len(data) < 4 || int(binary.BigEndian.Uint32(data)) > len(data)-4 {
			continue
		}
		buf := data[4 : 4+binary.BigEndian.Uint32(data)]
		if _, rows, _ := splitEnvelope(buf); (rows != nil) != singlePass[name] {
			t.Errorf("%s: single-pass route accepted = %v", name, rows != nil)
		}
	}
}

var updateCorpus = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzReadProgramFrame from programFrameCases")

// TestDecodedKeysShareOneSlab: the single pass decodes range rows of the
// program's width, lo and hi copied into the program's slab (p4.Rows.Add),
// and a table stores exactly those of each. A row with a value or a mask —
// absent, empty or wider than the key makes no difference to a range table,
// which does not store them — or of another width is declined and decoded
// by encoding/json, and a table makes the same of it as of the oracle's
// entries: the rows without the value, or the refusal.
func TestDecodedKeysShareOneSlab(t *testing.T) {
	wide := base64.StdEncoding.EncodeToString(bytes.Repeat([]byte{0xA5}, 64))
	for name, entries := range map[string]string{
		"one-width": `{"lo":"AQ==","hi":"Ag==","action":"drop"},` +
			`{"prefix_len":3,"lo":"AQ==","hi":"AQ==","action":"nop"},` +
			`{"priority":3,"lo":"Bw==","hi":"CQ==","action":"set_class","class":4}`,
		"with-values": `{"lo":"AQ==","hi":"Ag==","action":"drop"},` +
			`{"value":"","mask":"","lo":"AA==","hi":"/w==","action":"allow"},` +
			`{"value":"` + wide + `","prefix_len":3,"lo":"AQ==","hi":"AQ==","action":"nop"}`,
		"unequal-widths": `{"lo":"AQ==","hi":"Ag==","action":"drop"},` +
			`{"lo":"AAECAwQF","hi":"/////w==","action":"allow"},` +
			`{"action":"digest"},` +
			`{"lo":"","action":"drop"},` +
			`{"priority":3,"lo":"AAE=","hi":"AAI=","action":"set_class","class":4}`,
	} {
		body := []byte(`{"offsets":[0],"default_action":"allow","entries":[` + entries + `]}`)
		got := parseProgramRows(body)
		if (got != nil) != (name == "one-width") {
			t.Fatalf("%s: taken by the single pass = %v", name, got != nil)
		}
		if got == nil {
			var p Program
			err := json.Unmarshal(body, &p)
			if got, err = p.rows(); err != nil {
				t.Fatal(err)
			}
		}
		_, want, err, conv := refRows([]byte(`{"type":"program","body":` + string(body) + `}`))
		if err != nil || conv != nil {
			t.Fatal(err, conv)
		}
		held := got.stored()
		if ref := want.stored(); held != ref {
			t.Fatalf("%s: decoded rows differ from encoding/json's\n got %s\nwant %s", name, held, ref)
		}
		if refused := strings.Contains(held, p4.ErrBadEntry.Error()); refused != (name == "unequal-widths") {
			t.Fatalf("%s: the table holds %s", name, held)
		}
		if name != "unequal-widths" && (strings.Contains(held, "165") || !strings.Contains(held, "PrefixLen:3 Lo:[1] Hi:[1]")) {
			t.Fatalf("%s: a range row was stored with its value, or without its lo and hi: %s", name, held)
		}
	}
}

// TestHostileBodyCannotInflateSlabs: the key slab is sized from a row's
// keys times the rows the builder has room for, which a first row sixteen
// thousand bytes wide would turn into sixteen times its width; it is held
// to the 3/4 of the text left that base64 can decode to (the keyBytes of
// p4.Rows.Grow). Whatever the body, one decode allocates no more than that
// for keys beside two rows of scratch, stored rows for the rows it could
// hold and the offsets; and a row that is not of the program's width —
// however much text it claims — is declined before a byte is allocated for
// it.
func TestHostileBodyCannotInflateSlabs(t *testing.T) {
	giant := strings.Repeat("AAAA", 150_000) // 600 KB of text, 450 KB of key
	row := func(lo string) string { return `{"lo":"` + lo + `","action":"drop"}` }
	var growing []string
	for n := 1; n <= 300; n++ {
		growing = append(growing, row(base64.StdEncoding.EncodeToString(make([]byte, n))))
	}
	const width = 4 << 10
	wideKey := base64.StdEncoding.EncodeToString(make([]byte, width))
	wideRow := `{"lo":"` + wideKey + `","hi":"` + wideKey + `","action":"drop"}`
	decode := func(offsets, entries string) (*programRows, int) {
		body := []byte(`{"offsets":[` + offsets + `],"default_action":"allow","entries":[` + entries + `]}`)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := parseProgramRows(body)
		runtime.ReadMemStats(&after)
		return got, int(after.TotalAlloc - before.TotalAlloc)
	}
	for name, entries := range map[string]string{
		"giant-first":   row(giant) + "," + row("AQ==") + "," + row("Ag=="),
		"giant-each":    row(giant) + "," + row(giant) + "," + row(giant),
		"giant-then-no": row(giant) + `,{"lo":"AQ==","action":"reflect"}`,
		"growing-keys":  strings.Join(growing, ","),
	} {
		if got, alloc := decode("0", entries); got != nil || alloc > 4<<10 {
			t.Errorf("%s: decoded %+v, allocating %d bytes for rows not of the program's width", name, got, alloc)
		}
	}
	offsets := strings.Repeat("0,", width-1) + "0"
	_, layout := decode(offsets, "")
	entries := wideRow + "," + wideRow + "," + wideRow
	got, alloc := decode(offsets, entries)
	if got == nil || got.installed != 3 {
		t.Fatalf("wide rows: decoded %+v", got)
	}
	// The keys, the scratch a row is decoded in, the builder's first size,
	// each rounded up to a size class; unheld, the slab alone is 128 KB.
	if budget := len(entries)/4*3 + 2*width + 16*storedRow + 8<<10; alloc-layout > budget {
		t.Errorf("three rows of %d bytes of key each allocated %d bytes beside the layout, budget %d", 2*width, alloc-layout, budget)
	}
}

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

// TestDecodedSlabFitsItsRows: the slab the decoder builds is what the
// table keeps for as long as the program stands, so it is sized to the
// rows: a table programmed from the frame, whose builder was sized by
// guessing from the text, holds within a hundredth (and a page) of what one
// programmed through Program.rows holds, which counts its rows first —
// whether rows run shorter or longer towards the end of the body than
// where they were sampled.
func TestDecodedSlabFitsItsRows(t *testing.T) {
	tapered := func(rows int, rising bool) Program {
		p := benchProgram(rows)
		for i := range p.Entries {
			n := i
			if !rising {
				n = rows - i
			}
			p.Entries[i].Priority, p.Entries[i].Class = n*n, n // four digits more at one end than at the other
		}
		return p
	}
	for name, p := range map[string]Program{
		"rows=16": benchProgram(16), "rows=17": benchProgram(17), "rows=300": benchProgram(300),
		"rows=8192": benchProgram(8192), "rows=50000": benchProgram(50000),
		"falling": tapered(8192, false), "rising": tapered(8192, true),
	} {
		frame := refFrame(t, TypeProgram, 1, p)
		program := func(decode func() *programRows) func() any {
			return func() any {
				rows := decode()
				if rows == nil || rows.installed != len(p.Entries) {
					t.Fatalf("%s: not decoded", name)
				}
				tbl := p4.NewTable("det", p4.MatchRange, nil, 0, p4.Action{})
				if err := tbl.Program(make([]p4.FieldSpec, 6), rows.def, rows.entries); err == nil {
					t.Fatalf("%s: a table took six-byte rows on a key of no bytes", name)
				}
				specs := []p4.FieldSpec{{Width: 6}}
				if err := tbl.Program(specs, rows.def, rows.entries); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return tbl
			}
		}
		guessed := heapAfter(program(func() *programRows {
			_, rows, _ := splitEnvelope(frame[4:])
			return rows
		}))
		counted := heapAfter(program(func() *programRows {
			rows, err := p.rows()
			if err != nil {
				t.Fatal(err)
			}
			return rows
		}))
		n := len(p.Entries)
		if spare := guessed - counted; spare > (n/100+1)*(storedRow+12)+8<<10 {
			t.Errorf("%s: the table keeps %d bytes decoded from the frame, %d counted first: %d to spare on %d rows",
				name, guessed, counted, spare, n)
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
	body := []byte(`{"offsets":[4],"default_action":"drop","entries":null}`)
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

func FuzzReadProgramFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		f.Add(refFrame(f, TypeProgram, uint64(i), randProgram(rng, i%2 == 0)))
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
// WriteMsg (encode), read and split into the rows the table installs as
// the agent's loop does it, the frame recycled (decode: its allocations
// are the sizes the entry and key slabs go through, not the rows), and
// from the frame to a programmed detector table (apply).
func BenchmarkProgramFrame(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, rows := range []int{16, 8192} {
		prog := benchProgram(rows)
		frame := refFrame(b, TypeProgram, 1, prog)
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
				_, got, err := splitFrame(buf)
				if err != nil || got == nil || got.installed != rows {
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
