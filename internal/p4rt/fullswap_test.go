package p4rt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"p4guard/internal/dtrace"
	"p4guard/internal/p4"
	"p4guard/internal/packet"
	"p4guard/internal/switchsim"
)

func newTestSwitch(t testing.TB) *switchsim.Switch {
	t.Helper()
	sw, err := switchsim.New("gw", packet.LinkEthernet)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// programFrame frames p as a client sends it and checks that the agent's
// envelope split takes it in one pass.
func programFrame(t testing.TB, p Program) []byte {
	t.Helper()
	frame, _, err := encodeFrame(TypeProgram, 1, p) // kept, not recycled: the tests hold on to it
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := splitEnvelope(frame[4:]); !ok {
		t.Fatalf("%+v does not take the single-pass split", p)
	}
	return frame
}

// applyFrame is the agent's handling of one program frame without the
// connection around it: read, split, decode and swap the table, recycle
// the frame.
func applyFrame(t testing.TB, s *Server, r io.Reader) Response {
	t.Helper()
	frame, err := readFrame(r)
	if err != nil {
		t.Fatalf("read a frame: %v", err)
	}
	env, err := splitFrame(frame)
	if err != nil || env.Type != TypeProgram {
		t.Fatalf("split a %q frame: %v", env.Type, err)
	}
	resp := s.applyProgram(env)
	recycleFrame(frame)
	return resp
}

// memConn is a net.Conn over memory. Read serves in and remembers every
// slice it filled — those are the reader's own frame buffers, which lets a
// test scribble over them afterwards; Write collects out.
type memConn struct {
	in     []byte
	filled [][]byte
	out    bytes.Buffer
}

func (c *memConn) Read(p []byte) (int, error) {
	if len(c.in) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.in)
	c.in = c.in[n:]
	c.filled = append(c.filled, p[:n])
	return n, nil
}

func (c *memConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *memConn) Close() error                     { return nil }
func (c *memConn) LocalAddr() net.Addr              { return nil }
func (c *memConn) RemoteAddr() net.Addr             { return nil }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// handleFrames runs the agent's connection handler over in, a sequence of
// frames, until it has read them all or dropped the connection, and
// returns the connection and the responses it wrote.
func handleFrames(t testing.TB, sw *switchsim.Switch, in []byte) (*memConn, []Response) {
	t.Helper()
	conn := &memConn{in: in}
	s := &Server{sw: sw, conns: map[net.Conn]*connState{conn: {}}}
	s.handleConn(conn)
	var resps []Response
	for r := bytes.NewReader(conn.out.Bytes()); r.Len() > 0; {
		env, err := ReadMsg(r)
		if err != nil {
			t.Fatalf("agent wrote a frame that does not read back: %v", err)
		}
		var resp Response
		if err := DecodeBody(env, &resp); err != nil || env.Type != TypeResponse {
			t.Fatalf("agent wrote a %s frame: %v", env.Type, err)
		}
		resps = append(resps, resp)
	}
	return conn, resps
}

// recordedFrame is a hostile or merely unusual program frame and what the
// agent did with it: written down from a run of the version-2 codec (PR 29)
// and read over one by one, not recomputed, so a route that reads such a
// frame differently shows up as a diff against that record rather than
// against itself. state is the detector afterwards — programmed rows /
// their signature / default action / its class / key fields — and an
// untouched switch reads "0/0x0/digest/0/0".
type recordedFrame struct {
	frame   string
	dropped bool   // the connection was dropped without an answer
	resp    string // else the Response, as JSON
	state   string
}

// recRow is the row most recorded frames carry: a one-byte key 1..2 at
// priority 5, dropped as class 1.
var recRow = string(packRow([]byte{1}, []byte{2}, 5, 1, p4.ActionDrop))

const recHead = `{"offsets":[0],"default_action":"allow","trace_id":9,"rows":1}`

var recordedFrames = map[string]recordedFrame{
	"body-before-type": {frame: `{"id":7,"body":` + recHead + `,"type":"program"}` + recRow,
		resp: `{"ok":true,"installed":1,"trace_id":9}`, state: "1/0x19abc623c5da6706/allow/0/1"},
	"body-first": {frame: `{"body":` + recHead + `,"type":"program","id":7}` + recRow,
		resp: `{"ok":true,"installed":1,"trace_id":9}`, state: "1/0x19abc623c5da6706/allow/0/1"},
	"braces-in-action": {frame: `{"type":"program","id":7,"body":{"offsets":[0],"default_action":"}}","rows":0}}`,
		resp: `{"ok":false,"error":"p4rt: unknown action \"}}\""}`, state: "0/0x0/digest/0/0"},
	"braces-in-entry-action": {frame: `{"type":"program","id":7,"body":` + recHead + `}` + recRow[:10] + "}",
		resp: `{"ok":false,"error":"p4rt: malformed message: row 0: action 125","trace_id":9}`, state: "0/0x0/digest/0/0"},
	"braces-in-key": {frame: `{"type":"program","id":7,"body":` + recHead + `}` + string(packRow([]byte("}"), []byte("}"), 5, 1, p4.ActionDrop)),
		resp: `{"ok":true,"installed":1,"trace_id":9}`, state: "1/0x9a816d760ab8f6b/allow/0/1"},
	"braces-in-unknown": {frame: `{"type":"program","id":7,"body":{"offsets":[0],"future":"}}","default_action":"allow","rows":0}}`,
		resp: `{"ok":true}`, state: "0/0x0/allow/0/1"},
	"canonical-two-rows": {frame: `{"type":"program","id":7,"body":{"offsets":[3,4],"default_action":"digest","default_class":2,"trace_id":3,"span_id":4,"rows":2}}` +
		string(packRow([]byte{1, 2}, []byte{3, 4}, 2, 1, p4.ActionDrop)) + string(packRow([]byte{0, 0}, []byte{255, 255}, 1, 0, p4.ActionAllow)),
		resp: `{"ok":true,"installed":2,"trace_id":3,"span_id":4}`, state: "2/0x39fb806d643fa89/digest/2/2"},
	"comma-object-after": {frame: `{"type":"program","id":7,"body":` + recHead + `},{}`,
		resp: `{"ok":false,"error":"p4rt: malformed message: 3 bytes of rows are not 1 rows of 11 bytes","trace_id":9}`, state: "0/0x0/digest/0/0"},
	"empty-array-body": {frame: `{"type":"program","id":7,"body":[]}`,
		resp: `{"ok":false,"error":"p4rt: malformed message: decode program body: json: cannot unmarshal array into Go value of type p4rt.programHead"}`, state: "0/0x0/digest/0/0"},
	"garbage-then-brace": {frame: `{"type":"program","id":7,"body":` + recHead + `}xyz}`,
		resp: `{"ok":false,"error":"p4rt: malformed message: 4 bytes of rows are not 1 rows of 11 bytes","trace_id":9}`, state: "0/0x0/digest/0/0"},
	"member-after-program": {frame: `{"type":"program","id":7,"body":` + recHead + `,"x":1}` + recRow,
		resp: `{"ok":true,"installed":1,"trace_id":9}`, state: "1/0x19abc623c5da6706/allow/0/1"},
	"missing-envelope-close": {frame: `{"type":"program","id":7,"body":` + recHead + recRow,
		dropped: true, state: "0/0x0/digest/0/0"},
	"null-body-last": {frame: `{"type":"program","id":7,"body":null}`,
		resp: `{"ok":false,"error":"p4rt: malformed message: the head counts no rows"}`, state: "0/0x0/digest/0/0"},
	"number-body": {frame: `{"type":"program","id":7,"body":12}`,
		resp: `{"ok":false,"error":"p4rt: malformed message: decode program body: json: cannot unmarshal number into Go value of type p4rt.programHead"}`, state: "0/0x0/digest/0/0"},
	"object-in-array-body": {frame: `{"type":"program","id":7,"body":[` + recHead + `]}` + recRow,
		resp: `{"ok":false,"error":"p4rt: malformed message: decode program body: json: cannot unmarshal array into Go value of type p4rt.programHead"}`, state: "0/0x0/digest/0/0"},
	"quote-brace-in-action": {frame: `{"type":"program","id":7,"body":{"offsets":[0],"default_action":"a\"}}","rows":0}}`,
		resp: `{"ok":false,"error":"p4rt: unknown action \"a\\\"}}\""}`, state: "0/0x0/digest/0/0"},
	"second-body": {frame: `{"type":"program","id":7,"body":` + recHead + `,"body":{"offsets":[1,2],"default_action":"digest","rows":0}}`,
		resp: `{"ok":true}`, state: "0/0x0/digest/0/2"},
	"second-body-first-junk": {frame: `{"type":"program","id":7,"body":[1,{"a":"}"}],"body":` + recHead + `}` + recRow,
		resp: `{"ok":true,"installed":1,"trace_id":9}`, state: "1/0x19abc623c5da6706/allow/0/1"},
	"second-body-scalar": {frame: `{"type":"program","id":7,"body":` + recHead + `,"body":1}` + recRow,
		resp: `{"ok":false,"error":"p4rt: malformed message: decode program body: json: cannot unmarshal number into Go value of type p4rt.programHead"}`, state: "0/0x0/digest/0/0"},
	"space-then-brace": {frame: `{"type":"program","id":7,"body":` + recHead + ` }` + recRow,
		resp: `{"ok":true,"installed":1,"trace_id":9}`, state: "1/0x19abc623c5da6706/allow/0/1"},
	"true-body": {frame: `{"type":"program","id":7,"body":true}`,
		resp: `{"ok":false,"error":"p4rt: malformed message: decode program body: json: cannot unmarshal bool into Go value of type p4rt.programHead"}`, state: "0/0x0/digest/0/0"},
	"unknown-action": {frame: `{"type":"program","id":7,"body":{"offsets":[0],"default_action":"allow","trace_id":3,"span_id":4,"rows":1}}` + recRow[:10] + "\x09",
		resp: `{"ok":false,"error":"p4rt: malformed message: row 0: action 9","trace_id":3,"span_id":4}`, state: "0/0x0/digest/0/0"},
	"unknown-default-action": {frame: `{"type":"program","id":7,"body":{"offsets":[0],"default_action":"","rows":1}}` + recRow[:10] + "\x09",
		resp: `{"ok":false,"error":"p4rt: unknown action \"\""}`, state: "0/0x0/digest/0/0"},
	"wide-and-narrow-keys": {frame: `{"type":"program","body":{"offsets":null,"default_action":"digest","default_class":-3,"span_id":1,"rows":2}}` +
		string(packRow([]byte{0, 1, 2}, []byte{0, 1, 2}, -1, 2, 4)) + string(packRow(nil, nil, 0, 0, p4.ActionDigest)),
		resp: `{"ok":false,"error":"p4rt: malformed message: 24 bytes of rows are not 2 rows of 9 bytes","span_id":1}`, state: "0/0x0/digest/0/0"},
	"write-typed-program": {frame: `{"type":"write","id":7,"body":` + recHead + `}` + recRow,
		resp: `{"ok":false,"error":"table iot_detector: range lo/hi widths 1/1 != key 0: p4: bad entry","trace_id":9}`, state: "0/0x0/digest/0/0"},
}

// TestRecordedFrameAnswers sends each recorded frame, then a heartbeat,
// down a connection to a fresh switch: a dropped connection answers
// neither, a refused or applied program answers both.
func TestRecordedFrameAnswers(t *testing.T) {
	for name, rec := range recordedFrames {
		sw := newTestSwitch(t)
		in := append(rawFrame(rec.frame), rawFrame(`{"type":"heartbeat","id":8}`)...)
		_, resps := handleFrames(t, sw, in)
		det, err := sw.Pipeline().Table(switchsim.DetectorTable)
		if err != nil {
			t.Fatal(err)
		}
		count, hash := det.ProgramSignature()
		state := fmt.Sprintf("%d/%#x/%s/%d/%d", count, hash, det.DefaultAction.Type, det.DefaultAction.Class, len(det.KeySpecs()))
		if state != rec.state {
			t.Errorf("%s: detector is %s afterwards, was %s", name, state, rec.state)
		}
		switch {
		case rec.dropped && len(resps) != 0:
			t.Errorf("%s: answered %+v, used to drop the connection", name, resps)
		case !rec.dropped && len(resps) != 2:
			t.Errorf("%s: %d answers to the frame and the heartbeat after it, want 2", name, len(resps))
		case !rec.dropped:
			got, err := json.Marshal(resps[0])
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != rec.resp || !resps[1].OK {
				t.Errorf("%s: answered %s then %+v, used to answer %s then ok", name, got, resps[1], rec.resp)
			}
		}
	}
}

// pointProgram is rows distinct point rows on a two-byte key under a
// default of digest, allow and drop alternating, each with its own class.
func pointProgram(rows int) Program {
	p := Program{Offsets: []int{0, 1}, DefaultAction: "digest", TraceID: 5, SpanID: 6}
	for i := 0; i < rows; i++ {
		k := []byte{byte(i >> 8), byte(i)}
		p.Entries = append(p.Entries, WireEntry{Priority: rows - i, Lo: k, Hi: k,
			Action: FormatAction(p4.ActionAllow + p4.ActionType(i%2)), Class: i + 1})
	}
	return p
}

// TestProgrammedRowsDoNotAliasFrame tests the memory rule instead of
// stating it: after a program has been applied, every byte it arrived in
// — the buffer handed to the connection and every buffer the agent read
// it into — is overwritten, and the table must still hold the program.
func TestProgrammedRowsDoNotAliasFrame(t *testing.T) {
	prog := pointProgram(300)
	frame := programFrame(t, prog)
	sw := newTestSwitch(t)
	conn, resps := handleFrames(t, sw, frame)
	if len(resps) != 1 || !resps[0].OK || resps[0].Installed != len(prog.Entries) {
		t.Fatalf("program refused: %+v", resps)
	}
	read := 0
	for _, buf := range append(conn.filled, frame) {
		read += len(buf)
		for i := range buf {
			buf[i] = 0xAA
		}
	}
	if read != 2*len(frame) {
		t.Fatalf("overwrote %d bytes of a %d-byte frame and the buffers it was read into", read, len(frame))
	}

	det, err := sw.Pipeline().Table(switchsim.DetectorTable)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]p4.Entry, len(prog.Entries))
	for i, w := range prog.Entries {
		var err error
		if want[i], err = w.ToP4Entry(); err != nil {
			t.Fatal(err)
		}
	}
	got := det.Entries()
	for i := range got {
		got[i].ID = 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the table's entries changed when the frame was overwritten")
	}
	held := p4.NewTable("held", det.Kind, det.KeySpecs(), 0, p4.Action{})
	if err := held.Replace(got); err != nil {
		t.Fatal(err)
	}
	wantCount, wantSig := held.ProgramSignature()
	if count, sig := det.ProgramSignature(); count != wantCount || sig != wantSig {
		t.Fatalf("signature (%d, %#x) is not that of the entries held (%d, %#x)", count, sig, wantCount, wantSig)
	}
	for i, e := range want {
		if act, matched := det.Lookup(e.Lo); !matched || act != e.Action {
			t.Fatalf("row %d: lookup of its key = %+v (matched %v), want %+v", i, act, matched, e.Action)
		}
	}
}

// TestFullSwapAllocsPerRow gates what a full swap allocates, and what it
// does not: per row, nothing. Frame bytes to applied table is a couple of
// dozen allocations at 16 rows and at 8 192 — the head, the row slab and
// the key slab, the table's lists and index — with the frame's own buffer
// recycled from the swap before. In bytes, frame to decoded rows is the
// stored rows once, at their exact size: the head counts them. A second
// form of the rows, as WireEntrys or as exchange entries, would be another
// 80 bytes each.
func TestFullSwapAllocsPerRow(t *testing.T) {
	// A collection may empty the frame pool, and then a swap or a decode
	// pays for a frame buffer that is not its own; what is gated is their
	// own allocations, so none runs while this test counts.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, rows := range []int{16, 8192} {
		frame := refProgramFrame(t, 1, benchProgram(rows))
		s := &Server{sw: newTestSwitch(t)}
		r := bytes.NewReader(frame)
		swap := func() {
			r.Reset(frame)
			if resp := applyFrame(t, s, r); !resp.OK || resp.Installed != rows {
				t.Fatalf("apply: %+v", resp)
			}
		}
		swap() // the first big frame has no buffer to recycle
		limit := 36.0
		if raceEnabled {
			limit = 40 // the pool drops a quarter of the buffers on purpose
		}
		allocs := testing.AllocsPerRun(5, swap)
		if allocs > limit {
			t.Errorf("rows=%d: %.0f allocations per swap, want at most %.0f whatever the rows", rows, allocs, limit)
		}
		if raceEnabled {
			continue // the pool drops a quarter of the buffers on purpose
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.Reset(frame)
		buf, err := readFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		env, err := splitFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := decodeProgram(env); err != nil || got.installed != rows {
			t.Fatalf("decode: %v", err)
		}
		recycleFrame(buf)
		runtime.ReadMemStats(&after)
		const keys = 12 // lo and hi, six bytes each, cut from one slab
		row := storedRow + keys
		budget := rows*row + 4<<10 // the head, and large objects rounding up to pages
		if got := int(after.TotalAlloc - before.TotalAlloc); got > budget {
			t.Errorf("rows=%d: decoding allocated %d bytes, budget %d (%d would hold the rows a second time)",
				rows, got, budget, budget+rows*int(unsafe.Sizeof(WireEntry{})))
		}
	}
}

// TestProgramApplySpanCoversDecode: with the switch tracer armed, a
// program's program_apply span starts when the request arrives, so
// decoding its 8 192 rows is inside the span. Five applies alternate with
// five plain decodes of the same frame, so both see the same load: the
// shortest span must last at least the shortest decode, and the span must
// miss less than half a decode of the applyProgram call around it — a
// span opened after decoding misses a whole one.
func TestProgramApplySpanCoversDecode(t *testing.T) {
	prog := benchProgram(8192)
	prog.TraceID, prog.SpanID = 5, 6
	frame := refProgramFrame(t, 1, prog)
	sw := newTestSwitch(t)
	tr := dtrace.NewTracer()
	tr.Arm("gw", 1, 16)
	sw.SetTracer(tr)
	s := &Server{sw: sw}

	envelope := func() ([]byte, Envelope) {
		buf, err := readFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		env, err := splitFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		return buf, env
	}
	const never = time.Duration(1<<63 - 1)
	bestDecode, bestSpan, leastMissed := never, never, never
	for i := 0; i < 5; i++ {
		buf, env := envelope()
		start := time.Now()
		if resp := s.applyProgram(env); !resp.OK || resp.Installed != 8192 {
			t.Fatalf("apply: %+v", resp)
		}
		call := time.Since(start)
		recycleFrame(buf)
		spans := tr.Spans()
		if len(spans) != i+1 || spans[i].Name != dtrace.DetailProgram {
			t.Fatalf("spans = %+v, want %d %s", spans, i+1, dtrace.DetailProgram)
		}
		bestSpan, leastMissed = min(bestSpan, spans[i].Duration()), min(leastMissed, call-spans[i].Duration())

		buf, env = envelope()
		start = time.Now()
		if p, err := decodeProgram(env); err != nil || p.installed != 8192 {
			t.Fatalf("decode: %d rows, %v", p.installed, err)
		}
		bestDecode = min(bestDecode, time.Since(start))
		recycleFrame(buf)
	}
	if bestSpan < bestDecode || leastMissed > bestDecode/2 {
		t.Fatalf("program_apply spans: shortest %v, missing at least %v of their calls; a decode takes %v (shortest of five)",
			bestSpan, leastMissed, bestDecode)
	}
}

// TestFullSwapFramesNeverServeTornGeneration is switchsim's
// TestFullSwapNeverServesTornGeneration with the swaps arriving as frames:
// two programs with different key layouts, both
// dropping the same frame under a default of allow, race scalar and burst
// readers (run under -race). A reader that sees the frame allowed was
// served the new default without the new entries.
func TestFullSwapFramesNeverServeTornGeneration(t *testing.T) {
	program := func(width int) []byte {
		p := Program{DefaultAction: "allow"}
		lo, hi := make([]byte, width), bytes.Repeat([]byte{255}, width)
		lo[0] = 101
		p.Entries = append(p.Entries, WireEntry{Priority: 9, Lo: lo, Hi: hi, Action: "drop", Class: 1})
		for i := 0; i < 1024; i++ { // bulk, so a rebuild takes long enough to be caught mid-way
			k := make([]byte, width)
			k[0], k[width-1] = byte(i%100), byte(i/100)
			p.Entries = append(p.Entries, WireEntry{Priority: 1, Lo: k, Hi: k, Action: "allow"})
		}
		for i := 0; i < width; i++ {
			p.Offsets = append(p.Offsets, i)
		}
		return programFrame(t, p)
	}
	frames := [2][]byte{program(1), program(2)}
	sw := newTestSwitch(t)
	s := &Server{sw: sw}
	applyFrame(t, s, bytes.NewReader(frames[0]))

	attack := &packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{200, 7, 0, 0}}
	var stop atomic.Bool
	var reads [2]atomic.Int64
	var wg sync.WaitGroup
	for r, forward := range []func() p4.Verdict{
		func() p4.Verdict { return sw.Process(attack) },
		func() p4.Verdict { return sw.ProcessBatch([]*packet.Packet{attack})[0] },
	} {
		wg.Add(1)
		go func(r int, forward func() p4.Verdict) {
			defer wg.Done()
			for !stop.Load() {
				if v := forward(); v.Allowed {
					t.Errorf("reader %d: attack frame allowed mid-swap: %+v", r, v)
					return
				}
				reads[r].Add(1)
			}
		}(r, forward)
	}
	for i := 1; (i <= 300 || reads[0].Load() == 0 || reads[1].Load() == 0) && !t.Failed(); i++ {
		if resp := applyFrame(t, s, bytes.NewReader(frames[i%2])); !resp.OK {
			t.Errorf("swap %d refused: %+v", i, resp)
		}
	}
	stop.Store(true)
	wg.Wait()
}
