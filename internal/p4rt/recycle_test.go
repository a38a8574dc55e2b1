package p4rt

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"p4guard/internal/p4"
	"p4guard/internal/switchsim"
)

// TestClaimedLengthAllocatesAsBytesArrive: the header's word is a claim.
// Four bytes saying MaxFrame, ten bytes and then nothing must cost the
// first chunk, not four megabytes, and fail as a short body always has.
func TestClaimedLengthAllocatesAsBytesArrive(t *testing.T) {
	in := append(binary.BigEndian.AppendUint32(nil, MaxFrame), "0123456789"...)
	r := bytes.NewReader(in)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadMsg(r)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "read frame body") || !strings.Contains(err.Error(), io.ErrUnexpectedEOF.Error()) {
		t.Fatalf("err = %v, want the read frame body error over an unexpected EOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 128<<10 {
		t.Fatalf("a %d-byte claim with 10 bytes behind it allocated %d bytes, want at most 128 KB", MaxFrame, got)
	}

	// A frame that does arrive, in pieces of every size, reads back whole.
	frame := refFrame(t, TypeProgram, 3, benchProgram(3000))
	for _, piece := range []int{1 << 10, recycleMin - 1, recycleMin, 3 * recycleMin, len(frame)} {
		env, rows, err := readMsg(&chunkReader{b: frame, n: piece})
		if err != nil || rows == nil || rows.installed != 3000 || env.ID != 3 {
			t.Fatalf("in pieces of %d: %v, %+v", piece, err, rows)
		}
	}
}

// chunkReader serves b at most n bytes a Read.
type chunkReader struct {
	b []byte
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.n)], c.b)
	c.b = c.b[n:]
	return n, nil
}

// TestSmallFramesNeverSeeThePool: a frame below recycleMin is allocated at
// its size and costs what it cost before there was a pool — one buffer to
// write, header and buffer to read.
func TestSmallFramesNeverSeeThePool(t *testing.T) {
	w := Write{Entry: WireEntry{Priority: 9, Lo: []byte{1, 2}, Hi: []byte{1, 2}, Action: "drop", Class: 1}}
	want := refFrame(t, TypeWrite, 7, w)
	if allocs := testing.AllocsPerRun(50, func() {
		frame, own, err := encodeFrame(TypeHeartbeat, 7, struct{}{})
		if err != nil || own || cap(frame) != len(frame) {
			t.Fatalf("small frame: own %v, cap %d for len %d: %v", own, cap(frame), len(frame), err)
		}
		recycleFrame(frame)
	}); allocs > 2 && !raceEnabled { // the frame, and encoding/json's own for the body (whose pool the race detector drops from)
		t.Errorf("encoding a heartbeat: %.0f allocations", allocs)
	}
	r := bytes.NewReader(want)
	if allocs := testing.AllocsPerRun(50, func() {
		r.Reset(want)
		frame, err := readFrame(r)
		if err != nil || cap(frame) != len(frame) {
			t.Fatalf("small frame read: cap %d for len %d: %v", cap(frame), len(frame), err)
		}
		recycleFrame(frame)
	}); allocs > 2 { // the header's four bytes and the frame
		t.Errorf("reading a write frame: %.0f allocations", allocs)
	}
}

// TestEncodedProgramFrames: a program that carries its body is framed, for
// any id, exactly as the program itself is; the body is written once and
// each frame lies in the same buffer; after release, and for a program the
// codec leaves to encoding/json, the copy is encoded per call again.
func TestEncodedProgramFrames(t *testing.T) {
	for _, rows := range []int{0, 16, 3000} {
		p := benchProgram(rows)
		p.TraceID, p.SpanID = 77, 1<<63+5
		enc, release := p.Encoded()
		if enc.body == nil {
			t.Fatalf("rows=%d: not encoded", rows)
		}
		var last []byte
		for _, id := range []uint64{0, 1, 42, 1<<64 - 1} {
			frame, own, err := encodeFrame(TypeProgram, id, enc)
			if err != nil || own {
				t.Fatalf("rows=%d id=%d: own %v, %v", rows, id, own, err)
			}
			if want := refFrame(t, TypeProgram, id, p); !bytes.Equal(frame, want) {
				t.Fatalf("rows=%d id=%d: frame of the encoded body differs from the reference\n got %.120q\nwant %.120q", rows, id, frame, want)
			}
			if last != nil && &frame[len(frame)-1] != &last[len(last)-1] {
				t.Fatalf("rows=%d id=%d: the frame is not in the body's buffer", rows, id)
			}
			last = frame
		}
		// Sent as another message type the bytes are the message's own.
		if frame, _, err := encodeFrame(TypeWrite, 1, enc); err != nil || !bytes.Equal(frame, refFrame(t, TypeWrite, 1, p)) {
			t.Fatalf("rows=%d: an encoded program under another type: %v", rows, err)
		}
		release()
		if enc.body.buf != nil {
			t.Fatalf("rows=%d: the body outlives its release", rows)
		}
		frame, _, err := encodeFrame(TypeProgram, 9, enc)
		if err != nil || !bytes.Equal(frame, refFrame(t, TypeProgram, 9, p)) {
			t.Fatalf("rows=%d: after release the program no longer frames: %v", rows, err)
		}
	}
	escaped := Program{DefaultAction: "a<b"}
	if enc, release := escaped.Encoded(); enc.body != nil {
		t.Fatal("a program with a string to escape was encoded by the codec")
	} else {
		release()
	}
	huge := Program{DefaultAction: "allow", Entries: []WireEntry{{Lo: make([]byte, MaxFrame), Action: "drop"}}}
	if enc, _ := huge.Encoded(); enc.body != nil {
		t.Fatal("a program past MaxFrame was encoded")
	}
	if _, _, err := encodeFrame(TypeProgram, 1, huge); !errors.Is(err, ErrOversized) {
		t.Fatalf("a program past MaxFrame, left to the regular route: %v", err)
	}
}

// TestEncodedProgramOverWire sends one encoded body to three switches and
// each ends up with the program, byte for byte what a plain send leaves.
func TestEncodedProgramOverWire(t *testing.T) {
	p := benchProgram(2000)
	enc, release := p.Encoded()
	defer release()
	want := entriesOf(t, func(sw *switchsim.Switch, cl *Client) {
		if _, err := cl.ProgramDetector(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	})
	for i := 0; i < 3; i++ {
		got := entriesOf(t, func(sw *switchsim.Switch, cl *Client) {
			if err := cl.Heartbeat(context.Background()); err != nil { // so that ids differ between switches
				t.Fatal(err)
			}
			for j := 0; j <= i; j++ {
				if resp, err := cl.ProgramDetector(context.Background(), enc); err != nil || resp.Installed != len(p.Entries) {
					t.Fatalf("switch %d: %+v, %v", i, resp, err)
				}
			}
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("switch %d holds a different table after the encoded body", i)
		}
	}
}

// entriesOf runs drive against a fresh switch and its client and returns
// the detector's entries, ids zeroed.
func entriesOf(t *testing.T, drive func(*switchsim.Switch, *Client)) []p4.Entry {
	t.Helper()
	sw, _, cl := startPair(t, nil)
	drive(sw, cl)
	det, err := sw.Pipeline().Table(switchsim.DetectorTable)
	if err != nil {
		t.Fatal(err)
	}
	entries := det.Entries()
	for i := range entries {
		entries[i].ID = 0
	}
	return entries
}

// TestRecycledFrameNeverLeaksIntoTable: program A, then a shorter program
// B on the same connection — read into the buffer A's frame came in —
// while a second connection keeps writing entries, its small frames
// allocated beside the recycled ones. What the table holds afterwards is
// B, as a fresh table given B holds it. Run under -race.
func TestRecycledFrameNeverLeaksIntoTable(t *testing.T) {
	progA, progB := benchProgram(8192), benchProgram(1500)
	sw, srv, cl := startPair(t, nil)
	writer, err := DialContext(context.Background(), srv.Addr(), "writer", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = writer.Close() }()
	if _, err := cl.ProgramDetector(context.Background(), progA); err != nil { // the key layout the writes need
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := []byte{0xEE, byte(i >> 16), byte(i >> 8), byte(i), 1, 2}
			if _, err := writer.WriteEntry(context.Background(), WireEntry{Priority: 1 << 20, Lo: k, Hi: k, Action: "drop", Class: 1}); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < 4; i++ {
		if resp, err := cl.ProgramDetector(context.Background(), progA); err != nil || resp.Installed != len(progA.Entries) {
			t.Fatalf("program A: %+v, %v", resp, err)
		}
	}
	close(stop)
	wg.Wait()
	if resp, err := cl.ProgramDetector(context.Background(), progB); err != nil || resp.Installed != len(progB.Entries) {
		t.Fatalf("program B: %+v, %v", resp, err)
	}

	det, err := sw.Pipeline().Table(switchsim.DetectorTable)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := progB.rows()
	if err != nil {
		t.Fatal(err)
	}
	fresh := p4.NewTable("fresh", p4.MatchRange, det.KeySpecs(), 0, det.DefaultAction)
	if err := fresh.Program(det.KeySpecs(), det.DefaultAction, rows.entries); err != nil {
		t.Fatal(err)
	}
	got, want := det.Entries(), fresh.Entries()
	for i := range got {
		got[i].ID = 0
	}
	for i := range want {
		want[i].ID = 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("after A then B on one connection the table is not B")
	}
	gc, gh := det.ProgramSignature()
	wc, wh := fresh.ProgramSignature()
	if gc != wc || gh != wh {
		t.Fatalf("signature (%d, %#x), a fresh table of B has (%d, %#x)", gc, gh, wc, wh)
	}
}
