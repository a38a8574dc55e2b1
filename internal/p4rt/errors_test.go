package p4rt

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// silentServer accepts connections, completes the hello handshake, then
// swallows every subsequent frame without answering — the shape of a
// switch agent that wedged after boot. Tests use it to exercise the
// timeout and shutdown paths deterministically.
func silentServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer func() { _ = c.Close() }()
				env, err := ReadMsg(c)
				if err != nil || env.Type != TypeHello {
					return
				}
				if err := WriteMsg(c, TypeHelloAck, env.ID, HelloAck{ServerName: "silent", Version: Version}); err != nil {
					return
				}
				for {
					if _, err := ReadMsg(c); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// muteListener accepts connections and never speaks — not even the
// handshake — so DialContext blocks until its context fires.
func muteListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer func() { _ = conn.Close() }()
		}
	}()
	return ln.Addr().String()
}

func TestCallTimeoutIsTyped(t *testing.T) {
	addr := silentServer(t)
	cl, err := DialContext(context.Background(), addr, "t", nil, WithRPCTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()

	start := time.Now()
	err = cl.Heartbeat(context.Background())
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("timeout took %v, want ~50ms", d)
	}
	// A per-call deadline must override the client default.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := cl.Heartbeat(ctx); !errors.Is(err, ErrTimeout) {
		t.Fatalf("ctx deadline err = %v, want ErrTimeout", err)
	}
}

func TestCallCancelIsTyped(t *testing.T) {
	addr := silentServer(t)
	cl, err := DialContext(context.Background(), addr, "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if err := cl.Heartbeat(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRejectedIsTyped(t *testing.T) {
	_, _, cl := startPair(t, nil)
	_, err := cl.ProgramDetector(context.Background(), Program{Offsets: []int{0}, DefaultAction: "bogus"})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("err %v is not a *RejectError", err)
	}
	if rej.Op != TypeProgram || rej.Reason == "" {
		t.Fatalf("reject = %+v", rej)
	}
	// The switch refused the request but the connection is fine.
	if err := cl.Heartbeat(context.Background()); err != nil {
		t.Fatalf("connection dead after rejection: %v", err)
	}
	// A peer that still asks for the counter and stats reads this protocol
	// dropped gets the same typed refusal, and keeps its connection.
	for _, typ := range []MsgType{"counters", "stats"} {
		_, err := cl.call(context.Background(), typ, struct{}{})
		if !errors.As(err, &rej) || rej.Op != typ {
			t.Fatalf("%s: err = %v, want a *RejectError", typ, err)
		}
		if err := cl.Heartbeat(context.Background()); err != nil {
			t.Fatalf("connection dead after refusing %s: %v", typ, err)
		}
	}
}

func TestOversizedIsTypedAndNonFatal(t *testing.T) {
	_, _, cl := startPair(t, nil)
	huge := make([]byte, MaxFrame)
	_, err := cl.WriteEntry(context.Background(), WireEntry{Lo: huge, Hi: huge, Action: "drop"})
	if !errors.Is(err, ErrOversized) {
		t.Fatalf("err = %v, want ErrOversized", err)
	}
	// Nothing hit the wire, so the stream is still framed and usable.
	if err := cl.Heartbeat(context.Background()); err != nil {
		t.Fatalf("connection dead after oversized reject: %v", err)
	}
}

// TestCloseUnblocksPendingCalls is the shutdown-race regression test: a
// call in flight when Close runs must fail promptly with ErrConnClosed,
// never hang on a response that will not come. Run under -race.
func TestCloseUnblocksPendingCalls(t *testing.T) {
	addr := silentServer(t)
	cl, err := DialContext(context.Background(), addr, "t", nil, WithRPCTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, 1)
	go func() { errc <- cl.Heartbeat(context.Background()) }()
	time.Sleep(20 * time.Millisecond) // let the call register and write
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrConnClosed) {
			t.Fatalf("pending call err = %v, want ErrConnClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call still blocked after Close")
	}
}

func TestPeerDeathClosesDoneAndFailsCalls(t *testing.T) {
	_, srv, cl := startPair(t, nil)
	if err := cl.Heartbeat(context.Background()); err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()
	select {
	case <-cl.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("Done not closed after server death")
	}
	if err := cl.Heartbeat(context.Background()); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("err = %v, want ErrConnClosed", err)
	}
}

func TestDialContextDeadlineIsTyped(t *testing.T) {
	addr := muteListener(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := DialContext(ctx, addr, "t", nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("dial timeout took %v", d)
	}
}

func TestDialContextCancelIsTyped(t *testing.T) {
	addr := muteListener(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, err := DialContext(ctx, addr, "t", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCallOnClosedClientIsTyped(t *testing.T) {
	_, _, cl := startPair(t, nil)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Heartbeat(context.Background()); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("err = %v, want ErrConnClosed", err)
	}
}

// scriptedServer completes the hello handshake, then answers the i-th
// request with replies[i] written as one raw frame (%d takes the request
// ID), and with a well-formed OK response once the script runs out.
func scriptedServer(t *testing.T, replies ...string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = conn.Close() }()
		for i := -1; ; i++ {
			env, err := ReadMsg(conn)
			if err != nil {
				return
			}
			switch {
			case i < 0:
				err = WriteMsg(conn, TypeHelloAck, env.ID, HelloAck{ServerName: "scripted", Version: Version})
			case i < len(replies):
				_, err = conn.Write(rawFrame(fmt.Sprintf(replies[i], env.ID)))
			default:
				err = WriteMsg(conn, TypeResponse, env.ID, Response{OK: true})
			}
			if err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestMalformedResponseBodyIsTyped: a response whose body is not JSON, or
// is JSON of the wrong shape, fails the call with ErrMalformed at once.
// Frames are length-prefixed, so the stream is still in step: the client
// stays usable and the next call succeeds.
func TestMalformedResponseBodyIsTyped(t *testing.T) {
	addr := scriptedServer(t,
		`{"type":"response","id":%d,"body":{"ok":tru}}`,
		`{"type":"response","id":%d,"body":nope}`,
		`{"type":"response","id":%d,"body":[1,2]}`,
	)
	cl, err := DialContext(context.Background(), addr, "t", nil, WithRPCTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := cl.Heartbeat(context.Background()); !errors.Is(err, ErrMalformed) {
			t.Fatalf("call %d: err = %v, want ErrMalformed", i, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("call %d: malformed response took %v to surface", i, d)
		}
	}
	select {
	case <-cl.Done():
		t.Fatal("client closed by a malformed response body")
	default:
	}
	if err := cl.Heartbeat(context.Background()); err != nil {
		t.Fatalf("client unusable after malformed bodies: %v", err)
	}
}

// TestMalformedEnvelopeClosesClient: a frame that is not an envelope at
// all ends the read loop — the pending call fails promptly with
// ErrConnClosed and Done closes, as for any other dead connection.
func TestMalformedEnvelopeClosesClient(t *testing.T) {
	addr := scriptedServer(t, `not an envelope %d`)
	cl, err := DialContext(context.Background(), addr, "t", nil, WithRPCTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	if err := cl.Heartbeat(context.Background()); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("err = %v, want ErrConnClosed", err)
	}
	select {
	case <-cl.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("Done not closed after a malformed envelope")
	}
}

// TestReadMsgAndDecodeBodyErrorsAreTyped pins the sentinels at the
// function level, where the server and tests consume them.
func TestReadMsgAndDecodeBodyErrorsAreTyped(t *testing.T) {
	frame := func(s string) *bytes.Reader { return bytes.NewReader(rawFrame(s)) }
	if _, err := ReadMsg(frame(`{"type":`)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("ReadMsg on a torn envelope: err = %v, want ErrMalformed", err)
	}
	if _, err := ReadMsg(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})); !errors.Is(err, ErrOversized) || errors.Is(err, ErrMalformed) {
		t.Fatalf("ReadMsg on an oversized header: err = %v, want ErrOversized only", err)
	}
	env, err := ReadMsg(frame(`{"type":"program","id":1,"body":{"offsets":"x"}}`))
	if err != nil {
		t.Fatal(err)
	}
	var p Program
	if err := DecodeBody(env, &p); !errors.Is(err, ErrMalformed) {
		t.Fatalf("DecodeBody on a wrong-shape program: err = %v, want ErrMalformed", err)
	}
	var w Write
	if err := DecodeBody(env, &w); err != nil {
		t.Fatalf("DecodeBody must keep tolerating unknown fields: %v", err)
	}
}

// TestServerRefusesMalformedProgramBody: a program request whose body is
// not JSON is answered with an error response naming the malformed
// message; nothing is installed and the connection keeps serving.
func TestServerRefusesMalformedProgramBody(t *testing.T) {
	sw, srv, _ := startPair(t, nil)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	roundTrip := func(raw string) Response {
		t.Helper()
		if _, err := conn.Write(rawFrame(raw)); err != nil {
			t.Fatal(err)
		}
		env, err := ReadMsg(conn)
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		if env.Type == TypeResponse {
			if err := DecodeBody(env, &resp); err != nil {
				t.Fatal(err)
			}
		}
		return resp
	}
	roundTrip(fmt.Sprintf(`{"type":"hello","id":1,"body":{"switch_name":"raw","version":%d}}`, Version))
	resp := roundTrip(`{"type":"program","id":2,"body":{"offsets":[0],"default_action":"allow","entries":[{"action":drop}]}}`)
	if resp.OK || !strings.Contains(resp.Error, ErrMalformed.Error()) {
		t.Fatalf("malformed program answered %+v, want an error naming %q", resp, ErrMalformed)
	}
	if st := sw.DetectorStats(); st.Entries != 0 {
		t.Fatalf("malformed program installed %d entries", st.Entries)
	}
	if resp := roundTrip(`{"type":"heartbeat","id":3,"body":{}}`); !resp.OK {
		t.Fatalf("connection not serving after a malformed program: %+v", resp)
	}
}
