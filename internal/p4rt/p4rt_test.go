package p4rt

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"p4guard/internal/p4"
	"p4guard/internal/packet"
	"p4guard/internal/rules"
	"p4guard/internal/switchsim"
)

func TestWireFraming(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMsg(&buf, TypeHello, 7, Hello{SwitchName: "gw"}); err != nil {
		t.Fatal(err)
	}
	env, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != TypeHello || env.ID != 7 {
		t.Fatalf("env = %+v", env)
	}
	var h Hello
	if err := DecodeBody(env, &h); err != nil {
		t.Fatal(err)
	}
	if h.SwitchName != "gw" {
		t.Fatalf("hello = %+v", h)
	}
}

func TestReadMsgRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadMsg(&buf); err == nil {
		t.Fatal("accepted oversized frame")
	}
}

func TestReadMsgTruncated(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 10, 1, 2})
	if _, err := ReadMsg(&buf); err == nil {
		t.Fatal("accepted truncated frame")
	}
}

func TestActionRoundTrip(t *testing.T) {
	for _, at := range []p4.ActionType{p4.ActionAllow, p4.ActionDrop, p4.ActionDigest} {
		got, err := ParseAction(FormatAction(at))
		if err != nil || got != at {
			t.Fatalf("round trip %v: got %v err %v", at, got, err)
		}
	}
	if _, err := ParseAction("bogus"); err == nil {
		t.Fatal("accepted bogus action")
	}
}

// TestDigestKeyRoundTrip: a digest body crosses the wire as its offsets
// and one key per miss, with trace ids only when set, and decodes to what
// was sent.
func TestDigestKeyRoundTrip(t *testing.T) {
	want := DigestMsg{Offsets: []int{23, 34}, Digests: []WireDigest{{Key: []byte{6, 17}}, {Key: []byte{1, 0}, TraceID: 3, SpanID: 4}}}
	var buf bytes.Buffer
	if err := WriteMsg(&buf, TypeDigest, 0, want); err != nil {
		t.Fatal(err)
	}
	const wire = `{"type":"digest","body":{"offsets":[23,34],"digests":[{"key":"BhE="},{"key":"AQA=","trace_id":3,"span_id":4}]}}`
	if got := buf.String()[4:]; got != wire {
		t.Fatalf("wire form\n got %s\nwant %s", got, wire)
	}
	env, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got DigestMsg
	if err := DecodeBody(env, &got); err != nil || !got.keysFit() || !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v (%v), want %+v", got, err, want)
	}
}

// TestClientRefusesDigestOfOtherWidth: a key means nothing unless it is
// one byte per offset, so a digest body holding one key of another width
// is refused whole and never reaches onDigest; the bodies around it on
// the same connection still do. The JSON body carries no count, so the
// decoder sizes nothing from a number a peer chose.
func TestClientRefusesDigestOfOtherWidth(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	bodies := []string{
		`{"offsets":[0,1],"digests":[{"key":"AQI="},{"key":"AQ=="}]}`, // second key one byte short
		`{"offsets":[0],"digests":[{"key":"AQI="}]}`,                  // two bytes under one offset
		`{"offsets":[0,1],"digests":[{"key":null}]}`,                  // no key at all
		`{"offsets":[0,1],"digests":[{"key":"AwQ="}]}`,                // the one to deliver
	}
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = c.Close() }()
		env, err := ReadMsg(c)
		if err != nil || WriteMsg(c, TypeHelloAck, env.ID, HelloAck{ServerName: "sw", Version: Version}) != nil {
			return
		}
		for _, b := range bodies {
			if WriteMsg(c, TypeDigest, 0, json.RawMessage(b)) != nil {
				return
			}
		}
		_, _ = ReadMsg(c) // hold the connection until the client closes it
	}()
	got := make(chan DigestMsg, len(bodies))
	cl, err := DialContext(context.Background(), ln.Addr().String(), "ctl", func(m DigestMsg) { got <- m })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	select {
	case m := <-got:
		if len(m.Digests) != 1 || !bytes.Equal(m.Digests[0].Key, []byte{3, 4}) {
			t.Fatalf("first body delivered is %+v, want the well-formed one", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the well-formed digest was not delivered")
	}
}

func TestProgramFromRuleSet(t *testing.T) {
	rs := rules.NewRuleSet([]int{0}, 0)
	rs.Add(rules.Rule{Priority: 1, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 128, Hi: 255}}})
	rs.Add(rules.Rule{Priority: 2, Class: 0, Preds: []rules.BytePredicate{{Offset: 0, Lo: 0, Hi: 127}}})
	prog, err := ProgramFromRuleSet(rs, p4.Action{Type: p4.ActionAllow})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Entries) != 2 {
		t.Fatalf("%d entries", len(prog.Entries))
	}
	var drops, allows int
	for _, e := range prog.Entries {
		switch e.Action {
		case "drop":
			drops++
		case "allow":
			allows++
		}
	}
	if drops != 1 || allows != 1 {
		t.Fatalf("drops=%d allows=%d", drops, allows)
	}
}

func startPair(t *testing.T, onDigest func(DigestMsg)) (*switchsim.Switch, *Server, *Client) {
	t.Helper()
	sw, err := switchsim.New("gw-test", packet.LinkEthernet)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", sw, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	cl, err := DialContext(context.Background(), srv.Addr(), "controller-test", onDigest)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return sw, srv, cl
}

func TestHandshake(t *testing.T) {
	_, _, cl := startPair(t, nil)
	if cl.ServerName() != "gw-test" {
		t.Fatalf("server name %q", cl.ServerName())
	}
	if err := cl.Heartbeat(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestProgramOverWire(t *testing.T) {
	sw, _, cl := startPair(t, nil)

	rs := rules.NewRuleSet([]int{0}, 0)
	rs.Add(rules.Rule{Priority: 1, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 200, Hi: 255}}})
	prog, err := ProgramFromRuleSet(rs, p4.Action{Type: p4.ActionAllow})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.ProgramDetector(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Installed == 0 {
		t.Fatalf("program response %+v", resp)
	}

	// The deployed rules must act on the data plane.
	if v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{250}}); v.Allowed {
		t.Fatal("attack packet allowed after remote program")
	}
	if v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{10}}); !v.Allowed {
		t.Fatal("benign packet dropped after remote program")
	}

	if st := sw.DetectorStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("detector stats = %+v", st)
	}
}

func TestWriteEntryOverWire(t *testing.T) {
	sw, _, cl := startPair(t, nil)
	prog := Program{Offsets: []int{0}, DefaultAction: "allow"}
	if _, err := cl.ProgramDetector(context.Background(), prog); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.WriteEntry(context.Background(), WireEntry{
		Priority: 5, Lo: []byte{42}, Hi: []byte{42}, Action: "drop", Class: 1,
	})
	if err != nil || !resp.OK {
		t.Fatalf("write: %v %+v", err, resp)
	}
	if v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{42}}); v.Allowed {
		t.Fatal("reactive entry not active")
	}
}

func TestProgramErrorsPropagate(t *testing.T) {
	_, _, cl := startPair(t, nil)
	_, err := cl.ProgramDetector(context.Background(), Program{Offsets: []int{0}, DefaultAction: "bogus"})
	if err == nil {
		t.Fatal("bogus default action accepted")
	}
	// Range entry with lo>hi must be rejected remotely.
	if _, err := cl.ProgramDetector(context.Background(), Program{
		Offsets:       []int{0},
		DefaultAction: "allow",
		Entries:       []WireEntry{{Lo: []byte{5}, Hi: []byte{4}, Action: "drop"}},
	}); err == nil {
		t.Fatal("invalid entry accepted")
	}
}

func TestDigestDelivery(t *testing.T) {
	var mu sync.Mutex
	var got []DigestMsg
	done := make(chan struct{}, 8)
	sw, _, cl := startPair(t, func(msg DigestMsg) {
		mu.Lock()
		got = append(got, msg)
		mu.Unlock()
		done <- struct{}{}
	})
	_ = cl
	// Empty detector with digest-on-miss default, keyed on bytes 4 and 1.
	if err := sw.ProgramDetector([]int{4, 1}, p4.Action{Type: p4.ActionDigest}, &p4.Rows{}); err != nil {
		t.Fatal(err)
	}
	sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{1, 2, 3, 4, 5}, Time: time.Second})

	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("digest not delivered")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || !slices.Equal(got[0].Offsets, []int{4, 1}) || len(got[0].Digests) != 1 || !bytes.Equal(got[0].Digests[0].Key, []byte{5, 2}) {
		t.Fatalf("digests = %+v", got)
	}
}

// TestIdlePumpTickAllocatesNothing: with nothing queued — nearly every
// tick of an idle daemon — the pump must not list connections (an
// allocation, under the server lock); with a digest queued the same tick
// delivers it to the controller that has said hello and to no other.
func TestIdlePumpTickAllocatesNothing(t *testing.T) {
	sw := newTestSwitch(t)
	if err := sw.ProgramDetector([]int{0}, p4.Action{Type: p4.ActionDigest}, &p4.Rows{}); err != nil {
		t.Fatal(err)
	}
	ready, greeting := &memConn{}, &memConn{}
	s := &Server{sw: sw, conns: map[net.Conn]*connState{ready: {ready: true}, greeting: {}}}
	if allocs := testing.AllocsPerRun(100, s.pumpDigests); allocs != 0 {
		t.Fatalf("an idle pump tick allocates %.0f times", allocs)
	}
	sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{1, 2, 3}})
	s.pumpDigests()
	env, err := ReadMsg(&ready.out)
	if err != nil || env.Type != TypeDigest {
		t.Fatalf("queued digest not pumped to the ready controller: %q, %v", env.Type, err)
	}
	if greeting.out.Len() != 0 {
		t.Fatal("a digest reached a connection before its hello_ack")
	}
	if depth := sw.DigestQueueStats().Depth; depth != 0 {
		t.Fatalf("%d digests still queued after the tick", depth)
	}
}

// TestDigestWireBytes measures what one pump tick puts on the wire per
// digest, tracing disarmed: 64 misses under an 8-byte key, of 64-byte
// frames and of the 64/512/1500-byte 7:4:1 mix of a gateway under attack.
// It goes through the switch and the pump only, so it measures the same
// thing whatever a digest is made of: a digest that carried its frame
// cost 127–141 and 462–476 bytes. A key costs the same at any frame size.
func TestDigestWireBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, mix := range []struct {
		name  string
		sizes []int
	}{{"64B", []int{64}}, {"mixed", []int{64, 64, 64, 64, 64, 64, 64, 512, 512, 512, 512, 1500}}} {
		sw := newTestSwitch(t)
		if err := sw.ProgramDetector([]int{12, 13, 23, 26, 27, 34, 35, 46}, p4.Action{Type: p4.ActionDigest}, &p4.Rows{}); err != nil {
			t.Fatal(err)
		}
		const n = 64
		for i := 0; i < n; i++ {
			frame := make([]byte, mix.sizes[rng.Intn(len(mix.sizes))])
			rng.Read(frame)
			sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: frame, Time: time.Duration(i) * time.Millisecond})
		}
		ready := &memConn{}
		s := &Server{sw: sw, conns: map[net.Conn]*connState{ready: {ready: true}}}
		s.pumpDigests()
		if depth := sw.DigestQueueStats().Depth; depth != 0 {
			t.Fatalf("%s: %d digests left after one tick", mix.name, depth)
		}
		per := float64(ready.out.Len()) / n
		t.Logf("%s: %d bytes for %d digests, %.1f a digest", mix.name, ready.out.Len(), n, per)
		if per > 127.0/4 {
			t.Fatalf("%s: %.1f bytes a digest, over a quarter of the 127 a frame digest cost", mix.name, per)
		}
	}
}

func TestClientCloseIdempotent(t *testing.T) {
	_, _, cl := startPair(t, nil)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Heartbeat(context.Background()); err == nil {
		t.Fatal("heartbeat succeeded on closed client")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	sw, err := switchsim.New("gw", packet.LinkEthernet)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", sw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleClients(t *testing.T) {
	sw, srv, cl1 := startPair(t, nil)
	_ = sw
	cl2, err := DialContext(context.Background(), srv.Addr(), "second", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl2.Close() }()
	if err := cl1.Heartbeat(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := cl2.Heartbeat(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// A freshly accepted connection must see hello_ack as its very first
// frame even when the switch already holds a digest backlog: the pump
// may not broadcast to a conn whose handshake has not completed.
// Regression test for the fleet scenario — controllers (re)connecting
// to switches that were replaying traffic while no controller was
// attached.
func TestDigestBacklogNeverBeatsHelloAck(t *testing.T) {
	sw, err := switchsim.New("gw-backlog", packet.LinkEthernet)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.ProgramDetector([]int{0}, p4.Action{Type: p4.ActionDigest}, &p4.Rows{}); err != nil {
		t.Fatal(err)
	}
	// Queue a digest backlog before any controller exists.
	for i := 0; i < 64; i++ {
		sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{byte(i)}})
	}
	srv, err := Serve("127.0.0.1:0", sw, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })

	// Linger mid-handshake across many pump ticks: nothing may arrive.
	if err := conn.SetReadDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if env, err := ReadMsg(conn); err == nil {
		t.Fatalf("got %q frame before hello completed", env.Type)
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}

	// Complete the handshake: the first frame must be our hello_ack.
	if err := WriteMsg(conn, TypeHello, 1, Hello{SwitchName: "test-ctl", Version: Version}); err != nil {
		t.Fatal(err)
	}
	env, err := ReadMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != TypeHelloAck {
		t.Fatalf("first frame after hello is %q, want %q", env.Type, TypeHelloAck)
	}
	// And only now does the backlog flow.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := conn.SetReadDeadline(deadline); err != nil {
			t.Fatal(err)
		}
		env, err := ReadMsg(conn)
		if err != nil {
			t.Fatal("backlog never delivered after handshake:", err)
		}
		if env.Type == TypeDigest {
			return
		}
	}
}
