package p4rt

import (
	"bytes"
	"context"
	"net"
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
	for _, at := range []p4.ActionType{p4.ActionAllow, p4.ActionDrop, p4.ActionDigest, p4.ActionSetClass, p4.ActionNop} {
		got, err := ParseAction(FormatAction(at))
		if err != nil || got != at {
			t.Fatalf("round trip %v: got %v err %v", at, got, err)
		}
	}
	if _, err := ParseAction("bogus"); err == nil {
		t.Fatal("accepted bogus action")
	}
}

func TestWirePacketRoundTrip(t *testing.T) {
	p := &packet.Packet{Time: 3 * time.Second, Link: packet.LinkBLE, Bytes: []byte{1, 2}}
	got := FromPacket(p).ToPacket()
	if got.Time != p.Time || got.Link != p.Link || !bytes.Equal(got.Bytes, p.Bytes) {
		t.Fatalf("round trip = %+v", got)
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

func startPair(t *testing.T, onDigest func([]WirePacket)) (*switchsim.Switch, *Server, *Client) {
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

func TestProgramAndCountersOverWire(t *testing.T) {
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

	counters, err := cl.Counters(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if counters.Hits != 1 || counters.Misses != 1 {
		t.Fatalf("counters = %+v", counters)
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
	var got []WirePacket
	done := make(chan struct{}, 8)
	sw, _, cl := startPair(t, func(pkts []WirePacket) {
		mu.Lock()
		got = append(got, pkts...)
		mu.Unlock()
		done <- struct{}{}
	})
	_ = cl
	// Empty detector with digest-on-miss default.
	if err := sw.ProgramDetector(nil, p4.Action{Type: p4.ActionDigest}, &p4.Rows{}); err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3, 4, 5}
	sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: want, Time: time.Second})

	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("digest not delivered")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || !bytes.Equal(got[0].Bytes, want) || got[0].TimeNS != int64(time.Second) {
		t.Fatalf("digests = %+v", got)
	}
}

// TestIdlePumpTickAllocatesNothing: with nothing queued — nearly every
// tick of an idle daemon — the pump must not list connections (an
// allocation, under the server lock); with a digest queued the same tick
// delivers it to the controller that has said hello and to no other.
func TestIdlePumpTickAllocatesNothing(t *testing.T) {
	sw := newTestSwitch(t)
	if err := sw.ProgramDetector(nil, p4.Action{Type: p4.ActionDigest}, &p4.Rows{}); err != nil {
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
	if err := sw.ProgramDetector(nil, p4.Action{Type: p4.ActionDigest}, &p4.Rows{}); err != nil {
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
	if err := WriteMsg(conn, TypeHello, 1, Hello{SwitchName: "test-ctl"}); err != nil {
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
