package p4rt

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"

	"p4guard/internal/p4"
	"p4guard/internal/packet"
	"p4guard/internal/switchsim"
)

// legacyServer emulates a pre-delta switch agent: it completes the
// handshake, answers heartbeats, and answers every other frame the way
// the old dispatch loop's default branch did — a Response whose Error
// names the unknown message type. The delta rollout's compatibility
// contract (client.ProgramDelta doc, controller fallback) is pinned
// against this concrete behavior.
func legacyServer(t *testing.T) string {
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
				if err := WriteMsg(c, TypeHelloAck, env.ID, HelloAck{ServerName: "legacy"}); err != nil {
					return
				}
				for {
					env, err := ReadMsg(c)
					if err != nil {
						return
					}
					resp := Response{OK: true}
					if env.Type != TypeHeartbeat {
						resp = Response{Error: fmt.Sprintf("unknown message type %q", env.Type)}
					}
					if err := WriteMsg(c, TypeResponse, env.ID, resp); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestDeltaRejectedByOldPeer: a delta sent to a pre-delta peer must
// come back as a typed rejection whose reason names the unknown message
// type — that exact shape is what the controller keys its full-swap
// fallback (and its per-switch no-delta latch) on. The connection must
// survive so the fallback Program can reuse it.
func TestDeltaRejectedByOldPeer(t *testing.T) {
	addr := legacyServer(t)
	cl, err := DialContext(context.Background(), addr, "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()

	_, err = cl.ProgramDelta(context.Background(), DeltaMsg{
		Offsets: []int{0}, DefaultAction: "allow", BaseCount: 1, BaseHash: 7,
		Deletes: []int{0},
	})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("err %v is not a *RejectError", err)
	}
	if rej.Op != TypeDelta || !strings.Contains(rej.Reason, "unknown message type") {
		t.Fatalf("reject = %+v, want op delta and an unknown-message-type reason", rej)
	}
	if err := cl.Heartbeat(context.Background()); err != nil {
		t.Fatalf("connection dead after delta rejection: %v", err)
	}
}

// TestProgramDeltaOverWire drives the full delta path end to end:
// install a base program, diff it against an edited successor with
// DeltaFromPrograms, apply the delta remotely, and check the data plane
// flipped to the new verdicts.
func TestProgramDeltaOverWire(t *testing.T) {
	sw, _, cl := startPair(t, nil)

	base := Program{
		Offsets:       []int{0},
		DefaultAction: "allow",
		Entries: []WireEntry{
			{Priority: 2, Lo: []byte{200}, Hi: []byte{255}, Action: "drop", Class: 1},
			{Priority: 1, Lo: []byte{100}, Hi: []byte{110}, Action: "drop", Class: 2},
		},
	}
	if _, err := cl.ProgramDetector(context.Background(), base); err != nil {
		t.Fatal(err)
	}
	if v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{105}}); v.Allowed {
		t.Fatal("base program not active")
	}

	// Successor: the [100,110] rule is gone, a [0,9] rule appears.
	next := Program{
		Offsets:       []int{0},
		DefaultAction: "allow",
		Entries: []WireEntry{
			{Priority: 2, Lo: []byte{200}, Hi: []byte{255}, Action: "drop", Class: 1},
			{Priority: 1, Lo: []byte{0}, Hi: []byte{9}, Action: "drop", Class: 3},
		},
	}
	d, ok := DeltaFromPrograms(base, next)
	if !ok {
		t.Fatal("DeltaFromPrograms found no valid delta")
	}
	if d.Size() == 0 || d.Size() >= len(next.Entries)+1 {
		t.Fatalf("delta size %d not a real edit", d.Size())
	}
	resp, err := cl.ProgramDelta(context.Background(), d)
	if err != nil || !resp.OK {
		t.Fatalf("ProgramDelta: %v %+v", err, resp)
	}
	if v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{105}}); !v.Allowed {
		t.Fatal("deleted rule still dropping after delta")
	}
	if v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{5}}); v.Allowed {
		t.Fatal("added rule not active after delta")
	}
	if v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{210}}); v.Allowed {
		t.Fatal("surviving rule lost after delta")
	}

	// Replaying the same delta must be rejected — its base is gone — and
	// must not disturb the installed program.
	if _, err := cl.ProgramDelta(context.Background(), d); !errors.Is(err, ErrRejected) {
		t.Fatalf("stale delta err = %v, want ErrRejected", err)
	}
	if v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{5}}); v.Allowed {
		t.Fatal("rejected delta disturbed the installed program")
	}
}

// deltaFromProgramsRef is DeltaFromPrograms by way of p4.ComputeDelta:
// both programs converted to []p4.Entry, the delta converted back.
func deltaFromProgramsRef(prev, next Program) (DeltaMsg, bool) {
	toEntries := func(wes []WireEntry) ([]p4.Entry, bool) {
		out := make([]p4.Entry, len(wes))
		for i, we := range wes {
			e, err := we.ToP4Entry()
			if err != nil {
				return nil, false
			}
			out[i] = e
		}
		return out, true
	}
	oldE, ok1 := toEntries(prev.Entries)
	newE, ok2 := toEntries(next.Entries)
	if !ok1 || !ok2 {
		return DeltaMsg{}, false
	}
	d, ok := p4.ComputeDelta(oldE, newE)
	if !ok {
		return DeltaMsg{}, false
	}
	msg := DeltaMsg{Offsets: next.Offsets, DefaultAction: next.DefaultAction, DefaultClass: next.DefaultClass,
		BaseCount: d.BaseCount, BaseHash: d.BaseHash, Deletes: d.Deletes}
	for _, m := range d.Moves {
		msg.Moves = append(msg.Moves, WireDeltaMove{Base: m.Base, Priority: m.Priority, Order: m.Order})
	}
	for _, a := range d.Adds {
		msg.Adds = append(msg.Adds, WireDeltaAdd{Entry: next.Entries[a.Order], Order: a.Order})
	}
	return msg, true
}

// TestDeltaFromProgramsMatchesComputeDelta: the diff run on wire entries
// where they lie returns what converting both programs and diffing the
// entries returns, message for message, over random edits that include
// rows differing only in action or class, survivor swaps, duplicates and,
// on either side, an action no p4 type stands for (never ok).
func TestDeltaFromProgramsMatchesComputeDelta(t *testing.T) {
	actions := []string{"allow", "drop", "digest", "set_class", "nop"}
	oks, unknown := 0, 0
	const seeds = 1500
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		row := func() WireEntry {
			return WireEntry{Priority: rng.Intn(4), Lo: []byte{byte(rng.Intn(6))}, Hi: []byte{byte(200 + rng.Intn(6))},
				Action: actions[rng.Intn(len(actions))], Class: rng.Intn(3)}
		}
		prev := Program{Offsets: []int{3}, DefaultAction: "digest"}
		next := Program{Offsets: []int{3}, DefaultAction: "allow", DefaultClass: 1}
		for n := rng.Intn(30); len(prev.Entries) < n; {
			prev.Entries = append(prev.Entries, row())
		}
		for _, e := range prev.Entries {
			switch rng.Intn(10) {
			case 0: // delete
				continue
			case 1: // replace
				e = row()
			case 2: // move
				e.Priority = rng.Intn(4)
			}
			next.Entries = append(next.Entries, e)
			if rng.Intn(10) == 0 {
				next.Entries = append(next.Entries, row())
			}
		}
		if n := len(next.Entries); n > 1 && rng.Intn(8) == 0 {
			i, j := rng.Intn(n), rng.Intn(n)
			next.Entries[i], next.Entries[j] = next.Entries[j], next.Entries[i]
		}
		if rng.Intn(20) == 0 {
			p := []*Program{&prev, &next}[rng.Intn(2)]
			if n := len(p.Entries); n > 0 {
				p.Entries[rng.Intn(n)].Action = "reflect"
				unknown++
			}
		}
		want, wantOK := deltaFromProgramsRef(prev, next)
		got, ok := DeltaFromPrograms(prev, next)
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: DeltaFromPrograms = (%+v, %v), by way of ComputeDelta (%+v, %v)", seed, got, ok, want, wantOK)
		}
		if ok {
			oks++
		}
	}
	if oks < seeds/4 || oks > seeds*9/10 || unknown < 10 {
		t.Fatalf("%d of %d pairs had a delta, %d carried an unknown action: the generator no longer covers the outcomes", oks, seeds, unknown)
	}
	if _, ok := DeltaFromPrograms(
		Program{Offsets: []int{0}, Entries: []WireEntry{{Lo: []byte{1}, Hi: []byte{2}, Action: "drop"}}},
		Program{Offsets: []int{0}, Entries: []WireEntry{{Lo: []byte{1}, Hi: []byte{2}, Action: "reflect"}}}); ok {
		t.Fatal("a program with an unknown action got a delta")
	}
}

// TestDeltaLayoutMismatchRejected: a delta whose key layout differs
// from the installed program must be rejected untouched — deltas edit a
// program, they never reshape its schema.
func TestDeltaLayoutMismatchRejected(t *testing.T) {
	sw, _, cl := startPair(t, nil)
	base := Program{Offsets: []int{0}, DefaultAction: "allow",
		Entries: []WireEntry{{Priority: 1, Lo: []byte{200}, Hi: []byte{255}, Action: "drop", Class: 1}}}
	if _, err := cl.ProgramDetector(context.Background(), base); err != nil {
		t.Fatal(err)
	}
	_, err := cl.ProgramDelta(context.Background(), DeltaMsg{
		Offsets: []int{0, 1}, DefaultAction: "allow", BaseCount: 1, Deletes: []int{0},
	})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("layout-mismatch delta err = %v, want ErrRejected", err)
	}
	if v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{210}}); v.Allowed {
		t.Fatal("rejected delta disturbed the installed program")
	}
}

// TestDeltaMsgWireShape pins the delta message's JSON field names: the
// wire contract other implementations (and future versions of this one)
// decode against.
func TestDeltaMsgWireShape(t *testing.T) {
	d := DeltaMsg{
		Offsets:       []int{0, 4},
		DefaultAction: "digest",
		DefaultClass:  2,
		BaseCount:     10,
		BaseHash:      0xabc,
		Deletes:       []int{3},
		Moves:         []WireDeltaMove{{Base: 1, Priority: 9, Order: 0}},
		Adds:          []WireDeltaAdd{{Entry: WireEntry{Priority: 5, Value: []byte{7}, Mask: []byte{255}, Action: "drop", Class: 1}, Order: 2}},
		TraceID:       1,
		SpanID:        2,
	}
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"offsets":[0,4],"default_action":"digest","default_class":2,` +
		`"base_count":10,"base_hash":2748,"deletes":[3],` +
		`"moves":[{"base":1,"priority":9,"order":0}],` +
		`"adds":[{"entry":{"priority":5,"value":"Bw==","mask":"/w==","action":"drop","class":1},"order":2}],` +
		`"trace_id":1,"span_id":2}`
	if string(raw) != want {
		t.Fatalf("delta wire shape drifted:\n got %s\nwant %s", raw, want)
	}
}

// TestRefusedProgramAndDeltaLeaveSwitchUntouched: a Program frame whose
// entry widths disagree with its offsets, and a delta aimed at the wrong
// base, both come back as RejectErrors with the switch exactly as it was
// — same entries, same signature, same default action, the attack frame
// still dropped — and the connection still usable.
func TestRefusedProgramAndDeltaLeaveSwitchUntouched(t *testing.T) {
	sw, _, cl := startPair(t, nil)
	ctx := context.Background()
	base := Program{Offsets: []int{0}, DefaultAction: "drop",
		Entries: []WireEntry{{Priority: 1, Lo: []byte{200}, Hi: []byte{255}, Action: "drop", Class: 1}}}
	if _, err := cl.ProgramDetector(ctx, base); err != nil {
		t.Fatal(err)
	}
	det, err := sw.Pipeline().Table(switchsim.DetectorTable)
	if err != nil {
		t.Fatal(err)
	}
	wantCount, wantHash := det.ProgramSignature()

	// Every refused program reaches the table, which is what refuses it:
	// rows of the layout's width with a bound inverted arrive on the
	// single-pass route, rows of another width — not canonical — through
	// encoding/json.
	program := func(p Program) func() error {
		return func() error {
			_, err := cl.ProgramDetector(ctx, p)
			return err
		}
	}
	inverted := Program{Offsets: []int{0}, DefaultAction: "allow",
		Entries: []WireEntry{{Lo: []byte{6}, Hi: []byte{5}, Action: "drop"}}}
	singlePassFrame(t, inverted)
	refusals := map[string]func() error{
		"program, layout change": program(Program{Offsets: []int{1, 2}, DefaultAction: "allow", Entries: base.Entries}),
		"program, wide rows": program(Program{Offsets: []int{0}, DefaultAction: "allow",
			Entries: []WireEntry{{Lo: []byte{5, 5}, Hi: []byte{6, 6}, Action: "drop"}}}),
		"program, inverted bound": program(inverted),
		"delta, wrong base": func() error {
			_, err := cl.ProgramDelta(ctx, DeltaMsg{Offsets: []int{0}, DefaultAction: "allow", BaseCount: 99})
			return err
		},
	}
	for name, refuse := range refusals {
		var rej *RejectError
		if err := refuse(); !errors.As(err, &rej) {
			t.Fatalf("%s: err = %v, want a RejectError", name, err)
		}
		count, hash := det.ProgramSignature()
		if det.Len() != 1 || count != wantCount || hash != wantHash || det.DefaultAction.Type != p4.ActionDrop {
			t.Fatalf("%s: refused request changed the detector: len %d signature (%d,%#x) default %v",
				name, det.Len(), count, hash, det.DefaultAction)
		}
		for _, b := range []byte{210, 10} { // the rule's frame, and a miss under default drop
			if v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{b, 0}}); v.Allowed {
				t.Fatalf("%s: frame %d forwarded after the refusal: %+v", name, b, v)
			}
		}
		if err := cl.Heartbeat(ctx); err != nil {
			t.Fatalf("%s: connection unusable after the refusal: %v", name, err)
		}
	}
}
