package controller

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"p4guard/internal/netsim"
	"p4guard/internal/p4"
	"p4guard/internal/p4rt"
	"p4guard/internal/packet"
	"p4guard/internal/rules"
	"p4guard/internal/switchsim"
)

// fleetRules builds the four-class rule set the sharded fleet tests
// deploy: disjoint byte-0 ranges, classes 1..4, so a two-shard by-class
// partition gives each shard distinct content.
func fleetRules() *rules.RuleSet {
	rs := rules.NewRuleSet([]int{0, 1}, 0)
	for cls := 1; cls <= 4; cls++ {
		rs.Add(rules.Rule{
			Priority: cls,
			Class:    cls,
			Preds:    []rules.BytePredicate{{Offset: 0, Lo: byte(240 + cls*3), Hi: byte(240 + cls*3 + 2)}},
		})
	}
	return rs
}

// shardPrograms compiles the per-shard wire programs Deploy would
// install for rs, the reference for byte-identical convergence checks.
func shardPrograms(t *testing.T, rs *rules.RuleSet, shards int) []p4rt.Program {
	t.Helper()
	sets := PlanShards(rs, shards, ShardByClass)
	progs := make([]p4rt.Program, len(sets))
	for i, srs := range sets {
		prog, err := p4rt.ProgramFromRuleSet(srs, p4.Action{Type: p4.ActionDigest})
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = prog
	}
	return progs
}

// TestDeltaDeployConvergesIdenticalToFullSwap is the delta-path
// acceptance test: a two-shard fleet that converged on epoch 1 receives
// epoch 2 as per-shard deltas (WithDeltaOnly), while a second, fresh
// fleet receives epoch 2 as a full swap. Both fleets must end
// byte-identical per shard; the delta fleet must actually have used the
// delta path and must have kept its reactive entries live without a
// replay.
func TestDeltaDeployConvergesIdenticalToFullSwap(t *testing.T) {
	topo := netsim.New(netsim.Config{Seed: 17})
	link := netsim.LinkConfig{LatencyMin: 20 * time.Microsecond, LatencyMax: 100 * time.Microsecond}
	if err := topo.AddLink("ctl", "core", link); err != nil {
		t.Fatal(err)
	}
	mkFleet := func(prefix string) []*fleetGW {
		gws := make([]*fleetGW, 2)
		for i := range gws {
			node := fmt.Sprintf("%s%d", prefix, i)
			if err := topo.AddLink("core", node, link); err != nil {
				t.Fatal(err)
			}
			gws[i] = startFleetGW(t, topo, node, "127.0.0.1:0", 1)
		}
		return gws
	}
	connect := func(name string, gws []*fleetGW) *Controller {
		c := New(fleetModel{}, Config{Name: name, Reactive: true, Shards: 2, Policy: ShardByClass},
			append(fastBackoff(), WithDialer(topo.Dialer("ctl", nil)))...)
		for i, g := range gws {
			if err := c.ConnectShard(context.Background(), g.addr, i); err != nil {
				t.Fatalf("connect %s: %v", g.addr, err)
			}
		}
		return c
	}

	deltaGWs := mkFleet("dgw")
	c := connect("ctl-delta", deltaGWs)
	defer func() { _ = c.Close() }()

	rs1 := fleetRules()
	if err := c.Deploy(context.Background(), rs1); err != nil {
		t.Fatal(err)
	}

	// Reactive state on both switches (byte0=200 misses every compiled
	// rule and digests; byte1 selects distinct classes).
	for i, g := range deltaGWs {
		g.sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{200, byte(i)}})
	}
	waitFor(t, func() bool { return c.Stats().ReactiveInstalls >= 2 })
	replayedBefore := c.Stats().ReplayedEntries

	// Epoch 2: touch both shards (class 1 lands in shard 1, class 2 in
	// shard 0) so each shard gets a real, small delta.
	rs2 := fleetRules()
	rs2.Add(rules.Rule{Priority: 5, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 230, Hi: 232}}})
	rs2.Add(rules.Rule{Priority: 6, Class: 2, Preds: []rules.BytePredicate{{Offset: 0, Lo: 225, Hi: 227}}})
	if err := c.Deploy(context.Background(), rs2, WithDeltaOnly()); err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	if st.DeltaApplies < 2 {
		t.Fatalf("delta deploy did not use the delta path: %+v", st)
	}
	if st.DeltaFallbacks != 0 {
		t.Fatalf("delta deploy fell back to full swap: %+v", st)
	}
	if st.ReplayedEntries != replayedBefore {
		t.Fatalf("delta convergence replayed reactive entries (%d -> %d); they should have stayed live",
			replayedBefore, st.ReplayedEntries)
	}

	// Reference fleet: same epoch-2 rule set, installed as a full swap.
	fullGWs := mkFleet("fgw")
	c2 := connect("ctl-full", fullGWs)
	defer func() { _ = c2.Close() }()
	if err := c2.Deploy(context.Background(), rs2); err != nil {
		t.Fatal(err)
	}

	progs2 := shardPrograms(t, rs2, 2)
	for i := range deltaGWs {
		reactive := c.reactiveLog(deltaGWs[i].addr)
		if len(reactive) == 0 {
			t.Fatalf("shard %d lost its reactive log", i)
		}
		wantDelta := desiredEntries(t, progs2[i], reactive)
		gw := deltaGWs[i]
		waitFor(t, func() bool { return entriesEqual(tableEntries(t, gw.sw), wantDelta) })
		// The full-swap fleet must hold exactly the shard program; the
		// delta fleet that program plus its own reactive entries —
		// byte-identical convergence through two different install paths.
		wantFull := desiredEntries(t, progs2[i], nil)
		fw := fullGWs[i]
		waitFor(t, func() bool { return entriesEqual(tableEntries(t, fw.sw), wantFull) })
	}
}

// oldPeerServer emulates a pre-delta switch agent in front of a real
// behavioural switch: hello, heartbeat, and full programs work; every
// other message type — deltas included — gets the old dispatch loop's
// unknown-message-type rejection.
func oldPeerServer(t *testing.T, sw *switchsim.Switch) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	applyProgram := func(p p4rt.Program) p4rt.Response {
		var miss p4.Action
		switch p.DefaultAction {
		case "allow":
			miss = p4.Action{Type: p4.ActionAllow}
		case "drop":
			miss = p4.Action{Type: p4.ActionDrop}
		case "digest":
			miss = p4.Action{Type: p4.ActionDigest, Class: p.DefaultClass}
		default:
			return p4rt.Response{Error: fmt.Sprintf("bad default action %q", p.DefaultAction)}
		}
		entries := &p4.Rows{}
		for _, we := range p.Entries {
			e, err := we.ToP4Entry()
			if err != nil {
				return p4rt.Response{Error: err.Error()}
			}
			entries.Add(e.Priority, e.PrefixLen, e.Lo, e.Hi, e.Action)
		}
		if err := sw.ProgramDetector(p.Offsets, miss, entries); err != nil {
			return p4rt.Response{Error: err.Error()}
		}
		return p4rt.Response{OK: true, Installed: len(p.Entries)}
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer func() { _ = conn.Close() }()
				env, err := p4rt.ReadMsg(conn)
				if err != nil || env.Type != p4rt.TypeHello {
					return
				}
				if err := p4rt.WriteMsg(conn, p4rt.TypeHelloAck, env.ID, p4rt.HelloAck{ServerName: sw.Name}); err != nil {
					return
				}
				for {
					env, err := p4rt.ReadMsg(conn)
					if err != nil {
						return
					}
					var resp p4rt.Response
					switch env.Type {
					case p4rt.TypeHeartbeat:
						resp = p4rt.Response{OK: true}
					case p4rt.TypeProgram:
						var p p4rt.Program
						if err := json.Unmarshal(env.Body, &p); err != nil {
							resp = p4rt.Response{Error: err.Error()}
						} else {
							resp = applyProgram(p)
						}
					default:
						resp = p4rt.Response{Error: fmt.Sprintf("unknown message type %q", env.Type)}
					}
					if err := p4rt.WriteMsg(conn, p4rt.TypeResponse, env.ID, resp); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestDeltaFallsBackAndLatchesOnOldPeer: a delta deploy against a
// pre-delta peer must converge via the full-swap fallback, latch the
// peer as delta-incapable, and never offer it another delta — one
// fallback, not one per deploy.
func TestDeltaFallsBackAndLatchesOnOldPeer(t *testing.T) {
	sw, err := switchsim.New("old-gw", packet.LinkEthernet)
	if err != nil {
		t.Fatal(err)
	}
	addr := oldPeerServer(t, sw)

	c := New(fakeModel{}, Config{Name: "ctl-compat"}, fastBackoff()...)
	t.Cleanup(func() { _ = c.Close() })
	if err := c.Connect(context.Background(), addr); err != nil {
		t.Fatal(err)
	}

	deploy := func(rs *rules.RuleSet) {
		t.Helper()
		if err := c.Deploy(context.Background(), rs, WithMissAction(p4.Action{Type: p4.ActionAllow}), WithDeltaOnly()); err != nil {
			t.Fatal(err)
		}
	}

	rs1 := rules.NewRuleSet([]int{0, 1}, 0)
	rs1.Add(rules.Rule{Priority: 1, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 200, Hi: 255}}})
	deploy(rs1)
	if v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{210, 0}}); v.Allowed {
		t.Fatal("epoch 1 not active on old peer")
	}

	// Epoch 2 mints a delta; the old peer rejects the message type and
	// must converge via the fallback full swap in the same deploy call.
	rs2 := rules.NewRuleSet([]int{0, 1}, 0)
	rs2.Add(rules.Rule{Priority: 1, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 200, Hi: 255}}})
	rs2.Add(rules.Rule{Priority: 2, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 100, Hi: 110}}})
	deploy(rs2)
	st := c.Stats()
	if st.DeltaFallbacks != 1 || st.DeltaApplies != 0 {
		t.Fatalf("old peer stats after epoch 2: %+v, want exactly one fallback and no delta applies", st)
	}
	if v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{105, 0}}); v.Allowed {
		t.Fatal("epoch 2 not active on old peer after fallback")
	}

	// Epoch 3: the latch must suppress the delta attempt entirely.
	rs3 := rules.NewRuleSet([]int{0, 1}, 0)
	rs3.Add(rules.Rule{Priority: 1, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 200, Hi: 255}}})
	rs3.Add(rules.Rule{Priority: 2, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 50, Hi: 60}}})
	deploy(rs3)
	st = c.Stats()
	if st.DeltaFallbacks != 1 || st.DeltaApplies != 0 {
		t.Fatalf("old peer stats after epoch 3: %+v, want the latch to prevent a second fallback", st)
	}
	if v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{55, 0}}); v.Allowed {
		t.Fatal("epoch 3 not active on old peer")
	}
	if v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{105, 0}}); !v.Allowed {
		t.Fatal("stale epoch 2 rule survived on old peer")
	}
}

// TestCompressedDeltaDeployEquivalence: deploying with a compression
// pass and delta reprogramming must leave the data plane classifying
// exactly like the uncompressed rule set — across the initial swap and
// a subsequent delta epoch.
func TestCompressedDeltaDeployEquivalence(t *testing.T) {
	sw, addr := startSwitch(t)
	c := New(fakeModel{}, Config{Name: "ctl-compress"}, fastBackoff()...)
	t.Cleanup(func() { _ = c.Close() })
	if err := c.Connect(context.Background(), addr); err != nil {
		t.Fatal(err)
	}

	// Mergeable neighbours plus a shadowed rule, so compression has
	// something real to remove.
	rs1 := rules.NewRuleSet([]int{0, 1}, 0)
	rs1.Add(rules.Rule{Priority: 3, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 100, Hi: 149}}})
	rs1.Add(rules.Rule{Priority: 2, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 150, Hi: 199}}})
	rs1.Add(rules.Rule{Priority: 1, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 120, Hi: 130}}})
	if err := c.Deploy(context.Background(), rs1,
		WithMissAction(p4.Action{Type: p4.ActionAllow}), WithCompression(rules.CompressReorder)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.CompressedRules == 0 {
		t.Fatalf("compression removed nothing: %+v", st)
	}

	rs2 := rules.NewRuleSet([]int{0, 1}, 0)
	rs2.Add(rules.Rule{Priority: 3, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 100, Hi: 149}}})
	rs2.Add(rules.Rule{Priority: 2, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 150, Hi: 199}}})
	rs2.Add(rules.Rule{Priority: 1, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 220, Hi: 230}}})
	if err := c.Deploy(context.Background(), rs2,
		WithMissAction(p4.Action{Type: p4.ActionAllow}), WithCompression(rules.CompressReorder), WithDeltaOnly()); err != nil {
		t.Fatal(err)
	}

	for v := 0; v < 256; v++ {
		pkt := &packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{byte(v), 0}}
		wantDrop := rs2.Classify(&packet.Packet{Bytes: []byte{byte(v), 0}}) != 0
		if got := sw.Process(pkt); got.Allowed == wantDrop {
			t.Fatalf("byte %d: switch allowed=%v, rules class-nonzero=%v", v, got.Allowed, wantDrop)
		}
	}
}

// TestDeltaOrderGapExhaustionIsACountedFallback: deltas that keep adding
// a row ahead of every other split the same gap of the switch's canonical
// order until it has no room; the switch refuses that delta (ErrDeltaBase),
// the controller counts one fallback and converges by full swap — which
// re-gaps the order, so the next deploy is a delta again — and the table
// holds the rows in the rule set's order throughout.
func TestDeltaOrderGapExhaustionIsACountedFallback(t *testing.T) {
	sw, addr := startSwitch(t)
	c := New(fakeModel{}, Config{Name: "ctl-gap"}, fastBackoff()...)
	t.Cleanup(func() { _ = c.Close() })
	if err := c.Connect(context.Background(), addr); err != nil {
		t.Fatal(err)
	}
	point := func(i int) rules.Rule {
		return rules.Rule{Priority: 1, Class: 1, Preds: []rules.BytePredicate{
			{Offset: 0, Lo: byte(i), Hi: byte(i)}, {Offset: 1, Lo: byte(i >> 8), Hi: byte(i >> 8)}}}
	}
	rs := rules.NewRuleSet([]int{0, 1}, 0)
	for i := 0; i < 8; i++ {
		rs.Rules = append(rs.Rules, point(1000+i))
	}
	miss := p4.Action{Type: p4.ActionAllow}
	if err := c.Deploy(context.Background(), rs, WithMissAction(miss)); err != nil {
		t.Fatal(err)
	}
	det, err := sw.Pipeline().Table(switchsim.DetectorTable)
	if err != nil {
		t.Fatal(err)
	}
	fallbackAt := 0
	for i := 1; i <= 40; i++ {
		next := rules.NewRuleSet(rs.Offsets, 0)
		next.Rules = append([]rules.Rule{point(i)}, rs.Rules...) // same priority: wire order decides
		if err := c.Deploy(context.Background(), next, WithMissAction(miss), WithDeltaOnly()); err != nil {
			t.Fatal(err)
		}
		rs = next
		st := c.Stats()
		if st.DeltaFallbacks == 1 && fallbackAt == 0 {
			fallbackAt = i
		}
		if st.DeltaFallbacks > 1 || st.DeltaApplies+st.DeltaFallbacks != i {
			t.Fatalf("deploy %d: %d delta applies and %d fallbacks", i, st.DeltaApplies, st.DeltaFallbacks)
		}
		want, err := p4rt.ProgramFromRuleSet(rs, miss)
		if err != nil {
			t.Fatal(err)
		}
		got := det.Entries()
		if len(got) != len(want.Entries) {
			t.Fatalf("deploy %d: %d rows installed, want %d", i, len(got), len(want.Entries))
		}
		for j, e := range got {
			if string(e.Lo) != string(want.Entries[j].Lo) {
				t.Fatalf("deploy %d: row %d is on %x, the rule set's is on %x", i, j, e.Lo, want.Entries[j].Lo)
			}
		}
	}
	if fallbackAt < 30 || fallbackAt == 40 {
		t.Fatalf("the order gap ran out at deploy %d: want it to after some thirty halvings, and a delta after the swap", fallbackAt)
	}
}
