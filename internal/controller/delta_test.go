package controller

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
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

// downgraded is a connection whose hellos claim the protocol version
// before this one: what a controller of that version would send.
type downgraded struct{ net.Conn }

func (c downgraded) Write(p []byte) (int, error) {
	this, prev := fmt.Sprintf(`"version":%d`, p4rt.Version), fmt.Sprintf(`"version":%d`, p4rt.Version-1)
	return c.Conn.Write(bytes.Replace(p, []byte(this), []byte(prev), 1))
}

// oldSwitch serves hellos on ln the way a switch of the previous protocol
// version answers them, counting them, until ln closes.
func oldSwitch(ln net.Listener, hellos *atomic.Int64) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer func() { _ = conn.Close() }()
			if env, err := p4rt.ReadMsg(conn); err == nil {
				hellos.Add(1)
				_ = p4rt.WriteMsg(conn, p4rt.TypeHelloAck, env.ID, p4rt.HelloAck{ServerName: "old-gw", Version: p4rt.Version - 1})
				_, _ = io.Copy(io.Discard, conn)
			}
		}()
	}
}

// TestHelloVersionMismatchIsTyped: peers of different protocol versions
// refuse each other at dial, typed, whichever side is the old one — a
// switch that acks with another version, and a switch hearing a hello of
// another version, which answers with a refusal where the hello_ack would
// be and hangs up. Neither refusal leaves a goroutine behind. And a switch
// the controller already supervises that comes back speaking another
// version is redialled with backoff, not in a spin, and never reaches
// Ready.
func TestHelloVersionMismatchIsTyped(t *testing.T) {
	_, addr := startSwitch(t)
	base := runtime.NumGoroutine() + 2 // tolerate runtime jitter
	ctx := context.Background()

	var hellos atomic.Int64
	oldLn := listenTCP(t, "127.0.0.1:0")
	go oldSwitch(oldLn, &hellos)
	c := New(fakeModel{}, Config{Name: "ctl-new"}, fastBackoff()...)
	if err := c.Connect(ctx, oldLn.Addr().String()); !errors.Is(err, p4rt.ErrRejected) {
		t.Fatalf("controller to an old switch: err = %v, want ErrRejected", err)
	}
	_ = c.Close()

	old := New(fakeModel{}, Config{Name: "ctl-old", Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		return downgraded{conn}, err
	}}, fastBackoff()...)
	err := old.Connect(ctx, addr)
	if !errors.Is(err, p4rt.ErrRejected) || !strings.Contains(err.Error(), fmt.Sprintf("version %d", p4rt.Version-1)) {
		t.Fatalf("old controller to a switch: err = %v, want ErrRejected naming version %d", err, p4rt.Version-1)
	}
	_ = old.Close()

	// A supervised switch restarts as an old one on the same address.
	ln := listenTCP(t, "127.0.0.1:0")
	sw, err := switchsim.New("gw-v", packet.LinkEthernet)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := p4rt.ServeListener(ln, sw, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c = New(fakeModel{}, Config{Name: "ctl-super"}, fastBackoff()...)
	if err := c.Connect(ctx, ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()
	hellos.Store(0)
	restarted := listenTCP(t, ln.Addr().String())
	go oldSwitch(restarted, &hellos)
	time.Sleep(500 * time.Millisecond)
	n := hellos.Load()
	t.Logf("%d redials of the old switch in 500ms", n)
	if n < 2 || n > 40 {
		t.Fatalf("the supervisor redialled an old switch %d times in 500ms: want a few, backing off up to 50ms", n)
	}
	if st := c.States()[ln.Addr().String()]; st == StateReady {
		t.Fatal("the supervisor reached Ready against a switch of another version")
	}
	_ = c.Close()
	_ = restarted.Close()
	_ = oldLn.Close()
	waitGoroutines(t, base)
}

// TestDeltaFallsBackAndLatchesOnOldPeer: an old peer is refused at dial,
// so a delta deploy never reaches one, and there is nothing to fall back
// from and nothing to latch. A supervised switch that restarts speaking the
// previous version is skipped by the epoch-2 delta deploy — no delta apply,
// no fallback counted. Once it restarts speaking this one, the supervisor
// converges it by full swap (it came back empty), still with no fallback,
// and the very next deploy reaches it as a delta: no latch outlived the
// old peer.
func TestDeltaFallsBackAndLatchesOnOldPeer(t *testing.T) {
	ln := listenTCP(t, "127.0.0.1:0")
	addr := ln.Addr().String()
	serve := func(ln net.Listener) (*switchsim.Switch, *p4rt.Server) {
		t.Helper()
		sw, err := switchsim.New("gw-old", packet.LinkEthernet)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := p4rt.ServeListener(ln, sw, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		return sw, srv
	}
	_, srv := serve(ln)
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

	// The switch restarts as an old one; the deploy of epoch 2 finds it
	// down — the supervisor is redialling it — and offers it nothing.
	_ = srv.Close()
	var hellos atomic.Int64
	oldLn := listenTCP(t, addr)
	go oldSwitch(oldLn, &hellos)
	waitFor(t, func() bool { return hellos.Load() >= 1 })
	rs2 := rules.NewRuleSet([]int{0, 1}, 0)
	rs2.Add(rules.Rule{Priority: 1, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 200, Hi: 255}}})
	rs2.Add(rules.Rule{Priority: 2, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 100, Hi: 110}}})
	deploy(rs2)
	if st := c.Stats(); st.DeltaApplies != 0 || st.DeltaFallbacks != 0 {
		t.Fatalf("stats with the old peer up: %+v, want no delta applied and no fallback", st)
	}
	if st := c.States()[addr]; st == StateReady {
		t.Fatal("the supervisor reached Ready against a switch of another version")
	}

	// Back as a current switch: converged by full swap, no fallback.
	_ = oldLn.Close()
	sw, _ := serve(listenTCP(t, addr))
	waitFor(t, func() bool { return c.States()[addr] == StateReady })
	if v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{105, 0}}); v.Allowed {
		t.Fatal("epoch 2 not active once the switch speaks this version")
	}
	if st := c.Stats(); st.DeltaApplies != 0 || st.DeltaFallbacks != 0 {
		t.Fatalf("stats after the replay: %+v, want a full swap and no fallback", st)
	}

	// Epoch 3 is a delta again: nothing latched.
	rs3 := rules.NewRuleSet([]int{0, 1}, 0)
	rs3.Add(rules.Rule{Priority: 1, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 200, Hi: 255}}})
	rs3.Add(rules.Rule{Priority: 2, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 100, Hi: 110}}})
	rs3.Add(rules.Rule{Priority: 3, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 50, Hi: 60}}})
	deploy(rs3)
	if st := c.Stats(); st.DeltaApplies != 1 || st.DeltaFallbacks != 0 {
		t.Fatalf("stats after epoch 3: %+v, want one delta applied and no fallback", st)
	}
	if v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{55, 0}}); v.Allowed {
		t.Fatal("epoch 3 not active")
	}
	if v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{105, 0}}); v.Allowed {
		t.Fatal("epoch 2 rule lost by the epoch 3 delta")
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
