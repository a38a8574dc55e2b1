package controller

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"p4guard/internal/netsim"
	"p4guard/internal/p4"
	"p4guard/internal/p4rt"
	"p4guard/internal/packet"
	"p4guard/internal/rules"
	"p4guard/internal/switchsim"
)

// fleetModel maps attack keys onto four classes so by-class sharding has
// distinct content per shard: byte0 > 127 is an attack of class
// 1 + byte1 mod 4, anything else benign.
type fleetModel struct{}

func (fleetModel) ClassifyKey(key []byte) int {
	if key[0] > 127 {
		return 1 + int(key[1])%4
	}
	return 0
}

func (fleetModel) MatchOffsets() []int { return []int{0, 1} }

// fleetGW is one emulated gateway: a behavioural switch serving p4rt on a
// netsim-bound listener.
type fleetGW struct {
	node string
	addr string
	sw   *switchsim.Switch
	srv  *p4rt.Server
}

func startFleetGW(t testing.TB, topo *netsim.Topology, node, addr string, gen int) *fleetGW {
	t.Helper()
	var ln net.Listener
	var err error
	// Restarts reuse the port the dead server just released; retry the
	// bind briefly like listenTCP does.
	for i := 0; i < 100; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("bind %s on %s: %v", addr, node, err)
	}
	if err := topo.Bind(node, ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	sw, err := switchsim.New(fmt.Sprintf("%s-g%d", node, gen), packet.LinkEthernet)
	if err != nil {
		t.Fatal(err)
	}
	sw.SetNode(node)
	srv, err := p4rt.ServeListener(ln, sw, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return &fleetGW{node: node, addr: ln.Addr().String(), sw: sw, srv: srv}
}

// checkFanInInvariant asserts Offered == Drained + Dropped + Depth for
// every switch and for the fleet-wide sums.
func checkFanInInvariant(t *testing.T, sts []SwitchStatus) {
	t.Helper()
	var off, dr, dp uint64
	var depth int
	for _, st := range sts {
		f := st.FanIn
		if f.Offered != f.Drained+f.Dropped+uint64(f.Depth) {
			t.Fatalf("switch %s fan-in invariant broken: %+v", st.Addr, f)
		}
		off += f.Offered
		dr += f.Drained
		dp += f.Dropped
		depth += f.Depth
	}
	if off != dr+dp+uint64(depth) {
		t.Fatalf("fleet fan-in invariant broken: offered=%d drained=%d dropped=%d depth=%d", off, dr, dp, depth)
	}
}

// TestFleetShardedConvergenceUnderLossyNetsim is the fabric acceptance
// test: five gateways behind lossy emulated links, a two-shard by-class
// rule partition, reactive state on every switch, then three of the five
// switches killed and restarted empty. The fleet must reconverge to
// byte-identical per-shard rule sets, the digest fan-in accounting must
// balance per switch and fleet-wide, and no goroutine may leak.
func TestFleetShardedConvergenceUnderLossyNetsim(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine() + 2

	topo := netsim.New(netsim.Config{Seed: 42})
	lossy := netsim.LinkConfig{
		LatencyMin: 50 * time.Microsecond,
		LatencyMax: 300 * time.Microsecond,
		Loss:       0.01,
	}
	if err := topo.AddLink("ctl", "core", lossy); err != nil {
		t.Fatal(err)
	}
	const nSwitches = 5
	gws := make([]*fleetGW, nSwitches)
	for i := range gws {
		node := fmt.Sprintf("gw%d", i)
		if err := topo.AddLink("core", node, lossy); err != nil {
			t.Fatal(err)
		}
		gws[i] = startFleetGW(t, topo, node, "127.0.0.1:0", 1)
	}

	c := New(fleetModel{}, Config{Name: "ctl-fleet", Reactive: true, Shards: 2, Policy: ShardByClass},
		append(fastBackoff(), WithDialer(topo.Dialer("ctl", nil)))...)

	for i, g := range gws {
		if err := c.ConnectShard(context.Background(), g.addr, i%2); err != nil {
			t.Fatalf("connect %s: %v", g.addr, err)
		}
	}

	// Four attack classes with disjoint byte-0 ranges; classes 1,3 land in
	// shard 1, classes 2,4 in shard 0, so the two shards genuinely differ.
	rs := rules.NewRuleSet([]int{0, 1}, 0)
	for cls := 1; cls <= 4; cls++ {
		rs.Add(rules.Rule{
			Priority: cls,
			Class:    cls,
			Preds:    []rules.BytePredicate{{Offset: 0, Lo: byte(240 + cls*3), Hi: byte(240 + cls*3 + 2)}},
		})
	}
	if err := c.Deploy(context.Background(), rs, WithMissAction(p4.Action{Type: p4.ActionDigest})); err != nil {
		t.Fatal(err)
	}
	shardSets := PlanShards(rs, 2, ShardByClass)
	progs := make([]p4rt.Program, len(shardSets))
	for i, srs := range shardSets {
		prog, err := p4rt.ProgramFromRuleSet(srs, p4.Action{Type: p4.ActionDigest})
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = prog
	}
	if entriesEqual(desiredEntries(t, progs[0], nil), desiredEntries(t, progs[1], nil)) {
		t.Fatal("by-class shards are identical; partition is not exercising specialization")
	}

	// Reactive state: one distinct slow-path attack per switch (byte0=200
	// misses every compiled rule, so it digests; byte1 varies the class).
	for i, g := range gws {
		g.sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{200, byte(i)}})
	}
	waitFor(t, func() bool { return c.Stats().ReactiveInstalls >= nSwitches })

	// Kill 3 of the 5 gateways and wait until their supervisors notice.
	for _, i := range []int{1, 2, 3} {
		_ = gws[i].srv.Close()
	}
	waitFor(t, func() bool {
		states := c.States()
		for _, i := range []int{1, 2, 3} {
			if s := states[gws[i].addr]; s != StateDegraded && s != StateConnecting {
				return false
			}
		}
		return true
	})

	// Restart fresh, empty switches on the same fabric nodes and addrs.
	for _, i := range []int{1, 2, 3} {
		gws[i] = startFleetGW(t, topo, gws[i].node, gws[i].addr, 2)
	}
	waitFor(t, func() bool {
		states := c.States()
		for _, g := range gws {
			if states[g.addr] != StateReady {
				return false
			}
		}
		return c.Stats().Reconnects >= 3
	})

	// Byte-identical convergence: every switch's table must equal its
	// shard's program plus its own reactive log, survivors included.
	for i, g := range gws {
		want := desiredEntries(t, progs[i%2], c.reactiveLog(g.addr))
		gw := g
		waitFor(t, func() bool { return entriesEqual(tableEntries(t, gw.sw), want) })
	}

	// Fleet status: identity, shard assignment, and watermarks line up.
	sts := c.FleetStatus()
	if len(sts) != nSwitches {
		t.Fatalf("fleet status has %d switches, want %d", len(sts), nSwitches)
	}
	for i, st := range sts {
		if st.Addr != gws[i].addr || st.Shard != i%2 || st.Node != gws[i].node {
			t.Fatalf("status[%d] = %+v, want addr %s shard %d node %s", i, st, gws[i].addr, i%2, gws[i].node)
		}
		if st.State != StateReady.String() || st.AppliedEpoch != st.DesiredEpoch {
			t.Fatalf("status[%d] not converged: %+v", i, st)
		}
		if st.AppliedReactive != st.ReactiveLog {
			t.Fatalf("status[%d] reactive watermark %d != log %d", i, st.AppliedReactive, st.ReactiveLog)
		}
	}
	checkFanInInvariant(t, sts)

	// Switch-side digest accounting must balance too.
	for _, g := range gws {
		qs := g.sw.DigestQueueStats()
		if qs.Offered != qs.Drained+qs.Dropped+uint64(qs.Depth) {
			t.Fatalf("switch %s digest queue invariant broken: %+v", g.addr, qs)
		}
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for _, g := range gws {
		_ = g.srv.Close()
	}
	waitGoroutines(t, baseGoroutines)

	if st := topo.Stats(); st.Dials == 0 || st.Delays == 0 {
		t.Fatalf("traffic bypassed the emulated fabric: %+v", st)
	}
}

// TestDigestFanInBoundedBackpressure drives one switch's fan-in queue past
// its depth while it is outside the drain rotation: overflow must be
// dropped with accounting (never blocking), and once the queue joins the
// rotation the backlog drains with the invariant intact end to end.
func TestDigestFanInBoundedBackpressure(t *testing.T) {
	c := New(fakeModel{}, Config{Name: "ctl-fan", QueueDepth: 2})
	t.Cleanup(func() { _ = c.Close() })

	sc := &swConn{addr: "fan-test", seen: make(map[string]struct{})}
	c.mu.Lock()
	c.conns[sc.addr] = sc
	c.fleet = append(c.fleet, sc)
	c.mu.Unlock()

	batch := p4rt.DigestMsg{Offsets: []int{0, 1}, Digests: []p4rt.WireDigest{{Key: []byte{1, 2}}, {Key: []byte{3, 4}}}}
	for i := 0; i < 5; i++ {
		c.enqueue(sc, batch)
	}
	c.fanMu.Lock()
	off, dr, dp, depth := sc.fanOffered, sc.fanDrained, sc.fanDropped, len(sc.fanQ)
	c.fanMu.Unlock()
	if off != 5 || dr != 0 || dp != 3 || depth != 2 {
		t.Fatalf("after overflow: offered=%d drained=%d dropped=%d depth=%d, want 5/0/3/2", off, dr, dp, depth)
	}
	if off != dr+dp+uint64(depth) {
		t.Fatalf("fan-in invariant broken: %d != %d+%d+%d", off, dr, dp, depth)
	}
	if got := c.Stats().DroppedBatches; got != 3 {
		t.Fatalf("Stats().DroppedBatches = %d, want 3", got)
	}

	// Join the drain rotation: the worker must clear the backlog.
	c.fanMu.Lock()
	c.fanConns = append(c.fanConns, sc)
	c.fanMu.Unlock()
	c.fanCond.Signal()
	waitFor(t, func() bool {
		c.fanMu.Lock()
		defer c.fanMu.Unlock()
		return sc.fanDrained == 2 && len(sc.fanQ) == 0
	})
	sts := c.FleetStatus()
	if len(sts) != 1 {
		t.Fatalf("fleet status has %d entries, want 1", len(sts))
	}
	checkFanInInvariant(t, sts)
	if got := c.Stats().DigestsProcessed; got != 4 {
		t.Fatalf("DigestsProcessed = %d, want 4 (2 batches x 2 packets)", got)
	}
}

// TestDigestFanInDropsForeignOffsets: a batch whose keys were gathered at
// other offsets than the slow path reads — a switch still on another
// program's layout — is dropped at fan-in with room to spare, counted with
// the overflow drops, and the fan-in invariant holds.
func TestDigestFanInDropsForeignOffsets(t *testing.T) {
	c := New(fakeModel{}, Config{Name: "ctl-offsets", QueueDepth: 8})
	t.Cleanup(func() { _ = c.Close() })
	sc := &swConn{addr: "offsets-test", seen: make(map[string]struct{})}
	c.mu.Lock()
	c.conns[sc.addr] = sc
	c.fleet = append(c.fleet, sc)
	c.mu.Unlock()

	for _, offs := range [][]int{{0, 1}, {1, 0}, {0, 1, 2}, nil} {
		c.enqueue(sc, p4rt.DigestMsg{Offsets: offs, Digests: []p4rt.WireDigest{{Key: make([]byte, len(offs))}}})
	}
	sts := c.FleetStatus()
	if fi := sts[0].FanIn; fi.Offered != 4 || fi.Dropped != 3 || fi.Depth != 1 {
		t.Fatalf("fan-in %+v, want 4 offered, 3 dropped, 1 queued", fi)
	}
	checkFanInInvariant(t, sts)
	if got := c.Stats().DroppedBatches; got != 3 {
		t.Fatalf("Stats().DroppedBatches = %d, want 3", got)
	}
}

// TestAutoShardAssignment: Connect without an explicit shard must balance
// the fleet by join order modulo the shard count, and a failed connect
// must refund its slot so the next join lands on the same shard.
func TestAutoShardAssignment(t *testing.T) {
	c := New(fakeModel{}, Config{Name: "ctl-auto", Shards: 2}, fastBackoff()...)
	t.Cleanup(func() { _ = c.Close() })

	addrs := make([]string, 3)
	for i := range addrs {
		_, addr := startSwitch(t)
		addrs[i] = addr
		if i == 1 {
			// A dead address between joins: the failure must not shift
			// the shard assignment of later switches.
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			if err := c.Connect(ctx, "127.0.0.1:1"); err == nil {
				t.Fatal("connect to dead address succeeded")
			}
			cancel()
		}
		if err := c.Connect(context.Background(), addr); err != nil {
			t.Fatal(err)
		}
	}
	sts := c.FleetStatus()
	if len(sts) != 3 {
		t.Fatalf("fleet has %d switches, want 3", len(sts))
	}
	for i, st := range sts {
		if st.Addr != addrs[i] || st.Shard != i%2 {
			t.Fatalf("status[%d] = addr %s shard %d, want %s shard %d", i, st.Addr, st.Shard, addrs[i], i%2)
		}
		if st.State != StateReady.String() {
			t.Fatalf("status[%d] state %s, want ready", i, st.State)
		}
	}
}
