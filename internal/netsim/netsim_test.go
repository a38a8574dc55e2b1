package netsim

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"
)

// diamond builds a four-node diamond: a—b—d and a—c—d, plus a long spur
// a—e—f—d, so shortest-path and tie-break behaviour are observable.
func diamond() *Topology {
	t := New(Config{Seed: 7})
	for _, e := range [][2]string{{"a", "b"}, {"b", "d"}, {"a", "c"}, {"c", "d"}, {"a", "e"}, {"e", "f"}, {"f", "d"}} {
		if err := t.AddLink(e[0], e[1], LinkConfig{}); err != nil {
			panic(err)
		}
	}
	return t
}

// routeProfile aggregates the profile of the current route between two
// nodes, as a dial from one to the other reads it.
func routeProfile(topo *Topology, from, to string) (PathProfile, error) {
	path, err := topo.pathLocked(from, to)
	if err != nil {
		return PathProfile{}, err
	}
	return profileOf(topo.linksLocked(path)), nil
}

// listen opens a TCP listener on a free loopback port and binds it to node.
func listen(t *testing.T, topo *Topology, node string) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Bind(node, ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	return ln
}

func TestRoutingShortestPathDeterministic(t *testing.T) {
	topo := diamond()
	// Two 2-hop paths exist (via b and via c); lexicographic BFS must pick
	// b — and pick it on every call.
	for i := 0; i < 10; i++ {
		path, err := topo.pathLocked("a", "d")
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"a", "b", "d"}; !reflect.DeepEqual(path, want) {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if path, _ := topo.pathLocked("a", "a"); !reflect.DeepEqual(path, []string{"a"}) {
		t.Fatalf("self path = %v", path)
	}
	if _, err := topo.pathLocked("a", "zz"); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("unknown node err = %v, want ErrNoRoute", err)
	}
}

func TestProfileAggregatesAcrossHops(t *testing.T) {
	topo := New(Config{Seed: 1})
	_ = topo.AddLink("ctl", "core", LinkConfig{LatencyMin: 100 * time.Microsecond, LatencyMax: 200 * time.Microsecond, Loss: 0.1, Bandwidth: 1 << 20, Reset: 0.1})
	_ = topo.AddLink("core", "gw", LinkConfig{LatencyMin: 50 * time.Microsecond, LatencyMax: 100 * time.Microsecond, Loss: 0.1, Bandwidth: 1 << 10, Reset: 0.2})
	p, err := routeProfile(topo, "ctl", "gw")
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops != 2 {
		t.Fatalf("hops = %d", p.Hops)
	}
	if p.LatencyMin != 150*time.Microsecond || p.LatencyMax != 300*time.Microsecond {
		t.Fatalf("latency = [%v, %v]", p.LatencyMin, p.LatencyMax)
	}
	if want := 1 - 0.9*0.9; p.Loss < want-1e-9 || p.Loss > want+1e-9 {
		t.Fatalf("loss = %v, want %v", p.Loss, want)
	}
	if want := 1 - 0.9*0.8; p.Reset < want-1e-9 || p.Reset > want+1e-9 {
		t.Fatalf("reset = %v, want %v", p.Reset, want)
	}
	if p.Bandwidth != 1<<10 {
		t.Fatalf("bandwidth = %d, want narrowest hop", p.Bandwidth)
	}
}

// TestDialThroughTopologyEndToEnd routes a real TCP connection through a
// two-hop emulated path and checks bytes flow and delays are injected.
func TestDialThroughTopologyEndToEnd(t *testing.T) {
	topo := New(Config{Seed: 11})
	_ = topo.AddLink("ctl", "core", LinkConfig{LatencyMin: 10 * time.Microsecond, LatencyMax: 50 * time.Microsecond})
	_ = topo.AddLink("core", "gw", LinkConfig{LatencyMin: 10 * time.Microsecond, LatencyMax: 50 * time.Microsecond})
	ln := listen(t, topo, "gw")
	defer func() { _ = ln.Close() }()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = c.Close() }()
		buf := make([]byte, 5)
		if _, err := c.Read(buf); err == nil {
			_, _ = c.Write(buf)
		}
	}()

	dial := topo.Dialer("ctl", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	c, err := dial(ctx, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := c.Read(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("echo = %q", buf)
	}
	st := topo.Stats()
	if st.Dials != 1 || st.Delays == 0 {
		t.Fatalf("stats = %+v, want 1 dial and some delays", st)
	}

	// Unbound address: strict error, not silent pass-through.
	if _, err := dial(ctx, "127.0.0.1:1"); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("unbound dial err = %v, want ErrNoRoute", err)
	}
}

// pipeConn builds an emulated conn over an in-memory pipe with an
// explicit seed and one link per profile, for white-box schedule probing.
func pipeConn(seed int64, cfgs ...LinkConfig) *conn {
	a, _ := net.Pipe()
	c := &conn{Conn: a, topo: New(Config{}), rng: rand.New(rand.NewSource(seed))}
	for i := range cfgs {
		l := &link{}
		l.cfg.Store(&cfgs[i])
		c.links = append(c.links, l)
	}
	return c
}

// TestSameSeedIdenticalDelaySequence: the link emulator draws delays,
// resets and tears from a seeded per-connection RNG — same seed, same
// operation sequence ⇒ identical (sleep, losses, tear) schedule, with the
// delays inside the path's bounds and each tear a strict prefix.
func TestSameSeedIdenticalDelaySequence(t *testing.T) {
	hops := []LinkConfig{
		{LatencyMin: 10 * time.Microsecond, LatencyMax: 200 * time.Microsecond, Loss: 0.2, Reset: 0.05},
		{LatencyMin: 10 * time.Microsecond, LatencyMax: 200 * time.Microsecond, Bandwidth: 1 << 20},
	}
	ca, cb := pipeConn(42, hops...), pipeConn(42, hops...)
	prof := profileOf(ca.links)
	tears := 0
	for i := 0; i < 500; i++ {
		isWrite := i%2 == 0
		sa, la, ta := ca.plan(isWrite, 128)
		sb, lb, tb := cb.plan(isWrite, 128)
		if sa != sb || la != lb || ta != tb {
			t.Fatalf("op %d diverged: (%v,%d,%d) vs (%v,%d,%d)", i, sa, la, ta, sb, lb, tb)
		}
		if ta >= 128 || (!isWrite && ta > 0) {
			t.Fatalf("op %d tears at %d, want a strict prefix of a write", i, ta)
		}
		if ta >= 0 {
			tears++
		}
		switch {
		case !isWrite && (sa < prof.LatencyMin || sa >= prof.LatencyMax):
			t.Fatalf("op %d read sleep %v outside [%v, %v)", i, sa, prof.LatencyMin, prof.LatencyMax)
		case isWrite && ta < 0 && sa < prof.LatencyMin+time.Duration(128*int64(time.Second)/prof.Bandwidth):
			t.Fatalf("op %d sleep %v below latency+serialization floor", i, sa)
		}
	}
	if tears == 0 {
		t.Fatal("Reset 0.05 tore nothing in 500 operations")
	}
	cc := pipeConn(43, hops...)
	cd := pipeConn(42, hops...)
	diverged := false
	for i := 0; i < 500; i++ {
		sc, lc, tc := cc.plan(true, 128)
		sd, ld, td := cd.plan(true, 128)
		if sc != sd || lc != ld || tc != td {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("different seeds produced the identical 500-op schedule")
	}
}

func TestSerializationDelayFromBandwidth(t *testing.T) {
	// 1 MiB/s and a 1024-byte write: ~1ms of serialization with zero
	// latency configured.
	c := pipeConn(5, LinkConfig{Bandwidth: 1 << 20})
	sleep, losses, tear := c.plan(true, 1024)
	if tear >= 0 || losses != 0 {
		t.Fatalf("unexpected tear/losses: %d/%d", tear, losses)
	}
	want := time.Duration(1024 * int64(time.Second) / (1 << 20))
	if sleep != want {
		t.Fatalf("serialization delay = %v, want %v", sleep, want)
	}
	// Reads pay no serialization.
	if sleep, _, _ := c.plan(false, 1024); sleep != 0 {
		t.Fatalf("read serialization delay = %v, want 0", sleep)
	}
}

// TestTotalLossResetsConnection: Loss=0.95 makes the retransmission
// process give up almost immediately, and Reset=1 tears the first write;
// either way the write must fail with ErrLinkDown having delivered a
// strict prefix of its buffer, the connection must be dead for subsequent
// ops, and the reset must be counted. Re-adding the link clean then heals
// a connection that was live before it.
func TestTotalLossResetsConnection(t *testing.T) {
	for _, cfg := range []LinkConfig{{Loss: 0.95}, {Reset: 1}} {
		topo := New(Config{Seed: 3})
		_ = topo.AddLink("ctl", "gw", cfg)
		ln := listen(t, topo, "gw")
		received := make(chan []byte, 2)
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				go func() {
					b, _ := io.ReadAll(c)
					received <- b
				}()
			}
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		dial := topo.Dialer("ctl", nil)
		c, err := dial(ctx, ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		spare, err := dial(ctx, ln.Addr().String())
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		var n, sent int
		var werr error
		for i := 0; i < 100 && werr == nil; i++ {
			n, werr = c.Write(bytes.Repeat([]byte{0xAB}, 64))
			sent += n
		}
		if !errors.Is(werr, ErrLinkDown) || n >= 64 {
			t.Fatalf("%+v: write = %d, %v; want a strict prefix and ErrLinkDown", cfg, n, werr)
		}
		if got := <-received; len(got) != sent {
			t.Fatalf("%+v: peer got %d bytes, the writer reported %d", cfg, len(got), sent)
		}
		if _, err := c.Write([]byte("x")); !errors.Is(err, ErrLinkDown) {
			t.Fatalf("%+v: post-reset write err = %v, want ErrLinkDown", cfg, err)
		}
		if st := topo.Stats(); st.Resets != 1 || (cfg.Loss > 0 && st.Losses == 0) {
			t.Fatalf("%+v: stats = %+v, want one reset and, on loss, losses", cfg, st)
		}
		_ = topo.AddLink("ctl", "gw", LinkConfig{})
		if _, err := spare.Write([]byte("healed")); err != nil {
			t.Fatalf("%+v: live connection after a clean re-add: %v", cfg, err)
		}
		_ = spare.Close()
		_ = ln.Close()
	}
}

// TestLinkStatsAttribution: per-link counters attribute every operation
// to each link on the connection's path, losses land on lossy links,
// re-adding a link loses none of its counts, and a reset counts on every
// link the dead connection crossed.
func TestLinkStatsAttribution(t *testing.T) {
	topo := New(Config{Seed: 7})
	_ = topo.AddLink("ctl", "core", LinkConfig{LatencyMin: time.Microsecond, LatencyMax: 5 * time.Microsecond})
	_ = topo.AddLink("core", "gw", LinkConfig{LatencyMin: time.Microsecond, LatencyMax: 5 * time.Microsecond, Loss: 0.3})
	_ = topo.AddLink("ctl", "idle", LinkConfig{})
	ln := listen(t, topo, "gw")
	defer func() { _ = ln.Close() }()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 16)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	c, err := topo.Dialer("ctl", nil)(ctx, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	// Re-adding the lossy link clean in the middle of the traffic keeps
	// its counters, and the live connection stops losing from then on.
	const writes = 50
	var lost uint64
	for i := 0; i < writes; i++ {
		if i == writes/2 {
			lost = topo.Stats().Losses
			_ = topo.AddLink("core", "gw", LinkConfig{LatencyMin: time.Microsecond, LatencyMax: 5 * time.Microsecond})
		}
		if _, err := c.Write(make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if lost == 0 || topo.Stats().Losses != lost {
		t.Fatalf("losses %d before the clean re-add, %d after; want some, then no more", lost, topo.Stats().Losses)
	}

	stats := topo.LinkStats()
	if len(stats) != 3 {
		t.Fatalf("LinkStats len = %d, want 3", len(stats))
	}
	byPair := map[[2]string]LinkStats{}
	for _, ls := range stats {
		byPair[[2]string{ls.A, ls.B}] = ls
	}
	hop1 := byPair[[2]string{"core", "ctl"}]
	hop2 := byPair[[2]string{"core", "gw"}]
	idle := byPair[[2]string{"ctl", "idle"}]
	if hop1.Ops != writes || hop2.Ops != writes {
		t.Fatalf("path link ops = %d/%d, want %d each", hop1.Ops, hop2.Ops, writes)
	}
	// Loss draws happen per connection against the aggregate path profile,
	// so both path links see the attributed losses; with Loss=0.3 and 50
	// writes some losses are overwhelmingly likely under any seed that
	// yields them — assert against the topology aggregate for robustness.
	if agg := topo.Stats().Losses; hop1.Losses != agg || hop2.Losses != agg {
		t.Fatalf("path link losses = %d/%d, want aggregate %d on each", hop1.Losses, hop2.Losses, agg)
	}
	if idle.Ops != 0 || idle.Losses != 0 || idle.Resets != 0 {
		t.Fatalf("idle link counters = %+v, want all zero", idle)
	}

	// A reset drawn on one path link tears the connection down and
	// attributes the reset to every link on its path.
	_ = topo.AddLink("core", "gw", LinkConfig{Reset: 1})
	if _, err := c.Write(make([]byte, 8)); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("write across a Reset=1 link: %v, want ErrLinkDown", err)
	}
	stats = topo.LinkStats()
	for _, ls := range stats {
		switch [2]string{ls.A, ls.B} {
		case [2]string{"core", "ctl"}:
			if ls.Resets != 1 {
				t.Fatalf("hop1 resets = %d, want 1", ls.Resets)
			}
		case [2]string{"core", "gw"}:
			if ls.Resets != 1 {
				t.Fatalf("hop2 resets = %d, want 1", ls.Resets)
			}
		case [2]string{"ctl", "idle"}:
			if ls.Resets != 0 {
				t.Fatalf("idle resets = %d, want 0", ls.Resets)
			}
		}
	}
}
