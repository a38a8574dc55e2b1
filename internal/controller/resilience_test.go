package controller

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"testing"
	"time"

	"p4guard/internal/netsim"
	"p4guard/internal/p4"
	"p4guard/internal/p4rt"
	"p4guard/internal/packet"
	"p4guard/internal/rules"
	"p4guard/internal/switchsim"
)

// fastBackoff keeps redial loops tight so resilience tests finish in
// milliseconds instead of the production seconds.
func fastBackoff() []Option {
	return []Option{
		WithReconnectBackoff(2*time.Millisecond, 50*time.Millisecond),
		func(c *Config) { c.Seed = 7 },
		WithRPCTimeout(time.Second),
	}
}

// listenTCP binds addr, retrying briefly — restarts reuse the port the
// dead server just released.
func listenTCP(t *testing.T, addr string) net.Listener {
	t.Helper()
	var lastErr error
	for i := 0; i < 100; i++ {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("rebind %s: %v", addr, lastErr)
	return nil
}

// desiredEntries renders the controller's intended rule state — the
// deployed program followed by the reactive log — as p4 entries with IDs
// zeroed, the canonical form for byte-identical convergence checks
// (entry IDs are allocator state, not rule state).
func desiredEntries(t *testing.T, prog p4rt.Program, reactive []p4rt.WireEntry) []p4.Entry {
	t.Helper()
	out := make([]p4.Entry, 0, len(prog.Entries)+len(reactive))
	for _, we := range append(append([]p4rt.WireEntry(nil), prog.Entries...), reactive...) {
		e, err := we.ToP4Entry()
		if err != nil {
			t.Fatal(err)
		}
		e.ID = 0
		out = append(out, e)
	}
	return out
}

// tableEntries snapshots the switch's detector table with IDs zeroed.
func tableEntries(t *testing.T, sw *switchsim.Switch) []p4.Entry {
	t.Helper()
	det, err := sw.Pipeline().Table(switchsim.DetectorTable)
	if err != nil {
		t.Fatal(err)
	}
	es := det.Entries()
	for i := range es {
		es[i].ID = 0
	}
	return es
}

// entriesEqual compares two entry sets byte-for-byte under a canonical
// order (tables publish entries priority-sorted, the desired log is in
// install order — the set, not the storage order, is the rule state).
func entriesEqual(a, b []p4.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	canon := func(es []p4.Entry) []string {
		out := make([]string, len(es))
		for i, e := range es {
			out[i] = fmt.Sprintf("%+v", e)
		}
		sort.Strings(out)
		return out
	}
	ca, cb := canon(a), canon(b)
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

// reactiveLog returns the desired reactive entry log for one switch, as
// the wire entries a replay sends.
func (c *Controller) reactiveLog(addr string) []p4rt.WireEntry {
	c.mu.Lock()
	sc := c.conns[addr]
	c.mu.Unlock()
	if sc == nil {
		return nil
	}
	sc.opMu.Lock()
	defer sc.opMu.Unlock()
	log := make([]p4rt.WireEntry, len(sc.reactive))
	for i, r := range sc.reactive {
		log[i] = c.wireEntry([]byte(r.key), r.class)
	}
	return log
}

func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), base,
		buf[:runtime.Stack(buf, true)])
}

// TestReconnectConvergesAfterSwitchRestart kills the switch process
// mid-run and restarts an empty one on the same address: the supervisor
// must redial, replay the program epoch and the reactive log, and leave
// the fresh switch byte-identical to the controller's desired rule state
// — all without leaking a single goroutine.
func TestReconnectConvergesAfterSwitchRestart(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine() + 2 // tolerate runtime jitter

	ln := listenTCP(t, "127.0.0.1:0")
	addr := ln.Addr().String()
	sw1, err := switchsim.New("gw-r1", packet.LinkEthernet)
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := p4rt.ServeListener(ln, sw1, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	c := New(fakeModel{}, Config{Name: "ctl-reconnect", Reactive: true}, fastBackoff()...)
	if err := c.Connect(context.Background(), addr); err != nil {
		t.Fatal(err)
	}
	rs := rules.NewRuleSet([]int{0, 1}, 0)
	rs.Add(rules.Rule{Priority: 1, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 240, Hi: 255}}})
	if err := c.Deploy(context.Background(), rs, WithMissAction(p4.Action{Type: p4.ActionDigest})); err != nil {
		t.Fatal(err)
	}
	prog, err := p4rt.ProgramFromRuleSet(rs, p4.Action{Type: p4.ActionDigest})
	if err != nil {
		t.Fatal(err)
	}

	// Generate reactive state: two distinct slow-path attacks.
	sw1.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{200, 1}})
	sw1.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{200, 2}})
	waitFor(t, func() bool { return c.Stats().ReactiveInstalls >= 2 })

	// Kill the switch. The supervisor must notice and degrade.
	_ = srv1.Close()
	waitFor(t, func() bool {
		s := c.States()[addr]
		return s == StateDegraded || s == StateConnecting
	})

	// Restart: a fresh, empty switch process on the same address.
	ln2 := listenTCP(t, addr)
	sw2, err := switchsim.New("gw-r2", packet.LinkEthernet)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := p4rt.ServeListener(ln2, sw2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	waitFor(t, func() bool {
		return c.States()[addr] == StateReady && c.Stats().Reconnects >= 1
	})
	want := desiredEntries(t, prog, c.reactiveLog(addr))
	waitFor(t, func() bool { return entriesEqual(tableEntries(t, sw2), want) })

	// The replayed state must act on the data plane: compiled rule and
	// both reactive entries all drop.
	for _, b := range [][]byte{{250, 0}, {200, 1}, {200, 2}} {
		if v := sw2.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: b}); v.Allowed {
			t.Fatalf("packet %v allowed on restarted switch", b)
		}
	}
	st := c.Stats()
	if st.Reconciles < 2 || st.ReplayedEntries < 2 {
		t.Fatalf("stats = %+v, want >=2 reconciles and >=2 replayed entries", st)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	_ = srv2.Close()
	waitGoroutines(t, baseGoroutines)
}

// TestDeployWhileDegradedConverges: Deploy with the switch down
// must record the new desired epoch and return nil — and the supervisor
// must push that epoch when the switch comes back.
func TestDeployWhileDegradedConverges(t *testing.T) {
	ln := listenTCP(t, "127.0.0.1:0")
	addr := ln.Addr().String()
	sw1, err := switchsim.New("gw-d1", packet.LinkEthernet)
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := p4rt.ServeListener(ln, sw1, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c := New(fakeModel{}, Config{Name: "ctl-degraded"}, fastBackoff()...)
	t.Cleanup(func() { _ = c.Close() })
	if err := c.Connect(context.Background(), addr); err != nil {
		t.Fatal(err)
	}

	_ = srv1.Close()
	waitFor(t, func() bool { return c.States()[addr] != StateReady })

	rs := rules.NewRuleSet([]int{0, 1}, 0)
	rs.Add(rules.Rule{Priority: 3, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 128, Hi: 255}}})
	if err := c.Deploy(context.Background(), rs, WithMissAction(p4.Action{Type: p4.ActionAllow})); err != nil {
		t.Fatalf("deploy while degraded errored: %v", err)
	}

	ln2 := listenTCP(t, addr)
	sw2, err := switchsim.New("gw-d2", packet.LinkEthernet)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := p4rt.ServeListener(ln2, sw2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv2.Close() })

	prog, err := p4rt.ProgramFromRuleSet(rs, p4.Action{Type: p4.ActionAllow})
	if err != nil {
		t.Fatal(err)
	}
	want := desiredEntries(t, prog, nil)
	waitFor(t, func() bool { return entriesEqual(tableEntries(t, sw2), want) })
	if v := sw2.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{200, 0}}); v.Allowed {
		t.Fatal("deferred deploy inactive on restarted switch")
	}
}

// TestRefusedReactiveRowLeavesTheLog: a deploy whose key layout differs
// from the slow path's (offsets [0,1,2] against the model's [0,1]) makes
// the switch refuse every logged 2-byte reactive row on the deploy's
// replay. A refused row leaves the log and is counted, so the deploy
// succeeds and a restarted switch reaches Ready instead of looping the
// supervisor on the same refusal. A digest the switch then gathers under
// the wider layout is dropped at fan-in, never classified or installed.
func TestRefusedReactiveRowLeavesTheLog(t *testing.T) {
	ln := listenTCP(t, "127.0.0.1:0")
	addr := ln.Addr().String()
	sw1, err := switchsim.New("gw-f1", packet.LinkEthernet)
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := p4rt.ServeListener(ln, sw1, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c := New(fakeModel{}, Config{Name: "ctl-refused", Reactive: true}, fastBackoff()...)
	t.Cleanup(func() { _ = c.Close() })
	if err := c.Connect(context.Background(), addr); err != nil {
		t.Fatal(err)
	}
	miss := WithMissAction(p4.Action{Type: p4.ActionDigest})
	if err := c.Deploy(context.Background(), rules.NewRuleSet([]int{0, 1}, 0), miss); err != nil {
		t.Fatal(err)
	}
	sw1.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{200, 1, 0}})
	waitFor(t, func() bool { return c.Stats().ReactiveInstalls == 1 })

	wide := rules.NewRuleSet([]int{0, 1, 2}, 0)
	wide.Add(rules.Rule{Priority: 1, Class: 1, Preds: []rules.BytePredicate{{Offset: 2, Lo: 250, Hi: 255}}})
	if err := c.Deploy(context.Background(), wide, miss); err != nil {
		t.Fatalf("deploy on a wider key: %v", err)
	}
	if st := c.Stats(); st.RefusedEntries != 1 {
		t.Fatalf("refused entries after the wide deploy = %d, want the one logged row", st.RefusedEntries)
	}
	sw1.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{200, 2, 0}})
	waitFor(t, func() bool { return c.Stats().DroppedBatches == 1 })
	if st := c.Stats(); st.DigestsProcessed != 1 || st.ReactiveInstalls != 1 {
		t.Fatalf("a digest of the wide layout reached the slow path: %+v", st)
	}

	_ = srv1.Close()
	waitFor(t, func() bool { return c.States()[addr] != StateReady })
	sw2, err := switchsim.New("gw-f2", packet.LinkEthernet)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := p4rt.ServeListener(listenTCP(t, addr), sw2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv2.Close() })
	waitFor(t, func() bool { return c.States()[addr] == StateReady })

	prog, err := p4rt.ProgramFromRuleSet(wide, p4.Action{Type: p4.ActionDigest})
	if err != nil {
		t.Fatal(err)
	}
	if log := c.reactiveLog(addr); len(log) != 0 {
		t.Fatalf("reactive log keeps %d refused rows", len(log))
	}
	if got, want := tableEntries(t, sw2), desiredEntries(t, prog, nil); !entriesEqual(got, want) {
		t.Fatalf("restarted switch holds %d entries, want the %d deployed", len(got), len(want))
	}
	if st := c.Stats(); st.RefusedEntries != 1 {
		t.Fatalf("refused entries = %d, want 1", st.RefusedEntries)
	}
}

// mute accepts and never handshakes, so Connect blocks on its context.
func mute(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer func() { _ = c.Close() }()
		}
	}()
	return ln.Addr().String()
}

// TestContextCancellationIsTypedAndPrompt: cancelling or expiring the
// caller's context must return within the deadline with the typed error,
// for both Connect and Deploy.
func TestContextCancellationIsTypedAndPrompt(t *testing.T) {
	addr := mute(t)
	c := New(fakeModel{}, Config{Name: "ctl-cancel"}, fastBackoff()...)
	t.Cleanup(func() { _ = c.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := c.Connect(ctx, addr); !errors.Is(err, p4rt.ErrTimeout) {
		t.Fatalf("connect err = %v, want ErrTimeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("connect returned in %v, want ~50ms", d)
	}

	cctx, ccancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		ccancel()
	}()
	if err := c.Connect(cctx, addr); !errors.Is(err, context.Canceled) {
		t.Fatalf("connect err = %v, want context.Canceled", err)
	}

	// A real switch so Deploy reaches the ctx check.
	_, live := startSwitch(t)
	if err := c.Connect(context.Background(), live); err != nil {
		t.Fatal(err)
	}
	done, dcancel := context.WithCancel(context.Background())
	dcancel()
	rs := rules.NewRuleSet([]int{0, 1}, 0)
	if err := c.Deploy(done, rs, WithMissAction(p4.Action{Type: p4.ActionAllow})); !errors.Is(err, context.Canceled) {
		t.Fatalf("deploy err = %v, want context.Canceled", err)
	}
}

// TestFaultInjectionSoak drives the full control loop over a seeded
// faulty link — connection resets, torn frames, and added latency — then
// re-adds the link clean and requires exact convergence: the battered
// switch ends up byte-identical to the controller's desired rule state,
// the digest queue accounting balances, and no goroutines leak.
func TestFaultInjectionSoak(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine() + 2

	topo := netsim.New(netsim.Config{Seed: 42})
	if err := topo.AddLink("ctl", "gw", netsim.LinkConfig{LatencyMax: time.Millisecond, Reset: 0.04}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := topo.Bind("gw", addr); err != nil {
		t.Fatal(err)
	}
	sw, err := switchsim.NewWithDigestCapacity("gw-soak", packet.LinkEthernet, 512)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := p4rt.ServeListener(ln, sw, time.Millisecond,
		p4rt.WithSendTimeout(500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	c := New(fakeModel{}, Config{Name: "ctl-soak", Reactive: true},
		WithDialer(topo.Dialer("ctl", nil)),
		WithReconnectBackoff(2*time.Millisecond, 50*time.Millisecond),
		func(c *Config) { c.Seed = 42 },
		WithRPCTimeout(500*time.Millisecond))

	// The initial connect races the fault schedule; retry until one
	// handshake survives.
	var connectErr error
	for i := 0; i < 50; i++ {
		if connectErr = c.Connect(context.Background(), addr); connectErr == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if connectErr != nil {
		t.Fatalf("connect never survived the fault schedule: %v", connectErr)
	}

	rs := rules.NewRuleSet([]int{0, 1}, 0)
	rs.Add(rules.Rule{Priority: 1, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 250, Hi: 255}}})
	var deployErr error
	for i := 0; i < 50; i++ {
		if deployErr = c.Deploy(context.Background(), rs, WithMissAction(p4.Action{Type: p4.ActionDigest})); deployErr == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if deployErr != nil {
		t.Fatalf("deploy never survived the fault schedule: %v", deployErr)
	}
	prog, err := p4rt.ProgramFromRuleSet(rs, p4.Action{Type: p4.ActionDigest})
	if err != nil {
		t.Fatal(err)
	}

	// Soak: a stream of distinct slow-path attacks while the link chews
	// connections. Installs that race a reset are deferred to the
	// reconciler; the desired log keeps them all.
	for i := 0; i < 40; i++ {
		sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{200, byte(i)}})
		time.Sleep(2 * time.Millisecond)
	}

	// Heal the link, live connections included, and require exact
	// convergence with the desired state.
	if err := topo.AddLink("ctl", "gw", netsim.LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.States()[addr] == StateReady })
	// One more attack end-to-end proves the healed loop is live.
	sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{201, 77}})
	waitFor(t, func() bool {
		for _, e := range c.reactiveLog(addr) {
			if len(e.Lo) == 2 && e.Lo[0] == 201 && e.Lo[1] == 77 {
				return true
			}
		}
		return false
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		want := desiredEntries(t, prog, c.reactiveLog(addr))
		if entriesEqual(tableEntries(t, sw), want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("switch never converged: table has %d entries, desired %d (stats %+v, faults %+v)",
				len(tableEntries(t, sw)), len(want), c.Stats(), topo.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The soak must have actually exercised the fault machinery.
	if fs := topo.Stats(); fs.Resets == 0 {
		t.Fatalf("fault schedule injected nothing: %+v", fs)
	}
	t.Logf("fabric: %+v", topo.Stats())

	// Digest-queue accounting balances even across controller outages.
	ds := sw.DigestQueueStats()
	if ds.Offered != ds.Drained+ds.Dropped+uint64(ds.Depth) {
		t.Fatalf("digest invariant violated: offered=%d drained=%d dropped=%d depth=%d",
			ds.Offered, ds.Drained, ds.Dropped, ds.Depth)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()
	waitGoroutines(t, baseGoroutines)
}
