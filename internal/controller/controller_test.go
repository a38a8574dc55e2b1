package controller

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"p4guard/internal/p4"
	"p4guard/internal/p4rt"
	"p4guard/internal/packet"
	"p4guard/internal/rules"
	"p4guard/internal/switchsim"
	"p4guard/internal/telemetry"
)

// fakeModel flags packets whose byte 0 exceeds 127.
type fakeModel struct{}

func (fakeModel) ClassifySlowPath(pkt *packet.Packet) int {
	if pkt.ByteAt(0) > 127 {
		return 1
	}
	return 0
}

func (fakeModel) MatchOffsets() []int { return []int{0, 1} }

func startSwitch(t *testing.T) (*switchsim.Switch, string) {
	t.Helper()
	sw, err := switchsim.New("gw-ctl", packet.LinkEthernet)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := p4rt.Serve("127.0.0.1:0", sw, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return sw, srv.Addr()
}

func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestConnectAndDeploy(t *testing.T) {
	sw, addr := startSwitch(t)
	c := New(fakeModel{}, Config{Name: "test-ctl"})
	t.Cleanup(func() { _ = c.Close() })
	if err := c.Connect(context.Background(), addr); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect(context.Background(), addr); err == nil {
		t.Fatal("duplicate connect accepted")
	}
	if names := c.Switches(); len(names) != 1 || names[0] != "gw-ctl" {
		t.Fatalf("switches = %v", names)
	}

	rs := rules.NewRuleSet([]int{0, 1}, 0)
	rs.Add(rules.Rule{Priority: 1, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 200, Hi: 255}}})
	if err := c.Deploy(context.Background(), rs, WithMissAction(p4.Action{Type: p4.ActionAllow})); err != nil {
		t.Fatal(err)
	}
	if v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{210, 0}}); v.Allowed {
		t.Fatal("deployed rule inactive")
	}
}

// TestDeployRefusesWhatTheWireCannotCarry: a rule whose priority or class
// does not fit the wire's 32 bits fails Deploy with p4rt.ErrMalformed
// before the epoch moves — the switch keeps its program and its connection,
// nobody redials — and a reactive priority past 32 bits is held to
// math.MaxInt32, so reactive installs still land.
func TestDeployRefusesWhatTheWireCannotCarry(t *testing.T) {
	sw, addr := startSwitch(t)
	c := New(fakeModel{}, Config{Reactive: true, ReactivePriority: 1 << 40})
	t.Cleanup(func() { _ = c.Close() })
	if err := c.Connect(context.Background(), addr); err != nil {
		t.Fatal(err)
	}
	ruleSet := func(priority, class int) *rules.RuleSet {
		rs := rules.NewRuleSet([]int{0, 1}, 0)
		rs.Add(rules.Rule{Priority: priority, Class: class, Preds: []rules.BytePredicate{{Offset: 0, Lo: 200, Hi: 210}}})
		return rs
	}
	if err := c.Deploy(context.Background(), ruleSet(1, 1)); err != nil {
		t.Fatal(err)
	}
	for _, rs := range []*rules.RuleSet{ruleSet(1<<31, 1), ruleSet(-1<<31-1, 1), ruleSet(1, 1<<31)} {
		if err := c.Deploy(context.Background(), rs); !errors.Is(err, p4rt.ErrMalformed) {
			t.Fatalf("deploy of %v: err = %v, want p4rt.ErrMalformed", rs.Rules[0], err)
		}
	}
	if v := sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{205, 0}}); v.Allowed || v.Digested {
		t.Fatalf("the deployed rule is gone after the refusals: %+v", v)
	}

	attack := &packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{222, 7}}
	sw.Process(attack)
	waitFor(t, func() bool { return c.Stats().ReactiveInstalls == 1 })
	if v := sw.Process(attack.Clone()); v.Allowed || v.Digested {
		t.Fatalf("reactive install at the clamped priority inactive: %+v", v)
	}
	det, err := sw.Pipeline().Table(switchsim.DetectorTable)
	if err != nil {
		t.Fatal(err)
	}
	if es := det.Entries(); len(es) != 2 || max(es[0].Priority, es[1].Priority) != math.MaxInt32 {
		t.Fatalf("detector holds %+v, want the rule and the reactive row at priority MaxInt32", es)
	}
	st := c.FleetStatus()
	if s := c.Stats(); s.Deploys != 1 || s.Reconnects != 0 || len(st) != 1 || st[0].State != StateReady.String() ||
		st[0].DesiredEpoch != 1 || st[0].AppliedEpoch != 1 {
		t.Fatalf("after the refusals: stats %+v, fleet %+v; want one deploy, no redial, epoch 1 desired and applied", s, st)
	}
}

func TestDeployWithoutSwitches(t *testing.T) {
	c := New(fakeModel{}, Config{})
	t.Cleanup(func() { _ = c.Close() })
	rs := rules.NewRuleSet([]int{0}, 0)
	if err := c.Deploy(context.Background(), rs, WithMissAction(p4.Action{Type: p4.ActionAllow})); err == nil {
		t.Fatal("deploy with no switches succeeded")
	}
}

func TestSlowPathStats(t *testing.T) {
	sw, addr := startSwitch(t)
	c := New(fakeModel{}, Config{})
	t.Cleanup(func() { _ = c.Close() })
	if err := c.Connect(context.Background(), addr); err != nil {
		t.Fatal(err)
	}
	// Empty rules with digest-on-miss: everything goes to the slow path.
	rs := rules.NewRuleSet([]int{0, 1}, 0)
	if err := c.Deploy(context.Background(), rs, WithMissAction(p4.Action{Type: p4.ActionDigest})); err != nil {
		t.Fatal(err)
	}
	sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{10, 0}})  // benign
	sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{200, 0}}) // attack

	waitFor(t, func() bool { return c.Stats().DigestsProcessed >= 2 })
	st := c.Stats()
	if st.SlowPathBenign != 1 || st.SlowPathAttacks != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ReactiveInstalls != 0 {
		t.Fatalf("non-reactive controller installed entries: %+v", st)
	}
}

func TestReactiveInstallBlocksRepeat(t *testing.T) {
	sw, addr := startSwitch(t)
	c := New(fakeModel{}, Config{Reactive: true})
	t.Cleanup(func() { _ = c.Close() })
	if err := c.Connect(context.Background(), addr); err != nil {
		t.Fatal(err)
	}
	rs := rules.NewRuleSet([]int{0, 1}, 0)
	if err := c.Deploy(context.Background(), rs, WithMissAction(p4.Action{Type: p4.ActionDigest})); err != nil {
		t.Fatal(err)
	}

	attack := &packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{222, 7, 1}}
	sw.Process(attack)
	waitFor(t, func() bool { return c.Stats().ReactiveInstalls >= 1 })

	// The repeat must now be dropped at the data plane, without a digest.
	before := sw.Stats().Digested
	v := sw.Process(attack.Clone())
	if v.Allowed {
		t.Fatal("repeat attack allowed after reactive install")
	}
	if v.Digested || sw.Stats().Digested != before {
		t.Fatal("repeat attack digested despite installed entry")
	}

	// Same key again must not install twice.
	time.Sleep(20 * time.Millisecond)
	if got := c.Stats().ReactiveInstalls; got != 1 {
		t.Fatalf("reactive installs = %d, want 1", got)
	}

	// A different key gets its own entry.
	other := &packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{222, 8, 1}}
	sw.Process(other)
	waitFor(t, func() bool { return c.Stats().ReactiveInstalls >= 2 })
}

func TestCloseIdempotent(t *testing.T) {
	_, addr := startSwitch(t)
	c := New(fakeModel{}, Config{})
	if err := c.Connect(context.Background(), addr); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect(context.Background(), addr); err == nil {
		t.Fatal("connect after close succeeded")
	}
}

// TestFlightRecorderTracesControlLoop: connect, deploy, and every digest
// round trip must land in the controller's journal (here a memory-only
// one) with increasing sequence numbers, monotonic timings, and the right
// decisions.
func TestFlightRecorderTracesControlLoop(t *testing.T) {
	sw, addr := startSwitch(t)
	fr := telemetry.NewFlightRecorder(256)
	c := New(fakeModel{}, Config{Reactive: true, Journal: fr})
	t.Cleanup(func() { _ = c.Close() })
	if err := c.Connect(context.Background(), addr); err != nil {
		t.Fatal(err)
	}
	rs := rules.NewRuleSet([]int{0, 1}, 0)
	if err := c.Deploy(context.Background(), rs, WithMissAction(p4.Action{Type: p4.ActionDigest})); err != nil {
		t.Fatal(err)
	}
	sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{10, 0}})  // benign
	sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{200, 0}}) // attack -> install
	// DigestsProcessed moves before a digest's event is recorded, so wait
	// on what the assertions below read: the recorder itself.
	waitFor(t, func() bool {
		digests := 0
		for _, e := range fr.Records() {
			if e.Kind == "digest" {
				digests++
			}
		}
		return digests >= 2
	})

	decisions := map[string]int{}
	kinds := map[string]int{}
	var lastSeq uint64
	var lastAt int64
	for _, e := range fr.Records() {
		if e.Seq <= lastSeq || e.MonoNs < lastAt {
			t.Fatalf("events out of order: %+v", fr.Records())
		}
		lastSeq, lastAt = e.Seq, e.MonoNs
		kinds[e.Kind]++
		if e.Kind == "digest" {
			f := e.Fields.(map[string]any)
			decisions[f["decision"].(string)]++
			if f["dur_ns"].(int64) < 0 {
				t.Fatalf("negative duration: %+v", e)
			}
			if f["switch"].(string) != addr {
				t.Fatalf("wrong switch label: %+v", e)
			}
		}
	}
	if kinds["connect"] != 1 || kinds["deploy"] != 1 || kinds["digest"] < 2 {
		t.Fatalf("event kinds = %v", kinds)
	}
	if decisions["benign"] < 1 || decisions["install"] < 1 {
		t.Fatalf("digest decisions = %v", decisions)
	}

	st := c.Stats()
	if st.Deploys != 1 {
		t.Fatalf("deploys = %d, want 1", st.Deploys)
	}
}

// TestRegisterTelemetryExportsControllerCounters checks the Prometheus
// families the controller exports and that the printed stats line comes
// from the shared String method.
func TestRegisterTelemetryExportsControllerCounters(t *testing.T) {
	sw, addr := startSwitch(t)
	c := New(fakeModel{}, Config{Name: "ctl-tel", Reactive: true})
	t.Cleanup(func() { _ = c.Close() })
	reg := telemetry.NewRegistry()
	c.RegisterTelemetry(reg)
	if err := c.Connect(context.Background(), addr); err != nil {
		t.Fatal(err)
	}
	rs := rules.NewRuleSet([]int{0, 1}, 0)
	if err := c.Deploy(context.Background(), rs, WithMissAction(p4.Action{Type: p4.ActionDigest})); err != nil {
		t.Fatal(err)
	}
	sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{210, 3}})
	waitFor(t, func() bool { return c.Stats().ReactiveInstalls >= 1 })

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`p4guard_ctl_digests_processed_total{controller="ctl-tel"} 1`,
		`p4guard_ctl_slowpath_total{controller="ctl-tel",outcome="attack"} 1`,
		`p4guard_ctl_reactive_installs_total{controller="ctl-tel"} 1`,
		`p4guard_ctl_deploys_total{controller="ctl-tel"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if got := c.Stats().String(); !strings.Contains(got, "reactive_installs=1") || !strings.Contains(got, "deploys=1") {
		t.Fatalf("stats line = %q", got)
	}
}
