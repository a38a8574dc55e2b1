package controller

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"p4guard/internal/dtrace"
	"p4guard/internal/netsim"
	"p4guard/internal/p4"
	"p4guard/internal/packet"
	"p4guard/internal/rules"
	"p4guard/internal/telemetry"
)

// TestFleetTraceExportWellFormed is the observability acceptance soak:
// three gateways behind lossy emulated links, tracing armed on the
// controller and every switch, 120 distinct slow-path attacks injected.
// Every digest must assemble into a complete cross-process trace —
// digest_wait (switch) → fanin_wait → classify → plan → install
// (controller) with the switch-side apply nested under install — whose
// stage durations sum to its end-to-end duration, the spans must survive
// the trip through each process's journal file, and the fleet health
// view must report the
// converged fleet at score 1 with latency quantiles drawn from the same
// traces.
func TestFleetTraceExportWellFormed(t *testing.T) {
	topo := netsim.New(netsim.Config{Seed: 42})
	lossy := netsim.LinkConfig{
		LatencyMin: 50 * time.Microsecond,
		LatencyMax: 300 * time.Microsecond,
		Loss:       0.01,
	}
	if err := topo.AddLink("ctl", "core", lossy); err != nil {
		t.Fatal(err)
	}
	const nSwitches = 3
	gws := make([]*fleetGW, nSwitches)
	for i := range gws {
		node := fmt.Sprintf("gw%d", i)
		if err := topo.AddLink("core", node, lossy); err != nil {
			t.Fatal(err)
		}
		gws[i] = startFleetGW(t, topo, node, "127.0.0.1:0", 1)
		swTr := dtrace.NewTracer()
		swTr.Arm(node, int64(100+i), 1<<12)
		gws[i].sw.SetTracer(swTr)
	}
	t.Cleanup(func() {
		for _, g := range gws {
			_ = g.srv.Close()
		}
	})

	ctlTr := dtrace.NewTracer()
	ctlTr.Arm("ctl", 1, 1<<13)
	c := New(fleetModel{}, Config{Name: "ctl-trace", Reactive: true},
		append(fastBackoff(), WithDialer(topo.Dialer("ctl", nil)), WithTracer(ctlTr))...)
	t.Cleanup(func() { _ = c.Close() })

	for _, g := range gws {
		if err := c.Connect(context.Background(), g.addr); err != nil {
			t.Fatalf("connect %s: %v", g.addr, err)
		}
	}

	// Empty compiled table with a digesting default: every attack packet
	// takes the slow path.
	rs := rules.NewRuleSet([]int{0, 1}, 0)
	if err := c.Deploy(context.Background(), rs, WithMissAction(p4.Action{Type: p4.ActionDigest})); err != nil {
		t.Fatal(err)
	}

	// 120 attacks with distinct (byte0, byte1) keys so per-switch dedup
	// never suppresses an install, spread round-robin over the gateways.
	const nPkts = 120
	for k := 0; k < nPkts; k++ {
		pkt := &packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{byte(128 + k), byte(k)}}
		gws[k%nSwitches].sw.Process(pkt)
	}
	waitFor(t, func() bool { return c.Stats().ReactiveInstalls >= nPkts })

	collect := func() []dtrace.Span {
		spans := append([]dtrace.Span(nil), ctlTr.Spans()...)
		for _, g := range gws {
			spans = append(spans, g.sw.Tracer().Spans()...)
		}
		return spans
	}
	digestTraces := func(sums []dtrace.TraceSummary) []dtrace.TraceSummary {
		var out []dtrace.TraceSummary
		for _, s := range sums {
			if s.Complete && len(s.Stages) > 0 && s.Stages[0].Name == dtrace.StageDigestWait {
				out = append(out, s)
			}
		}
		return out
	}
	// The last install span ends a hair after the ReactiveInstalls bump;
	// poll until every trace has assembled completely.
	var sums []dtrace.TraceSummary
	waitFor(t, func() bool {
		sums = dtrace.Assemble(collect())
		return len(digestTraces(sums)) >= nPkts
	})
	complete := digestTraces(sums)

	wantChain := []string{
		dtrace.StageDigestWait, dtrace.StageFanInWait,
		dtrace.StageClassify, dtrace.StagePlan, dtrace.StageInstall,
	}
	for _, s := range complete {
		if len(s.Stages) != len(wantChain) {
			t.Fatalf("trace %d has %d stages, want %d: %+v", s.Trace, len(s.Stages), len(wantChain), s.Stages)
		}
		var sum time.Duration
		for i, st := range s.Stages {
			if st.Name != wantChain[i] {
				t.Fatalf("trace %d stage[%d] = %s, want %s", s.Trace, i, st.Name, wantChain[i])
			}
			sum += st.Duration()
		}
		// The critical-path invariant the obs report depends on: stage
		// durations sum exactly to the trace's end-to-end duration.
		if sum != s.E2E {
			t.Fatalf("trace %d stage sum %v != e2e %v", s.Trace, sum, s.E2E)
		}
		if s.Stages[0].Proc == "ctl" {
			t.Fatalf("trace %d digest_wait recorded on controller, want switch proc", s.Trace)
		}
		inst := s.Stages[len(s.Stages)-1]
		if inst.Proc != "ctl" || inst.Attrs["switch"] == "" {
			t.Fatalf("trace %d install span = %+v, want ctl proc with switch attr", s.Trace, inst)
		}
		foundApply := false
		for _, d := range s.Details {
			if d.Name == dtrace.DetailApply && d.Proc != "ctl" {
				foundApply = true
			}
		}
		if !foundApply {
			t.Fatalf("trace %d has no switch-side apply detail: %+v", s.Trace, s.Details)
		}
	}
	if problems := dtrace.Verify(sums); len(problems) != 0 {
		t.Fatalf("trace verification problems: %v", problems)
	}

	// The deploy push traces too: one root with a program_apply detail
	// per switch, recorded by the switches' own tracers.
	deploySeen := false
	for _, s := range sums {
		if len(s.Stages) > 0 && s.Stages[0].Name == dtrace.StageDeploy {
			deploySeen = true
			applies := 0
			for _, d := range s.Details {
				if d.Name == dtrace.DetailProgram {
					applies++
				}
			}
			if applies < nSwitches {
				t.Fatalf("deploy trace has %d program_apply details, want >= %d", applies, nSwitches)
			}
		}
	}
	if !deploySeen {
		t.Fatal("no deploy trace recorded")
	}

	// Journal round trip: each process exports its spans into its own
	// journal as the daemons do on exit, and what the analyzer reads back
	// from the files assembles as the in-memory view did.
	tracers := []*dtrace.Tracer{ctlTr}
	for _, g := range gws {
		tracers = append(tracers, g.sw.Tracer())
	}
	var recs []telemetry.JournalRecord
	for i, tr := range tracers {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("proc%d.jsonl", i))
		j, err := telemetry.OpenJournal(path, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Export(j); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := telemetry.ReadJournal(f)
		_ = f.Close()
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, got...)
	}
	reread, err := dtrace.FromJournal(recs)
	if err != nil {
		t.Fatal(err)
	}
	rsums := dtrace.Assemble(reread)
	if got := len(digestTraces(rsums)); got < nPkts {
		t.Fatalf("after the journal round trip %d complete digest traces, want >= %d", got, nPkts)
	}
	if problems := dtrace.Verify(rsums); len(problems) != 0 {
		t.Fatalf("round-tripped traces fail verification: %v", problems)
	}

	// Fleet health: a converged, undropped fleet scores 1.0 and the
	// digest→install quantiles are populated from the same round trips.
	waitFor(t, func() bool {
		for _, st := range c.FleetStatus() {
			if st.AppliedReactive != st.ReactiveLog {
				return false
			}
		}
		return true
	})
	fh := c.FleetHealth()
	if fh.Score != 1.0 {
		t.Fatalf("fleet health score = %v, want 1.0: %+v", fh.Score, fh.Switches)
	}
	if fh.DigestInstallCount != nPkts {
		t.Fatalf("digest install count = %d, want %d", fh.DigestInstallCount, nPkts)
	}
	if fh.DigestInstallP50Ns <= 0 || fh.DigestInstallP99Ns < fh.DigestInstallP50Ns {
		t.Fatalf("latency quantiles p50=%d p99=%d", fh.DigestInstallP50Ns, fh.DigestInstallP99Ns)
	}
	if fh.TraceSpans == 0 {
		t.Fatal("fleet health reports zero trace spans with tracing armed")
	}

	// Each switch's own counters, which its /metrics exports, saw every
	// digest, and its digest queue accounting balances.
	digested := 0
	for _, g := range gws {
		ds := g.sw.DigestQueueStats()
		if ds.Offered != ds.Drained+ds.Dropped+uint64(ds.Depth) {
			t.Fatalf("%s digest invariant broken: %+v", g.sw.Name, ds)
		}
		digested += g.sw.Stats().Digested
	}
	if digested < nPkts {
		t.Fatalf("digested sum = %d, want >= %d", digested, nPkts)
	}

	// Per-link fabric counters saw the traffic on every path link.
	for _, ls := range topo.LinkStats() {
		if ls.Ops == 0 {
			t.Fatalf("link %s—%s saw no operations", ls.A, ls.B)
		}
	}
}

// TestFleetTelemetryAggregate: the fleet registry families render the
// merged view — health scores and latency quantiles — against one live
// switch.
func TestFleetTelemetryAggregate(t *testing.T) {
	sw, addr := startSwitch(t)
	c := New(fakeModel{}, Config{Name: "ctl-agg", Reactive: true})
	t.Cleanup(func() { _ = c.Close() })
	if err := c.Connect(context.Background(), addr); err != nil {
		t.Fatal(err)
	}
	rs := rules.NewRuleSet([]int{0, 1}, 0)
	if err := c.Deploy(context.Background(), rs, WithMissAction(p4.Action{Type: p4.ActionDigest})); err != nil {
		t.Fatal(err)
	}
	sw.Process(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{200, 1}})
	waitFor(t, func() bool { return c.Stats().ReactiveInstalls >= 1 })

	reg := telemetry.NewRegistry()
	c.RegisterFleetTelemetry(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`p4guard_fleet_health_score{controller="ctl-agg"} 1`,
		`p4guard_fleet_switch_health_score{controller="ctl-agg",switch="` + addr + `"} 1`,
		`p4guard_fleet_digest_install_latency_seconds{controller="ctl-agg",quantile="0.5"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "quantile=\"0.5\"} 0\n") {
		t.Fatalf("digest-install p50 rendered as zero after an install:\n%s", out)
	}
}
