package switchsim

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"p4guard/internal/drift"
	"p4guard/internal/dtrace"
	"p4guard/internal/p4"
	"p4guard/internal/packet"
	"p4guard/internal/rules"
	"p4guard/internal/telemetry"
)

// randRuleSet builds a deterministic multi-field rule set with a mix of
// allow and drop classes.
func randRuleSet(seed int64) *rules.RuleSet {
	rng := rand.New(rand.NewSource(seed))
	offsets := []int{0, 3, 7}
	rs := rules.NewRuleSet(offsets, 0)
	for i := 0; i < 10; i++ {
		var preds []rules.BytePredicate
		for _, off := range offsets {
			if rng.Float64() < 0.7 {
				a, b := byte(rng.Intn(256)), byte(rng.Intn(256))
				if a > b {
					a, b = b, a
				}
				preds = append(preds, rules.BytePredicate{Offset: off, Lo: a, Hi: b})
			}
		}
		rs.Add(rules.Rule{Priority: rng.Intn(5), Class: rng.Intn(3), Preds: preds})
	}
	return rs
}

// processEach is the scalar reference: one Process call per packet.
func processEach(sw *Switch, pkts []*packet.Packet) []p4.Verdict {
	out := make([]p4.Verdict, len(pkts))
	for i, pkt := range pkts {
		out[i] = sw.Process(pkt)
	}
	return out
}

// TestFastPathMatchesReferenceEngine runs the same trace through the
// burst engine and through one Process call per packet on twin switches:
// verdicts, run stats, detector counters, and digest accounting must be
// identical, at one worker and across worker counts.
func TestFastPathMatchesReferenceEngine(t *testing.T) {
	rs := randRuleSet(17)
	pkts := tracePackets(1200, 29)

	mk := func() *Switch {
		sw := mkSwitch(t)
		if _, err := sw.InstallRuleSet(rs, p4.Action{Type: p4.ActionDigest}); err != nil {
			t.Fatal(err)
		}
		return sw
	}

	ref := mk()
	want := processEach(ref, pkts)

	fast := mk()
	got := fast.ProcessBatch(pkts)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pkt %d: fast %+v != reference %+v", i, got[i], want[i])
		}
	}
	fs, rs2 := fast.Stats(), ref.Stats()
	fs.Elapsed, rs2.Elapsed = 0, 0
	if fs != rs2 {
		t.Fatalf("run stats diverged: fast %+v ref %+v", fs, rs2)
	}
	fd, rd := mustDetectorStats(t, fast), mustDetectorStats(t, ref)
	if fd != rd {
		t.Fatalf("detector stats diverged: fast %+v ref %+v", fd, rd)
	}
	fq, rq := fast.DigestQueueStats(), ref.DigestQueueStats()
	if fq != rq {
		t.Fatalf("digest accounting diverged: fast %+v ref %+v", fq, rq)
	}

	for _, workers := range []int{1, 2, 4} {
		sw := mk()
		verdicts := sw.ProcessBatchParallel(pkts, workers)
		for i := range want {
			if verdicts[i] != want[i] {
				t.Fatalf("workers=%d pkt %d: fast %+v != reference %+v", workers, i, verdicts[i], want[i])
			}
		}
	}
}

func mustDetectorStats(t *testing.T, sw *Switch) p4.Stats {
	t.Helper()
	st, err := sw.DetectorStats()
	if err != nil {
		t.Fatal(err)
	}
	st.Name = ""
	return st
}

// TestFastPathAgreesUnderChurn alternates detector reprogramming with
// forwarding bursts: after every change, fast and reference verdicts
// must still agree (the flow cache's generation tag must never serve a
// stale entry).
func TestFastPathAgreesUnderChurn(t *testing.T) {
	pkts := tracePackets(300, 31)
	fast := mkSwitch(t)
	ref := mkSwitch(t)
	for round := 0; round < 6; round++ {
		rs := randRuleSet(int64(100 + round))
		for _, sw := range []*Switch{fast, ref} {
			if _, err := sw.InstallRuleSet(rs, p4.Action{Type: p4.ActionAllow}); err != nil {
				t.Fatal(err)
			}
		}
		if round%2 == 1 {
			for _, sw := range []*Switch{fast, ref} {
				if _, err := sw.InsertDetectorEntry(p4.Entry{
					Priority: 999, Lo: []byte{0, 0, 0}, Hi: []byte{63, 255, 255},
					Action: p4.Action{Type: p4.ActionDrop, Class: 2},
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := processEach(ref, pkts)
		got := fast.ProcessBatch(pkts)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d pkt %d: fast %+v != reference %+v", round, i, got[i], want[i])
			}
		}
	}
}

// TestSteadyStateForwardingZeroAlloc is the allocation gate for the
// burst engine: once the pooled arena is warm, forwarding whole bursts
// must not allocate at all. Run goes through the pool, which is safe to
// gate on: the pool only sheds an arena at a collection, and a loop that
// allocates nothing triggers none.
func TestSteadyStateForwardingZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds arenas at random under -race")
	}
	sw := mkSwitch(t)
	rs := randRuleSet(23)
	if _, err := sw.InstallRuleSet(rs, p4.Action{Type: p4.ActionAllow}); err != nil {
		t.Fatal(err)
	}
	pkts := tracePackets(256, 37)
	// Warm-up: sizes the arena buffers and populates the flow cache.
	sw.Run(pkts)
	allocs := testing.AllocsPerRun(50, func() {
		sw.Run(pkts)
	})
	if allocs != 0 {
		t.Fatalf("steady-state batch loop allocates %.2f/op, want 0", allocs)
	}
}

// TestProcessSinglePacketZeroAlloc pins the satellite fix: the
// single-packet path used to materialize link-layer header structs for
// parse acceptance, which on BLE copied the PDU payload per packet. The
// descriptor walk made Process allocation-free.
func TestProcessSinglePacketZeroAlloc(t *testing.T) {
	for _, link := range []packet.LinkType{packet.LinkEthernet, packet.LinkBLE} {
		sw, err := New("alloc", link)
		if err != nil {
			t.Fatal(err)
		}
		rs := rules.NewRuleSet([]int{0}, 0)
		rs.Add(rules.Rule{Priority: 1, Class: 1, Preds: []rules.BytePredicate{{Offset: 0, Lo: 250, Hi: 255}}})
		if _, err := sw.InstallRuleSet(rs, p4.Action{Type: p4.ActionAllow}); err != nil {
			t.Fatal(err)
		}
		var frame []byte
		if link == packet.LinkBLE {
			ble := packet.BLELinkLayer{AccessAddress: packet.BLEAdvAccessAddress, PDUType: packet.BLEAdvInd,
				Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
			frame = ble.Marshal(nil)
		} else {
			eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
			ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP}
			udp := packet.UDP{SrcPort: 1, DstPort: 5683}
			frame = udp.Marshal(ip.Marshal(eth.Marshal(nil), packet.UDPLen), 0)
		}
		pkt := &packet.Packet{Link: link, Bytes: frame}
		sw.Process(pkt) // warm
		allocs := testing.AllocsPerRun(100, func() { sw.Process(pkt) })
		if allocs != 0 {
			t.Fatalf("link %v: Process allocates %.2f/op, want 0", link, allocs)
		}
	}
}

// TestDisarmedInstrumentsAreInert is the switch-level half of
// dtrace.TestDisarmedIsInert and drift.TestMonitorDisarmContract: explain
// sampling, a tracer and a drift monitor are armed on one switch, seen to
// fire, and disarmed; from then on Process must allocate nothing and
// 10 000 packets must add nothing to the flight recorder, the trace ring
// or the drift sketches. Every packet misses into the digest action, the
// one verdict on which Process consults all three. A count, not a timing:
// a 1 % ns/op gate on this could not be resolved on a shared host.
func TestDisarmedInstrumentsAreInert(t *testing.T) {
	pkts := tracePackets(64, 43)
	// One digest slot: the queue is full after the first miss, so the
	// digest path itself stops appending before allocations are counted.
	sw, err := NewWithDigestCapacity("gw0", packet.LinkEthernet, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.InstallRuleSet(rules.NewRuleSet([]int{0, 3, 7}, 0), p4.Action{Type: p4.ActionDigest}); err != nil {
		t.Fatal(err)
	}
	baseline := drift.NewBuilder([]int{0, 3, 7}, 0)
	for _, pkt := range pkts {
		baseline.Observe(pkt, drift.NoClass, drift.NoResidual)
	}

	fr := telemetry.NewFlightRecorder(16)
	sw.EnableExplainSampling(1, fr, nil)
	tr := dtrace.NewTracer()
	tr.Arm("gw0", 1, 64)
	sw.SetTracer(tr)
	mon := drift.NewMonitor()
	if err := mon.Arm(drift.MonitorConfig{Baseline: baseline.Profile()}); err != nil {
		t.Fatal(err)
	}
	sw.SetDriftMonitor(mon)
	da := mon.Armed()

	if v := sw.Process(pkts[0]); !v.Digested {
		t.Fatalf("packet did not take the digest action: %+v", v)
	}
	sw.Tracer().StartTrace(dtrace.StageDigestWait).End()
	explained, observed := fr.Total(), da.ShardObservations(0)
	if explained != 1 || observed != 1 || tr.Total() != 1 {
		t.Fatalf("armed instruments did not fire: %d explains, %d drift observations, %d spans",
			explained, observed, tr.Total())
	}

	sw.DisableExplainSampling()
	tr.Disarm()
	mon.Disarm()

	if allocs := testing.AllocsPerRun(100, func() { sw.Process(pkts[1]) }); allocs != 0 {
		t.Fatalf("Process with disarmed instruments allocates %.2f/op, want 0", allocs)
	}
	for i := 0; i < 10000; i++ {
		sw.Process(pkts[i%len(pkts)])
	}
	sw.Tracer().StartTrace(dtrace.StageDigestWait).End()
	if fr.Total() != explained {
		t.Fatalf("flight recorder grew from %d to %d events while disarmed", explained, fr.Total())
	}
	if got := da.ShardObservations(0); got != observed {
		t.Fatalf("drift sketches grew from %d to %d observations while disarmed", observed, got)
	}
	if tr.Total() != 0 || tr.Spans() != nil {
		t.Fatalf("disarmed tracer holds %d spans", tr.Total())
	}
}

// TestScalarAndBurstAgreeWithSideChannelsArmed arms everything the two
// forwarding paths feed besides verdicts — the rate guard, explain
// sampling (every 3rd packet, captured), a drift monitor — and holds
// ProcessBatch and ProcessBatchParallel to the Process loop on all of
// it. With several workers the guard's observation order is undefined,
// so only the totals are compared there.
func TestScalarAndBurstAgreeWithSideChannelsArmed(t *testing.T) {
	rs := randRuleSet(17)
	pkts := tracePackets(900, 43)
	for i := 3; i < len(pkts); i += 3 {
		// One heavy hitter for the guard to cut off; identical frames, so
		// the totals do not depend on which of them a worker sees first.
		pkts[i].Bytes = pkts[0].Bytes
	}
	baseline := drift.NewBuilder(rs.Offsets, 0)
	for _, pkt := range pkts[:64] {
		baseline.Observe(pkt, drift.NoClass, drift.NoResidual)
	}

	type outcome struct {
		verdicts []p4.Verdict
		stats    RunStats
		sampled  []string // match key + live verdict of each sampled packet
		observed uint64   // packets the drift monitor saw
	}
	run := func(forward func(*Switch) []p4.Verdict) outcome {
		sw := mkSwitch(t)
		if _, err := sw.InstallRuleSet(rs, p4.Action{Type: p4.ActionDigest}); err != nil {
			t.Fatal(err)
		}
		if err := sw.EnableRateGuard([]p4.FieldSpec{{Name: "b0", Offset: 0, Width: 1}}, 20, time.Hour); err != nil {
			t.Fatal(err)
		}
		var o outcome
		var mu sync.Mutex
		sw.EnableExplainSampling(3, nil, func(es ExplainSample) {
			if !es.Agrees {
				t.Errorf("sampled explain disagrees with lookup: %+v", es)
			}
			mu.Lock()
			o.sampled = append(o.sampled, fmt.Sprintf("%x %+v", es.Tables[0].Key, es.LookupVerdict))
			mu.Unlock()
		})
		mon := drift.NewMonitor()
		if err := mon.Arm(drift.MonitorConfig{Baseline: baseline.Profile()}); err != nil {
			t.Fatal(err)
		}
		sw.SetDriftMonitor(mon)
		o.verdicts = forward(sw)
		o.stats = sw.Stats()
		o.stats.Elapsed = 0
		o.observed = mon.Armed().ShardObservations(0)
		return o
	}

	want := run(func(sw *Switch) []p4.Verdict { return processEach(sw, pkts) })
	if want.stats.RateDropped == 0 || want.stats.Digested == 0 || len(want.sampled) == 0 {
		t.Fatalf("trace does not exercise the side channels: %+v, %d sampled", want.stats, len(want.sampled))
	}
	if want.observed != uint64(want.stats.Digested) {
		t.Fatalf("drift monitor saw %d packets, %d were digested", want.observed, want.stats.Digested)
	}
	for name, forward := range map[string]func(*Switch) []p4.Verdict{
		"ProcessBatch":            func(sw *Switch) []p4.Verdict { return sw.ProcessBatch(pkts) },
		"ProcessBatchParallel(1)": func(sw *Switch) []p4.Verdict { return sw.ProcessBatchParallel(pkts, 1) },
	} {
		got := run(forward)
		if !slices.Equal(got.verdicts, want.verdicts) {
			t.Fatalf("%s: verdicts differ from the Process loop", name)
		}
		if got.stats != want.stats || got.observed != want.observed {
			t.Fatalf("%s: stats %+v observed %d, Process loop %+v observed %d",
				name, got.stats, got.observed, want.stats, want.observed)
		}
		if !slices.Equal(got.sampled, want.sampled) {
			t.Fatalf("%s: sampled sequence differs from the Process loop\n got %v\nwant %v", name, got.sampled, want.sampled)
		}
	}
	for _, workers := range []int{2, 4} {
		got := run(func(sw *Switch) []p4.Verdict { return sw.ProcessBatchParallel(pkts, workers) })
		if got.stats != want.stats || got.observed != want.observed || len(got.sampled) != len(want.sampled) {
			t.Fatalf("workers=%d: stats %+v observed %d sampled %d, Process loop %+v observed %d sampled %d", workers,
				got.stats, got.observed, len(got.sampled), want.stats, want.observed, len(want.sampled))
		}
	}
}
