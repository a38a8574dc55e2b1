package switchsim

import (
	"bytes"
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
// identical.
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
	if fd, rd := fast.DetectorStats(), ref.DetectorStats(); fd != rd {
		t.Fatalf("detector stats diverged: fast %+v ref %+v", fd, rd)
	}
	fq, rq := fast.DigestQueueStats(), ref.DigestQueueStats()
	if fq != rq {
		t.Fatalf("digest accounting diverged: fast %+v ref %+v", fq, rq)
	}
}

// TestBurstMatchesProcessOnRuntFrames forwards one burst of frames too
// short for the key, or for any header, through Run and through one
// Process call per packet on twin switches. The key reaches past the
// runts' ends, so the key gather zero-pads them; the burst engine's
// touch pass must skip the empty ones. Run's stats, the verdicts of a
// second, cache-warm pass, the switch and per-row counters and the
// digest order must all be the same on both paths.
func TestBurstMatchesProcessOnRuntFrames(t *testing.T) {
	offsets := []int{0, 12, 13, 26, 34}
	rs := rules.NewRuleSet(offsets, 0)
	row := func(prio, class int, lo, hi []byte) {
		preds := make([]rules.BytePredicate, len(offsets))
		for i, off := range offsets {
			preds[i] = rules.BytePredicate{Offset: off, Lo: lo[i], Hi: hi[i]}
		}
		rs.Add(rules.Rule{Priority: prio, Class: class, Preds: preds})
	}
	row(3, 1, []byte{0, 0, 0, 0, 0}, []byte{0, 0, 0, 0, 0})                  // an all-zero key: empty frames
	row(2, 0, []byte{0, 8, 0, 0, 0}, []byte{255, 8, 0, 255, 255})            // IPv4 frames
	row(1, 2, []byte{128, 0, 0, 0, 0}, []byte{255, 255, 255, 255, 255})      // high first byte
	row(1, 0, []byte{0, 0x86, 0xdd, 0, 0}, []byte{127, 0x86, 0xdd, 255, 99}) // IPv6 EtherType, low port
	rng := rand.New(rand.NewSource(5))
	frame := func(etherType uint16, n int) []byte {
		eth := packet.Ethernet{EtherType: etherType}
		rng.Read(eth.Src[:])
		rng.Read(eth.Dst[:])
		f := eth.Marshal(nil)
		if etherType == packet.EtherTypeIPv4 {
			ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP}
			rng.Read(ip.Src[:])
			udp := packet.UDP{SrcPort: uint16(rng.Intn(1 << 16)), DstPort: 5683}
			f = udp.Marshal(ip.Marshal(f, packet.UDPLen), 0)
		}
		for len(f) < n {
			f = append(f, byte(rng.Intn(256)))
		}
		return f
	}
	var pkts []*packet.Packet
	for i := 0; i < 96; i++ {
		var b []byte
		switch i % 8 {
		case 0: // nil Bytes
		case 1:
			b = []byte{}
		case 2:
			b = []byte{byte(rng.Intn(2) * 200)}
		case 3:
			b = frame(packet.EtherTypeIPv4, 64)[:packet.EthernetLen-1]
		case 4:
			b = frame(0x86dd, 64)
		case 5:
			b = frame(packet.EtherTypeARP, 20) // too short for an ARP header
		default:
			b = frame(packet.EtherTypeIPv4, 64+rng.Intn(3)*448)
		}
		pkts = append(pkts, &packet.Packet{Link: packet.LinkEthernet, Bytes: b, Time: time.Duration(i) * time.Microsecond})
	}

	mk := func() *Switch {
		sw := mkSwitch(t)
		if _, err := sw.InstallRuleSet(rs, p4.Action{Type: p4.ActionDigest}); err != nil {
			t.Fatal(err)
		}
		return sw
	}
	ref, burst := mk(), mk()
	processEach(ref, pkts)
	wantRun := ref.Stats()
	want := processEach(ref, pkts)
	gotRun := burst.Run(pkts)
	got := burst.ProcessBatch(pkts)

	wantRun.Elapsed, gotRun.Elapsed = 0, 0
	if gotRun != wantRun {
		t.Fatalf("Run stats %+v, Process loop %+v", gotRun, wantRun)
	}
	if wantRun.ParseFailed == 0 || wantRun.Digested == 0 || wantRun.Dropped == 0 {
		t.Fatalf("burst does not exercise parse failures, digests and drops: %+v", wantRun)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pkt %d (%d bytes): burst %+v != Process %+v", i, len(pkts[i].Bytes), got[i], want[i])
		}
	}
	bs, rst := burst.Stats(), ref.Stats()
	bs.Elapsed, rst.Elapsed = 0, 0
	if bs != rst {
		t.Fatalf("switch stats: burst %+v, Process %+v", bs, rst)
	}
	if bd, rd := burst.DetectorStats(), ref.DetectorStats(); bd != rd {
		t.Fatalf("detector stats: burst %+v, Process %+v", bd, rd)
	}
	if be, re := burst.DetectorEntrySnapshots(), ref.DetectorEntrySnapshots(); !slices.Equal(be, re) {
		t.Fatalf("per-row counters: burst %+v, Process %+v", be, re)
	}
	bq, rq := burst.DrainDigests(0), ref.DrainDigests(0)
	if len(bq) != len(rq) || len(bq) == 0 {
		t.Fatalf("digests: burst queued %d, Process %d", len(bq), len(rq))
	}
	for i := range bq {
		if !bytes.Equal(bq[i].Key, rq[i].Key) || !slices.Equal(bq[i].Offsets, rq[i].Offsets) {
			t.Fatalf("digest %d: burst queued %v@%v, Process %v@%v", i, bq[i].Key, bq[i].Offsets, rq[i].Key, rq[i].Offsets)
		}
	}
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

// missMix is a detector rule set that forwards frames whose byte 0 is
// below 248: over random frames, about 3 % miss into the table's default.
func missMix() *rules.RuleSet {
	rs := rules.NewRuleSet([]int{0, 3, 7}, 0)
	rs.Add(rules.Rule{Priority: 1, Class: 0, Preds: []rules.BytePredicate{{Offset: 0, Lo: 0, Hi: 247}}})
	return rs
}

// TestDigestingBurstZeroAlloc is the allocation gate for the digest
// path: with a digest-on-miss default and a few percent of the traffic
// missing, a burst copies its misses' keys into the queue's storage and
// allocates nothing once that storage has grown — with a drift monitor
// armed too, whose sketch input the switch gathers on the stack. The
// queue takes every key (nothing dropped), so the gate is on the append,
// not on an overflow that skips it.
func TestDigestingBurstZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds arenas at random under -race")
	}
	rs := missMix()
	pkts := tracePackets(256, 47)
	baseline := drift.NewBuilder(rs.Offsets, 0)
	for _, pkt := range pkts {
		baseline.Observe(rules.ExtractKey(pkt, rs.Offsets), drift.NoClass, drift.NoResidual)
	}
	for _, armed := range []bool{false, true} {
		sw := mkSwitch(t)
		if _, err := sw.InstallRuleSet(rs, p4.Action{Type: p4.ActionDigest}); err != nil {
			t.Fatal(err)
		}
		if armed {
			// Scoring snapshots a profile every ScoreEvery observations: the
			// monitor's periodic cost, held off here to gate the per-packet one.
			mon := drift.NewMonitor()
			if err := mon.Arm(drift.MonitorConfig{Baseline: baseline.Profile(), MinObservations: 1 << 30}); err != nil {
				t.Fatal(err)
			}
			sw.SetDriftMonitor(mon)
		}
		misses := sw.Run(pkts).Digested
		if misses == 0 || misses*10 > len(pkts) {
			t.Fatalf("%d of %d packets miss, want a few percent", misses, len(pkts))
		}
		for i := 0; i < 60; i++ { // the queue's storage grows past what the gate queues
			sw.Run(pkts)
		}
		sw.DrainDigests(0)
		if allocs := testing.AllocsPerRun(50, func() { sw.Run(pkts) }); allocs != 0 {
			t.Fatalf("drift armed %v: a burst with %d misses allocates %.2f/op, want 0", armed, misses, allocs)
		}
		if st := sw.DigestQueueStats(); st.Depth != 51*misses || st.Dropped != 0 {
			t.Fatalf("drift armed %v: the gated bursts did not queue their keys: %+v", armed, st)
		}
	}
}

// TestQueuedDigestOutlivesItsFrame: a digest is the key the lookup
// gathered, copied into the queue, so a caller that reuses a frame's
// buffer after forwarding it — as a receive ring does — leaves the queued
// digest as it was, on Process and on Run alike.
func TestQueuedDigestOutlivesItsFrame(t *testing.T) {
	rs := missMix()
	for name, forward := range map[string]func(*Switch, []*packet.Packet){
		"Process": func(sw *Switch, pkts []*packet.Packet) { processEach(sw, pkts) },
		"Run":     func(sw *Switch, pkts []*packet.Packet) { sw.Run(pkts) },
	} {
		sw := mkSwitch(t)
		if _, err := sw.InstallRuleSet(rs, p4.Action{Type: p4.ActionDigest}); err != nil {
			t.Fatal(err)
		}
		pkts := tracePackets(256, 47)
		var want [][]byte
		for _, pkt := range pkts {
			if pkt.Bytes[0] >= 248 {
				want = append(want, rules.ExtractKey(pkt, rs.Offsets))
			}
		}
		forward(sw, pkts)
		for _, pkt := range pkts {
			for i := range pkt.Bytes {
				pkt.Bytes[i] = ^pkt.Bytes[i]
			}
		}
		ds := sw.DrainDigests(0)
		if len(ds) != len(want) || len(ds) == 0 {
			t.Fatalf("%s: %d digests, want %d", name, len(ds), len(want))
		}
		for i, d := range ds {
			if !bytes.Equal(d.Key, want[i]) || !slices.Equal(d.Offsets, rs.Offsets) {
				t.Fatalf("%s: digest %d reads %v@%v after its frame was rewritten, want %v@%v", name, i, d.Key, d.Offsets, want[i], rs.Offsets)
			}
		}
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

// TestArmedRateGuardAllocatesNothing: the rate guard hashes its key
// straight from the frame into a fixed sketch, so arming it keeps both
// forwarding paths allocation-free. The threshold is never reached, so
// every packet also takes the pipeline.
func TestArmedRateGuardAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds arenas at random under -race")
	}
	sw := mkSwitch(t)
	if _, err := sw.InstallRuleSet(randRuleSet(23), p4.Action{Type: p4.ActionAllow}); err != nil {
		t.Fatal(err)
	}
	if err := sw.EnableRateGuard(nil, 1<<40, time.Hour); err != nil {
		t.Fatal(err)
	}
	pkts := tracePackets(64, 41)
	sw.Run(pkts) // warm the arena and the flow cache
	if allocs := testing.AllocsPerRun(50, func() { sw.Run(pkts) }); allocs != 0 {
		t.Fatalf("Run of %d packets with the guard armed allocates %.2f/op, want 0", len(pkts), allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { sw.Process(pkts[0]) }); allocs != 0 {
		t.Fatalf("Process with the guard armed allocates %.2f/op, want 0", allocs)
	}
	if st := sw.Stats(); st.RateDropped != 0 || st.Allowed+st.Dropped != st.Packets {
		t.Fatalf("guard acted below its threshold: %+v", st)
	}
}

// TestBurstSamplesExplainTheGenerationTheyRead: the sink reprograms the
// switch on its first sample, in the middle of a burst that has already
// looked up every packet against the old rules. Every sample must still
// be explained against the generation the burst read, and agree.
func TestBurstSamplesExplainTheGenerationTheyRead(t *testing.T) {
	sw := mkSwitch(t)
	allow := p4.Action{Type: p4.ActionAllow}
	if _, err := sw.InstallRuleSet(dropHighByte0(), allow); err != nil {
		t.Fatal(err)
	}
	var samples, disagree int
	sw.EnableExplainSampling(1, nil, func(es ExplainSample) {
		if samples++; samples == 1 {
			if _, err := sw.InstallRuleSet(rules.NewRuleSet([]int{0}, 0), allow); err != nil {
				t.Error(err)
			}
		}
		if !es.Agrees || es.Verdict.Allowed {
			disagree++
		}
	})
	pkts := tracePackets(64, 47)
	for _, pkt := range pkts {
		pkt.Bytes[0] = 200
	}
	if st := sw.Run(pkts); st.Dropped != len(pkts) {
		t.Fatalf("the burst did not read the dropping rules: %+v", st)
	}
	if samples != len(pkts) || disagree != 0 {
		t.Fatalf("%d of %d samples disagree with the verdict their burst returned", disagree, samples)
	}
	if v := sw.Process(pkts[0]); !v.Allowed {
		t.Fatalf("the reprogram did not land: %+v", v)
	}
}

// TestDisarmedInstrumentsAreInert is the switch-level half of
// dtrace.TestDisarmedIsInert and drift.TestMonitorDisarmContract: explain
// sampling, a tracer and a drift monitor are armed on one switch and seen
// to fire; then sampling is disabled and the tracer and monitor are
// replaced by unarmed ones. From then on Process must allocate nothing and
// 10 000 packets must add nothing to the flight recorder, the trace rings
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
		baseline.Observe(rules.ExtractKey(pkt, []int{0, 3, 7}), drift.NoClass, drift.NoResidual)
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
	explained, observed := len(fr.Records()), da.ShardObservations(0)
	if explained != 1 || observed != 1 || tr.Total() != 1 {
		t.Fatalf("armed instruments did not fire: %d explains, %d drift observations, %d spans",
			explained, observed, tr.Total())
	}

	sw.DisableExplainSampling()
	idle := dtrace.NewTracer()
	sw.SetTracer(idle)
	sw.SetDriftMonitor(drift.NewMonitor())

	if allocs := testing.AllocsPerRun(100, func() { sw.Process(pkts[1]) }); allocs != 0 {
		t.Fatalf("Process with disarmed instruments allocates %.2f/op, want 0", allocs)
	}
	for i := 0; i < 10000; i++ {
		sw.Process(pkts[i%len(pkts)])
	}
	sw.Tracer().StartTrace(dtrace.StageDigestWait).End()
	if got := len(fr.Records()); got != explained {
		t.Fatalf("flight recorder grew from %d to %d events while disarmed", explained, got)
	}
	if got := da.ShardObservations(0); got != observed {
		t.Fatalf("drift sketches grew from %d to %d observations while disarmed", observed, got)
	}
	if tr.Total() != 1 || idle.Total() != 0 || idle.Spans() != nil {
		t.Fatalf("tracers hold %d spans (armed) and %d (unarmed), want 1 and 0", tr.Total(), idle.Total())
	}
}

// TestScalarAndBurstAgreeWithSideChannelsArmed arms everything the two
// forwarding paths feed besides verdicts — the rate guard, explain
// sampling (every 3rd packet, captured), a drift monitor — and holds
// ProcessBatch to the Process loop on all of it. Some frames are cut
// short of an Ethernet header, so the parse outcome each sample records
// is held to the same sequence too; and with the guard off and every
// packet sampled, the samples that read ParsedOK false are exactly the
// packets forwarding counted as ParseFailed, on both paths.
func TestScalarAndBurstAgreeWithSideChannelsArmed(t *testing.T) {
	rs := randRuleSet(17)
	pkts := tracePackets(900, 43)
	for i := 3; i < len(pkts); i += 3 {
		// One heavy hitter for the guard to cut off.
		pkts[i].Bytes = pkts[0].Bytes
	}
	for i := 5; i < len(pkts); i += 7 {
		pkts[i].Bytes = pkts[i].Bytes[:packet.EthernetLen-4] // truncated: fails the parse
	}
	baseline := drift.NewBuilder(rs.Offsets, 0)
	for _, pkt := range pkts[:64] {
		baseline.Observe(rules.ExtractKey(pkt, rs.Offsets), drift.NoClass, drift.NoResidual)
	}

	type outcome struct {
		verdicts []p4.Verdict
		stats    RunStats
		sampled  []string // match key, parse outcome and live verdict of each sampled packet
		unparsed int      // samples whose explanation reads ParsedOK false
		observed uint64   // packets the drift monitor saw
	}
	run := func(forward func(*Switch) []p4.Verdict, guard bool, every int) outcome {
		sw := mkSwitch(t)
		if _, err := sw.InstallRuleSet(rs, p4.Action{Type: p4.ActionDigest}); err != nil {
			t.Fatal(err)
		}
		if guard {
			if err := sw.EnableRateGuard([]p4.FieldSpec{{Name: "b0", Offset: 0, Width: 1}}, 20, time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		var o outcome
		var mu sync.Mutex
		sw.EnableExplainSampling(every, nil, func(es ExplainSample) {
			if !es.Agrees {
				t.Errorf("sampled explain disagrees with lookup: %+v", es)
			}
			mu.Lock()
			o.sampled = append(o.sampled, fmt.Sprintf("%x %v %+v", es.Table.Key, es.ParsedOK, es.LookupVerdict))
			if !es.ParsedOK {
				o.unparsed++
			}
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
	scalar := func(sw *Switch) []p4.Verdict { return processEach(sw, pkts) }
	burst := func(sw *Switch) []p4.Verdict { return sw.ProcessBatch(pkts) }

	want := run(scalar, true, 3)
	if want.stats.RateDropped == 0 || want.stats.Digested == 0 || want.stats.ParseFailed == 0 || want.unparsed == 0 {
		t.Fatalf("trace does not exercise the side channels: %+v, %d sampled, %d unparsed", want.stats, len(want.sampled), want.unparsed)
	}
	if want.observed != uint64(want.stats.Digested) {
		t.Fatalf("drift monitor saw %d packets, %d were digested", want.observed, want.stats.Digested)
	}
	got := run(burst, true, 3)
	if !slices.Equal(got.verdicts, want.verdicts) {
		t.Fatal("ProcessBatch: verdicts differ from the Process loop")
	}
	if got.stats != want.stats || got.observed != want.observed {
		t.Fatalf("ProcessBatch: stats %+v observed %d, Process loop %+v observed %d",
			got.stats, got.observed, want.stats, want.observed)
	}
	if !slices.Equal(got.sampled, want.sampled) {
		t.Fatalf("ProcessBatch: sampled sequence differs from the Process loop\n got %v\nwant %v", got.sampled, want.sampled)
	}

	for name, forward := range map[string]func(*Switch) []p4.Verdict{"Process loop": scalar, "ProcessBatch": burst} {
		all := run(forward, false, 1)
		if len(all.sampled) != len(pkts) || all.unparsed != all.stats.ParseFailed {
			t.Fatalf("%s, every packet sampled: %d samples of %d packets, %d read unparsed, forwarding counted %d parse failures",
				name, len(all.sampled), len(pkts), all.unparsed, all.stats.ParseFailed)
		}
	}
}
