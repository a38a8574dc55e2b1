package p4guard_test

// Benchmark harness: one benchmark per reconstructed table/figure of the
// paper's evaluation (BenchmarkRT*/BenchmarkRF*), each regenerating its
// rows at smoke scale through the experiments registry, plus
// micro-benchmarks of the hot paths (data-plane lookup, rule compilation,
// training stages).
//
// Regenerate every table/figure at full scale with:
//
//	go run ./cmd/experiments

import (
	"fmt"
	"math/rand"
	"testing"

	"p4guard"

	"p4guard/internal/experiments"
	"p4guard/internal/fieldsel"
	"p4guard/internal/p4"
	"p4guard/internal/packet"
	"p4guard/internal/rules"
	"p4guard/internal/switchsim"
	"p4guard/internal/telemetry"
)

// benchExperiment runs one registered experiment end to end per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, experiments.Config{
			Seed: int64(i + 1), Quick: true, Packets: 600,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Lines) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkRT1Datasets(b *testing.B)     { benchExperiment(b, "R-T1") }
func BenchmarkRT2Accuracy(b *testing.B)     { benchExperiment(b, "R-T2") }
func BenchmarkRF1FieldSweep(b *testing.B)   { benchExperiment(b, "R-F1") }
func BenchmarkRF2Selectors(b *testing.B)    { benchExperiment(b, "R-F2") }
func BenchmarkRF3RuleCost(b *testing.B)     { benchExperiment(b, "R-F3") }
func BenchmarkRF4Throughput(b *testing.B)   { benchExperiment(b, "R-F4") }
func BenchmarkRF5Universality(b *testing.B) { benchExperiment(b, "R-F5") }
func BenchmarkRF6Reactive(b *testing.B)     { benchExperiment(b, "R-F6") }
func BenchmarkRT3TrainCost(b *testing.B)    { benchExperiment(b, "R-T3") }
func BenchmarkRF7Fidelity(b *testing.B)     { benchExperiment(b, "R-F7") }
func BenchmarkRF8TCAMBudget(b *testing.B)   { benchExperiment(b, "R-F8") }
func BenchmarkRF9Adaptation(b *testing.B)   { benchExperiment(b, "R-F9") }
func BenchmarkRT4MultiClass(b *testing.B)   { benchExperiment(b, "R-T4") }
func BenchmarkRF10Hybrid(b *testing.B)      { benchExperiment(b, "R-F10") }

// benchPipelineAndTrace trains one pipeline and returns it with test
// packets, shared by the micro-benchmarks.
func benchPipelineAndTrace(b *testing.B) (*p4guard.Pipeline, []*packet.Packet) {
	b.Helper()
	ds, err := p4guard.GenerateTrace("wifi-mqtt", p4guard.TraceConfig{Seed: 4, Packets: 1200})
	if err != nil {
		b.Fatal(err)
	}
	train, test, err := ds.Split(0.7)
	if err != nil {
		b.Fatal(err)
	}
	pipe, err := p4guard.Train(train, p4guard.Config{Seed: 4, NumFields: 6})
	if err != nil {
		b.Fatal(err)
	}
	pkts := make([]*packet.Packet, test.Len())
	for i, s := range test.Samples {
		pkts[i] = s.Pkt
	}
	return pipe, pkts
}

// BenchmarkDataPlaneLookup measures per-packet processing with installed
// rules — the paper's fast path.
func BenchmarkDataPlaneLookup(b *testing.B) {
	pipe, pkts := benchPipelineAndTrace(b)
	sw, err := switchsim.New("bench", packet.LinkEthernet)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sw.InstallRuleSet(pipe.RuleSet(), p4.Action{Type: p4.ActionAllow}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Process(pkts[i%len(pkts)])
	}
}

// BenchmarkDataPlaneLookupInstrumented is BenchmarkDataPlaneLookup with
// full telemetry registered (sampled latency histogram armed, counter
// callbacks wired). scripts/ci.sh fails if this regresses more than 10%
// over the uninstrumented benchmark — the guard that keeps observability
// off the hot path.
func BenchmarkDataPlaneLookupInstrumented(b *testing.B) {
	pipe, pkts := benchPipelineAndTrace(b)
	sw, err := switchsim.New("bench", packet.LinkEthernet)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sw.InstallRuleSet(pipe.RuleSet(), p4.Action{Type: p4.ActionAllow}); err != nil {
		b.Fatal(err)
	}
	sw.RegisterTelemetry(telemetry.NewRegistry())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Process(pkts[i%len(pkts)])
	}
}

// BenchmarkSlowPathClassify measures per-packet MLP classification — the
// controller path a digested packet takes.
func BenchmarkSlowPathClassify(b *testing.B) {
	pipe, pkts := benchPipelineAndTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.ClassifySlowPath(pkts[i%len(pkts)])
	}
}

// BenchmarkRuleCompile measures tree→rules→ternary compilation.
func BenchmarkRuleCompile(b *testing.B) {
	pipe, _ := benchPipelineAndTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := pipe.Tree().CompileRuleSet(pipe.Offsets, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rs.CompileTernary(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTwoStageTrain measures full pipeline training on a small
// trace. perfbench reports the same stage at benchmark scale as
// p4guard.train_s.
func BenchmarkTwoStageTrain(b *testing.B) {
	ds, err := p4guard.GenerateTrace("wifi-mqtt", p4guard.TraceConfig{Seed: 5, Packets: 600})
	if err != nil {
		b.Fatal(err)
	}
	train, _, err := ds.Split(0.7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p4guard.Train(train, p4guard.Config{Seed: int64(i), NumFields: 6, MLPEpochs: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmoothGradSelect measures stage-1 saliency attribution (MLP
// training plus five SmoothGrad passes); fieldsel.select_s in perfbench.
func BenchmarkSmoothGradSelect(b *testing.B) {
	ds, err := p4guard.GenerateTrace("wifi-mqtt", p4guard.TraceConfig{Seed: 7, Packets: 600})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel := &fieldsel.SaliencySelector{Seed: int64(i), Epochs: 10}
		if _, err := sel.Select(ds, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGeneration measures the workload generator.
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds, err := p4guard.GenerateTrace("wifi-coap", p4guard.TraceConfig{Seed: int64(i), Packets: 2000})
		if err != nil {
			b.Fatal(err)
		}
		if ds.Len() == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkRuleSetClassify measures raw rule-set classification without
// the switch wrapper (pure match semantics).
func BenchmarkRuleSetClassify(b *testing.B) {
	pipe, pkts := benchPipelineAndTrace(b)
	rs := pipe.RuleSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Classify(pkts[i%len(pkts)])
	}
}

// BenchmarkCompiledMatcherClassify measures the unified bitset matcher —
// the engine behind Predict, the detector table's range index, and the
// controller's deployment mirror. Compare with BenchmarkRuleSetClassify
// (the legacy linear scan kept as the reference oracle).
func BenchmarkCompiledMatcherClassify(b *testing.B) {
	pipe, pkts := benchPipelineAndTrace(b)
	m := pipe.Matcher()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Classify(pkts[i%len(pkts)])
	}
}

// benchSwitchAndBurst prepares a programmed switch and a packet burst for
// the engine throughput benchmarks.
func benchSwitchAndBurst(b *testing.B) (*switchsim.Switch, []*packet.Packet) {
	b.Helper()
	pipe, pkts := benchPipelineAndTrace(b)
	sw, err := switchsim.New("bench-run", packet.LinkEthernet)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sw.InstallRuleSet(pipe.RuleSet(), p4.Action{Type: p4.ActionAllow}); err != nil {
		b.Fatal(err)
	}
	return sw, pkts
}

// BenchmarkSwitchRunSequential measures single-worker burst forwarding
// (one lookup-state load and one clock pair per burst).
func BenchmarkSwitchRunSequential(b *testing.B) {
	sw, pkts := benchSwitchAndBurst(b)
	b.ResetTimer()
	var st switchsim.RunStats
	for i := 0; i < b.N; i++ {
		st = sw.Run(pkts)
	}
	b.ReportMetric(st.PPS(), "pps")
	b.ReportMetric(float64(len(pkts)), "pkts/burst")
}

// ppsKeyOffsets are the detector key offsets used by the PPS matrix.
// They land in the Ethernet MAC fields, which ppsFrames randomizes, so
// bursts mix table hits and misses like learned detectors do.
var ppsKeyOffsets = []int{0, 3, 7, 11}

// ppsFrames builds a burst of parseable Ethernet/IPv4/UDP frames padded
// to the requested wire size, with randomized addresses at the key
// offsets.
func ppsFrames(b *testing.B, size, n int, seed int64) []*packet.Packet {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
		rng.Read(eth.Dst[:])
		rng.Read(eth.Src[:])
		ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP}
		udp := packet.UDP{SrcPort: uint16(rng.Intn(65536)), DstPort: 5683}
		f := udp.Marshal(ip.Marshal(eth.Marshal(nil), packet.UDPLen), 0)
		if len(f) < size {
			pad := make([]byte, size-len(f))
			rng.Read(pad)
			f = append(f, pad...)
		}
		pkts[i] = &packet.Packet{Link: packet.LinkEthernet, Bytes: f}
	}
	return pkts
}

// ppsRuleSet builds a detector table with the requested entry count over
// the PPS key offsets.
func ppsRuleSet(entries int, seed int64) *rules.RuleSet {
	rng := rand.New(rand.NewSource(seed))
	rs := rules.NewRuleSet(ppsKeyOffsets, 0)
	for i := 0; i < entries; i++ {
		var preds []rules.BytePredicate
		for _, off := range ppsKeyOffsets {
			a, bb := byte(rng.Intn(256)), byte(rng.Intn(256))
			if a > bb {
				a, bb = bb, a
			}
			preds = append(preds, rules.BytePredicate{Offset: off, Lo: a, Hi: bb})
		}
		rs.Add(rules.Rule{Priority: rng.Intn(8), Class: rng.Intn(3), Preds: preds})
	}
	return rs
}

// BenchmarkDataPlanePPS is the wire-speed matrix: frame sizes
// 64/512/1500 × small (16-entry) and large (1024-entry) detector tables ×
// the scalar path (one Switch.Process per packet) vs the burst engine
// (Switch.Run). The recorded numbers for the same two paths are
// switchsim.perpacket_pps and switchsim.processbatch_pps from
// `bash perfbench/run.sh --workload <hot|cold> --trace 1`.
func BenchmarkDataPlanePPS(b *testing.B) {
	const burst = 512
	tables := []struct {
		name    string
		entries int
	}{{"small", 16}, {"large", 1024}}
	for _, frameSize := range []int{64, 512, 1500} {
		for _, tbl := range tables {
			rs := ppsRuleSet(tbl.entries, int64(tbl.entries))
			pkts := ppsFrames(b, frameSize, burst, int64(frameSize))
			for _, mode := range []string{"perpacket", "batch"} {
				name := fmt.Sprintf("frame=%d/table=%s/mode=%s", frameSize, tbl.name, mode)
				b.Run(name, func(b *testing.B) {
					sw, err := switchsim.New("pps", packet.LinkEthernet)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := sw.InstallRuleSet(rs, p4.Action{Type: p4.ActionAllow}); err != nil {
						b.Fatal(err)
					}
					if mode == "perpacket" {
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							for _, pkt := range pkts {
								sw.Process(pkt)
							}
						}
					} else {
						sw.Run(pkts) // warm the pooled arena and flow cache
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							sw.Run(pkts)
						}
					}
					b.StopTimer()
					b.ReportAllocs()
					b.ReportMetric(float64(b.N*burst)/b.Elapsed().Seconds(), "pps")
				})
			}
		}
	}
}

// The forwarding rounds of the repository benchmark's two workloads, built
// here without it. A round is flows distinct Ethernet/IPv4/UDP flows,
// repeated to packets frames in shuffled order. The cold round is 65 536
// flows once each, about 22 MB of frames, so it cannot stay resident in
// cache the way the one-burst benchmarks above do; the hot round is 256
// flows of 64 B frames that the flow cache holds, so parse, key gather and
// cache probe do the work.
type roundShape struct {
	flows, rows, misses, packets int
	sizes                        []int // frame sizes, drawn uniformly
	miss                         p4.ActionType
}

var (
	coldShape = roundShape{flows: 65536, rows: 8192, misses: 65536 * 2 / 100, packets: 65536,
		sizes: []int{64, 64, 64, 64, 64, 64, 64, 512, 512, 512, 512, 1500}, miss: p4.ActionDigest}
	hotShape = roundShape{flows: 256, rows: roundRanges, packets: 65536, sizes: []int{64}, miss: p4.ActionAllow}
)

const (
	roundRanges    = 16 // range rows, as a distilled tree emits them
	roundBurst     = 256
	roundPointPrio = 1 << 20 // reactive installs outrank every range row
)

// roundKeyOffsets is the detector key: IPv4 source address and UDP source
// port, so every flow has its own key.
var roundKeyOffsets = []int{26, 27, 28, 29, 34, 35}

// forwardRound builds a detector and one shuffled round of frames. The
// rule set holds roundRanges range rows, each owning a slice of the first
// key byte below 240 and bounding two more, then point rows up to
// shape.rows; the flows are one per point row, shape.misses with a first
// key byte of 240 or more that no row matches, and the rest inside a
// range row.
func forwardRound(b *testing.B, shape roundShape) (*rules.RuleSet, []*packet.Packet) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	rs := rules.NewRuleSet(roundKeyOffsets, 0)
	rs.SetLink(packet.LinkEthernet)
	addRow := func(prio, class int, lo, hi []byte) {
		preds := make([]rules.BytePredicate, len(roundKeyOffsets))
		for i, off := range roundKeyOffsets {
			preds[i] = rules.BytePredicate{Offset: off, Lo: lo[i], Hi: hi[i]}
		}
		rs.Add(rules.Rule{Priority: prio, Class: class, Preds: preds})
	}
	w := len(roundKeyOffsets)
	var ranges [roundRanges][2][]byte
	for i := range ranges {
		lo, hi := make([]byte, w), make([]byte, w)
		for j := range hi {
			hi[j] = 255
		}
		lo[0], hi[0] = byte(i*15), byte(i*15+14)
		for _, j := range rng.Perm(w - 1)[:2] {
			l := rng.Intn(64)
			lo[j+1], hi[j+1] = byte(l), byte(l+128+rng.Intn(64))
		}
		ranges[i] = [2][]byte{lo, hi}
		addRow(roundRanges-i, i%2, lo, hi)
	}
	seen := map[string]bool{}
	keys := make([][]byte, 0, shape.flows)
	add := func(k []byte) bool {
		if seen[string(k)] {
			return false
		}
		seen[string(k)] = true
		keys = append(keys, k)
		return true
	}
	for len(keys) < shape.rows-roundRanges {
		k := make([]byte, w)
		rng.Read(k)
		if add(k) {
			addRow(roundPointPrio, 1, k, k)
		}
	}
	for n := 0; n < shape.misses; {
		k := make([]byte, w)
		rng.Read(k)
		k[0] = 240 + k[0]%16
		if add(k) {
			n++
		}
	}
	for len(keys) < shape.flows {
		r := ranges[rng.Intn(roundRanges)]
		k := make([]byte, w)
		for i := range k {
			k[i] = r[0][i] + byte(rng.Intn(int(r[1][i])-int(r[0][i])+1))
		}
		add(k)
	}
	flows := make([]*packet.Packet, len(keys))
	for i, k := range keys {
		size := shape.sizes[rng.Intn(len(shape.sizes))]
		eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
		rng.Read(eth.Dst[:])
		rng.Read(eth.Src[:])
		ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: [4]byte{k[0], k[1], k[2], k[3]}, Dst: [4]byte{10, 0, 0, 1}}
		udp := packet.UDP{SrcPort: uint16(k[4])<<8 | uint16(k[5]), DstPort: 5683}
		payload := size - 42
		f := udp.Marshal(ip.Marshal(eth.Marshal(make([]byte, 0, size)), packet.UDPLen+payload), payload)
		pad := f[len(f):size]
		rng.Read(pad)
		flows[i] = &packet.Packet{Link: packet.LinkEthernet, Bytes: f[:size]}
	}
	pkts := make([]*packet.Packet, shape.packets)
	for i := range pkts {
		pkts[i] = flows[i%len(flows)]
	}
	rng.Shuffle(len(pkts), func(i, j int) { pkts[i], pkts[j] = pkts[j], pkts[i] })
	return rs, pkts
}

// benchRound forwards one round of shape per op in roundBurst-packet
// bursts through Switch.Run and reports pps. Nothing drains the digest
// queue: warm-up rounds fill it, and from then on every miss is counted
// and dropped, as on a gateway whose controller falls behind (the
// repository benchmark drains 256 of a cold round's ~1 300).
func benchRound(b *testing.B, shape roundShape) {
	rs, pkts := forwardRound(b, shape)
	sw, err := switchsim.New("round", packet.LinkEthernet)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sw.InstallRuleSet(rs, p4.Action{Type: shape.miss}); err != nil {
		b.Fatal(err)
	}
	round := func() (st switchsim.RunStats) {
		for i := 0; i < len(pkts); i += roundBurst {
			d := sw.Run(pkts[i:min(i+roundBurst, len(pkts))])
			st.Digested += d.Digested
			st.ParseFailed += d.ParseFailed
		}
		return st
	}
	want := 0
	if shape.miss == p4.ActionDigest {
		want = shape.misses * shape.packets / shape.flows
	}
	if st := round(); st.Digested != want || st.ParseFailed != 0 {
		b.Fatalf("warm-up round: %d digested, %d parse failures; want %d and 0", st.Digested, st.ParseFailed, want)
	}
	for q := sw.DigestQueueStats(); want > 0 && q.Depth < q.Capacity; q = sw.DigestQueueStats() {
		round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(b.N*len(pkts))/b.Elapsed().Seconds(), "pps")
}

// BenchmarkSwitchRunColdRound forwards the cold round. Unlike
// BenchmarkSwitchRunSequential its frames, Packet structs and flow keys
// do not fit in cache, so it sees what the burst engine does about cache
// misses; the recorded number for the same regime is fwd_pps from
// `bash perfbench/run.sh --workload cold`.
func BenchmarkSwitchRunColdRound(b *testing.B) { benchRound(b, coldShape) }

// BenchmarkSwitchRunHotRound forwards the hot round: every flow matches
// one of the 16 range rows, half of them allow and half drop, and the flow
// cache holds them all. The recorded number for the same regime is fwd_pps
// from `bash perfbench/run.sh --workload hot`.
func BenchmarkSwitchRunHotRound(b *testing.B) { benchRound(b, hotShape) }
