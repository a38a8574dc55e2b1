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
// (one table snapshot and one clock pair per burst).
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
