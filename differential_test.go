package p4guard

import (
	"bytes"
	"testing"

	"p4guard/internal/p4"
	"p4guard/internal/packet"
	"p4guard/internal/rules"
	"p4guard/internal/switchsim"
	"p4guard/internal/trace"
)

func tracePacketSlice(ds *trace.Dataset) []*packet.Packet {
	pkts := make([]*packet.Packet, len(ds.Samples))
	for i, s := range ds.Samples {
		pkts[i] = s.Pkt
	}
	return pkts
}

// processEach is the scalar reference: one Process call per packet.
func processEach(sw *switchsim.Switch, pkts []*packet.Packet) []p4.Verdict {
	out := make([]p4.Verdict, len(pkts))
	for i, pkt := range pkts {
		out[i] = sw.Process(pkt)
	}
	return out
}

func saveLoad(t *testing.T, pipe *Pipeline) *Pipeline {
	t.Helper()
	var buf bytes.Buffer
	if err := pipe.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPipeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestDifferentialMatchAgreement cross-checks every classification path on
// every scenario: the legacy linear rule scan (the reference oracle), the
// compiled bitset matcher, the TCAM ternary expansion, and the behavioural
// switch's installed detector table must all return the same class for the
// same packet. Any drift between the offline model and the data plane is a
// correctness bug, not a tuning difference.
func TestDifferentialMatchAgreement(t *testing.T) {
	for _, scen := range ScenarioNames() {
		t.Run(scen, func(t *testing.T) {
			ds, err := GenerateTrace(scen, TraceConfig{Seed: 41, Packets: 900})
			if err != nil {
				t.Fatal(err)
			}
			train, test, err := ds.Split(0.6)
			if err != nil {
				t.Fatal(err)
			}
			pipe, err := Train(train, Config{Seed: 3, NumFields: 5, MLPEpochs: 10, TreeDepth: 6})
			if err != nil {
				t.Fatal(err)
			}
			rs := pipe.RuleSet()
			ternary, err := rs.CompileTernary()
			if err != nil {
				t.Fatal(err)
			}

			sw, err := switchsim.New("diff-"+scen, ds.Link)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sw.InstallRuleSet(rs, p4.Action{Type: p4.ActionAllow}); err != nil {
				t.Fatal(err)
			}

			pkts := tracePacketSlice(test)
			verdicts := sw.ProcessBatch(pkts)
			if pf := sw.Stats().ParseFailed; pf != 0 {
				t.Fatalf("%d generated packets failed to parse; differential comparison needs a clean trace", pf)
			}

			matcher := pipe.Matcher()
			for i, pkt := range pkts {
				oracleClass, oracleMatched := rs.ClassifyDetail(pkt)
				gotClass, gotMatched := matcher.Classify(pkt)
				if gotClass != oracleClass || gotMatched != oracleMatched {
					t.Fatalf("pkt %d: compiled matcher (%d,%v) != scan oracle (%d,%v)",
						i, gotClass, gotMatched, oracleClass, oracleMatched)
				}
				if tc := rules.ClassifyTernary(ternary, rs.DefaultClass, rs.Offsets, pkt); tc != oracleClass {
					t.Fatalf("pkt %d: ternary expansion %d != scan oracle %d", i, tc, oracleClass)
				}
				v := verdicts[i]
				if v.Matched != oracleMatched {
					t.Fatalf("pkt %d: switch matched=%v, scan oracle matched=%v", i, v.Matched, oracleMatched)
				}
				// On a table miss the verdict carries the miss action's class
				// (0), which equals the rule set's default class here.
				if v.Class != oracleClass {
					t.Fatalf("pkt %d: switch class %d != scan oracle class %d", i, v.Class, oracleClass)
				}
				wantDrop := rules.ActionForClass(oracleClass) == rules.ActionDrop && oracleMatched
				if !v.Allowed != wantDrop {
					t.Fatalf("pkt %d: switch allowed=%v, policy for class %d wants drop=%v",
						i, v.Allowed, oracleClass, wantDrop)
				}
			}
		})
	}
}

// TestDifferentialFastPathAgreement extends the differential suite to the
// zero-copy batched engine: on every scenario, the burst engine's verdicts
// must be identical to one Switch.Process call per packet, to the offline
// matcher/oracle classification, and to the side-effect-free Explain
// reconstruction — at one worker and across parallel shard counts.
func TestDifferentialFastPathAgreement(t *testing.T) {
	for _, scen := range ScenarioNames() {
		t.Run(scen, func(t *testing.T) {
			ds, err := GenerateTrace(scen, TraceConfig{Seed: 43, Packets: 800})
			if err != nil {
				t.Fatal(err)
			}
			train, test, err := ds.Split(0.6)
			if err != nil {
				t.Fatal(err)
			}
			pipe, err := Train(train, Config{Seed: 3, NumFields: 5, MLPEpochs: 10, TreeDepth: 6})
			if err != nil {
				t.Fatal(err)
			}
			rs := pipe.RuleSet()

			mk := func() *switchsim.Switch {
				sw, err := switchsim.New("fastdiff-"+scen, ds.Link)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sw.InstallRuleSet(rs, p4.Action{Type: p4.ActionAllow}); err != nil {
					t.Fatal(err)
				}
				return sw
			}

			pkts := tracePacketSlice(test)
			want := processEach(mk(), pkts)

			fast := mk()
			got := fast.ProcessBatch(pkts)
			matcher := pipe.Matcher()
			for i, pkt := range pkts {
				if got[i] != want[i] {
					t.Fatalf("pkt %d: fast %+v != per-packet reference %+v", i, got[i], want[i])
				}
				oracleClass, oracleMatched := rs.ClassifyDetail(pkt)
				mc, mm := matcher.Classify(pkt)
				if mc != oracleClass || mm != oracleMatched {
					t.Fatalf("pkt %d: matcher (%d,%v) != oracle (%d,%v)", i, mc, mm, oracleClass, oracleMatched)
				}
				if got[i].Matched != oracleMatched || got[i].Class != oracleClass {
					t.Fatalf("pkt %d: fast verdict %+v disagrees with oracle (%d,%v)",
						i, got[i], oracleClass, oracleMatched)
				}
				if ev := fast.Explain(pkt); ev.Verdict != got[i] {
					t.Fatalf("pkt %d: Explain verdict %+v != fast verdict %+v", i, ev.Verdict, got[i])
				}
			}
		})
	}
}

// TestDifferentialFastPathUnderTernaryChurn interleaves detector
// reprogramming (fresh rule sets and high-priority ternary inserts) with
// forwarding bursts and re-checks fast-vs-reference agreement after every
// mutation, so flow-cache invalidation is exercised on realistic traffic.
func TestDifferentialFastPathUnderTernaryChurn(t *testing.T) {
	ds, err := GenerateTrace("wifi-mqtt", TraceConfig{Seed: 47, Packets: 600})
	if err != nil {
		t.Fatal(err)
	}
	pkts := tracePacketSlice(ds)

	fast, err := switchsim.New("churn-fast", ds.Link)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := switchsim.New("churn-ref", ds.Link)
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 5; round++ {
		sub, _, err := ds.Split(0.5 + 0.08*float64(round))
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := Train(sub, Config{Seed: int64(round + 1), NumFields: 4, MLPEpochs: 6, TreeDepth: 5})
		if err != nil {
			t.Fatal(err)
		}
		rs := pipe.RuleSet()
		for _, sw := range []*switchsim.Switch{fast, ref} {
			if _, err := sw.InstallRuleSet(rs, p4.Action{Type: p4.ActionAllow}); err != nil {
				t.Fatal(err)
			}
		}
		if round%2 == 1 {
			width := len(rs.Offsets)
			lo := make([]byte, width)
			hi := make([]byte, width)
			for i := range hi {
				hi[i] = 0x7f
			}
			for _, sw := range []*switchsim.Switch{fast, ref} {
				if _, err := sw.InsertDetectorEntry(p4.Entry{
					Priority: 1000, Lo: lo, Hi: hi,
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

// TestDifferentialAgreementSurvivesReload runs the matcher/oracle agreement
// check on a pipeline that has been through a Save/Load round trip, so the
// recompiled matcher in LoadPipeline is covered too.
func TestDifferentialAgreementSurvivesReload(t *testing.T) {
	train, test := trainTest(t, "wifi-mqtt", 1000)
	pipe, err := Train(train, Config{Seed: 5, NumFields: 5, MLPEpochs: 10})
	if err != nil {
		t.Fatal(err)
	}
	loaded := saveLoad(t, pipe)
	rs := loaded.RuleSet()
	matcher := loaded.Matcher()
	if matcher == nil {
		t.Fatal("loaded pipeline has no compiled matcher")
	}
	for i, s := range test.Samples {
		wantClass, wantMatched := rs.ClassifyDetail(s.Pkt)
		gotClass, gotMatched := matcher.Classify(s.Pkt)
		if gotClass != wantClass || gotMatched != wantMatched {
			t.Fatalf("pkt %d: reloaded matcher (%d,%v) != scan oracle (%d,%v)",
				i, gotClass, gotMatched, wantClass, wantMatched)
		}
	}
}
