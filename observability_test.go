package p4guard

import (
	"bytes"
	"os"
	"testing"

	"p4guard/internal/metrics"
	"p4guard/internal/nn"
	"p4guard/internal/obs"
	"p4guard/internal/p4"
	"p4guard/internal/switchsim"
	"p4guard/internal/telemetry"
)

// TestDifferentialExplainAgreement is the explain half of the
// differential suite: on every scenario, for every test packet, the
// side-effect-free Explain reconstruction must return exactly the
// verdict the forwarding engine returned, and its winner must carry the
// class the compiled matcher classifies the packet as — the switch and
// the matcher hold the same rows in the same order.
func TestDifferentialExplainAgreement(t *testing.T) {
	for _, scen := range ScenarioNames() {
		t.Run(scen, func(t *testing.T) {
			ds, err := GenerateTrace(scen, TraceConfig{Seed: 43, Packets: 700})
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
			sw, err := switchsim.New("exp-"+scen, ds.Link)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sw.InstallRuleSet(pipe.RuleSet(), p4.Action{Type: p4.ActionAllow}); err != nil {
				t.Fatal(err)
			}
			pkts := tracePacketSlice(test)
			verdicts := sw.ProcessBatch(pkts)
			matcher := pipe.Matcher()
			for i, pkt := range pkts {
				ex := sw.Explain(pkt).Table
				if ex.Verdict != verdicts[i] {
					t.Fatalf("pkt %d: Explain verdict %+v != Process verdict %+v",
						i, ex.Verdict, verdicts[i])
				}
				wantC, wantM := matcher.Classify(pkt)
				if ex.Matched != wantM || (wantM && ex.Winner.Class != wantC) {
					t.Fatalf("pkt %d: Explain winner %+v != Classify (%d,%v)",
						i, ex.Winner, wantC, wantM)
				}
			}
		})
	}
}

// TestExplainSamplingDumpRoundTrip arms live explain sampling on every
// packet into a journal, replays a trace, and feeds the journal read back
// through the offline analyzer: every sampled explanation must agree with
// the live lookup.
func TestExplainSamplingDumpRoundTrip(t *testing.T) {
	train, test := trainTest(t, "wifi-mqtt", 800)
	pipe, err := Train(train, Config{Seed: 9, NumFields: 5, MLPEpochs: 10})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := switchsim.New("dump", train.Link)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.InstallRuleSet(pipe.RuleSet(), p4.Action{Type: p4.ActionAllow}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	j := telemetry.NewJournal(&buf, "run-dump")
	sw.EnableExplainSampling(1, j, nil)
	pkts := tracePacketSlice(test)
	sw.ProcessBatch(pkts)
	sw.DisableExplainSampling()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Kind != switchsim.ExplainRecord {
			t.Fatalf("unexpected record kind %q", rec.Kind)
		}
	}

	rep := obs.SummarizeExplain(recs)
	if rep.Total != len(pkts) || rep.ParseErrors != 0 {
		t.Fatalf("sampled %d of %d packets at every=1", rep.Total, len(pkts))
	}
	if rep.AgreementRate() != 1 {
		t.Fatalf("agreement %v; disagreements: %+v", rep.AgreementRate(), rep.Disagreements)
	}
	if rep.Allowed+rep.Dropped != rep.Total {
		t.Fatalf("verdict split %d+%d != %d", rep.Allowed, rep.Dropped, rep.Total)
	}
	// The journal's memory tail holds the newest samples as values.
	tail := j.Records()
	if len(tail) != min(len(pkts), telemetry.DefaultTail) {
		t.Fatalf("tail holds %d of %d samples", len(tail), len(pkts))
	}
	if s, ok := tail[len(tail)-1].Fields.(switchsim.ExplainSample); !ok || !s.Agrees {
		t.Fatalf("tail record %+v is not an agreeing sample", tail[len(tail)-1])
	}
}

// TestJournalReplayReproducesTrainingRun wires training to a run journal
// exactly as p4guard-train does, then replays the journal through the
// analyzer: the reconstructed epoch-loss curve and final accuracy must
// equal what the live run observed.
func TestJournalReplayReproducesTrainingRun(t *testing.T) {
	ds, err := GenerateTrace("wifi-mqtt", TraceConfig{Seed: 17, Packets: 800})
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := ds.Split(0.7)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/train.jsonl"
	journal, err := telemetry.OpenJournal(path, "run-replay-test")
	if err != nil {
		t.Fatal(err)
	}

	type liveEpoch struct {
		stage string
		es    nn.EpochStats
	}
	var live []liveEpoch
	cfg := Config{Seed: 17, NumFields: 5, MLPEpochs: 12}
	cfg.OnEpoch = func(stage string, es nn.EpochStats) {
		live = append(live, liveEpoch{stage, es})
		if err := journal.Event("epoch", struct {
			Stage string `json:"stage"`
			nn.EpochStats
		}{stage, es}); err != nil {
			t.Error(err)
		}
	}
	if err := journal.Event("run_start", map[string]any{
		"seed": int64(17), "dataset": ds.Name, "fingerprint": ds.Fingerprint(),
		"samples": ds.Len(),
	}); err != nil {
		t.Fatal(err)
	}
	pipe, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	preds, err := pipe.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	conf, err := metrics.FromPredictions(preds, test.BinaryLabels())
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Event("run_end", map[string]any{
		"final_accuracy": conf.Accuracy(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	if len(live) == 0 {
		t.Fatal("training emitted no epoch callbacks")
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := telemetry.ReadJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	runs := obs.SummarizeJournal(recs)
	if len(runs) != 1 || runs[0].RunID != "run-replay-test" {
		t.Fatalf("runs = %+v", runs)
	}
	s := runs[0]
	if s.Fingerprint != ds.Fingerprint() {
		t.Fatalf("fingerprint %q != %q", s.Fingerprint, ds.Fingerprint())
	}
	if len(s.Epochs) != len(live) {
		t.Fatalf("replayed %d epochs, live saw %d", len(s.Epochs), len(live))
	}
	// Both training stages must appear.
	stages := s.Stages()
	if len(stages) != 2 {
		t.Fatalf("stages = %v", stages)
	}
	for _, stage := range stages {
		curve := s.LossCurve(stage)
		i := 0
		for _, le := range live {
			if le.stage != stage {
				continue
			}
			if i >= len(curve) || curve[i] != le.es.Loss {
				t.Fatalf("stage %s epoch %d: replayed loss %v != live %v",
					stage, i, curve[i], le.es.Loss)
			}
			ep := s.StageEpochs(stage)[i]
			if ep.Accuracy != le.es.Accuracy || ep.GradNorm != le.es.GradNorm {
				t.Fatalf("stage %s epoch %d: replayed %+v != live %+v", stage, i, ep, le.es)
			}
			i++
		}
		if i != len(curve) {
			t.Fatalf("stage %s: curve has %d points, live had %d", stage, len(curve), i)
		}
	}
	if s.FinalAccuracy == nil || *s.FinalAccuracy != conf.Accuracy() {
		t.Fatalf("replayed final accuracy %+v != live %v", s.FinalAccuracy, conf.Accuracy())
	}
}
