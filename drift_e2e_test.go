package p4guard_test

// Drift observability end to end: train → persist baseline → replay a
// seeded digest stream through a two-switch, two-shard fleet → the
// drift gauges, journal records, fleet health, and the offline obs
// scorer must all agree — an unshifted stream stays below the threshold
// (and is byte-identical across reruns), a shifted stream crosses it
// everywhere the scoreboard looks. The shifted fleet runs as the daemons
// do with -journal, and its journals alone answer, for one attack miss,
// why it got its verdict, what its round trip cost, and whether the
// model is still valid.

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"p4guard"
	"p4guard/internal/controller"
	"p4guard/internal/drift"
	"p4guard/internal/dtrace"
	"p4guard/internal/obs"
	"p4guard/internal/p4"
	"p4guard/internal/p4rt"
	"p4guard/internal/packet"
	"p4guard/internal/rules"
	"p4guard/internal/switchsim"
	"p4guard/internal/telemetry"
	"p4guard/internal/trace"
)

// driftFleetResult is one fleet replay's observable drift state.
type driftFleetResult struct {
	profileJSON []byte
	fleetScore  float64
	crossings   uint64
	health      controller.FleetHealth
	metrics     string
	journals    []string // journaled runs: the controller's and each switch's
}

// journaled makes a fleet run as p4guard-ctl and p4guard-switch run with
// -journal: reactive installs on, every process traced and recording into
// its own journal in dir. Before the stream, probe — an attack miss of it
// — goes through the first switch alone, explained, so its own digest is
// the one that installs its key there.
type journaled struct {
	dir   string
	probe *packet.Packet
}

// runDriftFleet replays pkts through a fresh 2-switch / 2-shard fleet
// armed with baseline and returns everything the drift scoreboard
// exposes. Packets alternate between the switches so both shards see
// half the stream. A journaled run exports its spans and closes its
// journals before returning.
func runDriftFleet(t *testing.T, pipe *p4guard.Pipeline, link packet.LinkType,
	baseline *drift.Profile, pkts []*packet.Packet, jr *journaled) driftFleetResult {
	t.Helper()

	mon := drift.NewMonitor()
	if err := mon.Arm(drift.MonitorConfig{Baseline: baseline, Shards: 2, ScoreEvery: 16, MinObservations: 128}); err != nil {
		t.Fatal(err)
	}
	var res driftFleetResult
	var journals []*telemetry.Journal
	var tracers []*dtrace.Tracer
	record := func(proc string) (*telemetry.Journal, *dtrace.Tracer) {
		path := filepath.Join(jr.dir, proc+".jsonl")
		j, err := telemetry.OpenJournal(path, "")
		if err != nil {
			t.Fatal(err)
		}
		tr := dtrace.NewTracer()
		tr.Arm(proc, int64(len(tracers)+1), 1<<14)
		res.journals, journals, tracers = append(res.journals, path), append(journals, j), append(tracers, tr)
		return j, tr
	}
	opts := []controller.Option{controller.WithShards(2), controller.WithDrift(mon)}
	if jr != nil {
		j, tr := record("drift-ctl")
		opts = append(opts, controller.WithJournal(j), controller.WithTracer(tr), controller.WithReactive(true))
	}
	reg := telemetry.NewRegistry()
	ctl := controller.New(pipe, controller.Config{Name: "drift-ctl"}, opts...)
	t.Cleanup(func() { _ = ctl.Close() })
	ctl.RegisterFleetTelemetry(reg)

	sws := make([]*switchsim.Switch, 2)
	for i := range sws {
		sw, err := switchsim.NewWithDigestCapacity(fmt.Sprintf("gw-drift%d", i), link, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		if jr != nil {
			_, tr := record(sw.Name)
			sw.SetTracer(tr)
		}
		srv, err := p4rt.Serve("127.0.0.1:0", sw, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		if err := ctl.Connect(context.Background(), srv.Addr()); err != nil {
			t.Fatal(err)
		}
		sws[i] = sw
	}
	if err := ctl.Deploy(context.Background(), pipe.RuleSet(), controller.WithMissAction(p4.Action{Type: p4.ActionDigest})); err != nil {
		t.Fatal(err)
	}

	if jr != nil {
		sws[0].EnableExplainSampling(1, journals[1], nil)
		if v := sws[0].Process(jr.probe); !v.Digested {
			t.Fatalf("probe did not miss: %+v", v)
		}
		sws[0].DisableExplainSampling()
	}
	// Each switch forwards its half as one burst: the burst is matched
	// against one table generation, so reactive installs landing
	// mid-replay cannot change which of its packets miss.
	var halves [2][]*packet.Packet
	for i, pkt := range pkts {
		halves[i%2] = append(halves[i%2], pkt)
	}
	for i, sw := range sws {
		sw.ProcessBatch(halves[i])
	}
	want := 0
	for _, sw := range sws {
		want += sw.Stats().Digested
	}
	if want == 0 {
		t.Fatal("replay produced no digests; drift path not exercised")
	}
	deadline := time.Now().Add(10 * time.Second)
	for !settled(ctl, want) {
		if time.Now().After(deadline) {
			t.Fatalf("digests stalled: processed %d of %d", ctl.Stats().DigestsProcessed, want)
		}
		time.Sleep(2 * time.Millisecond)
	}

	da := mon.Armed()
	var profBuf, metricsBuf bytes.Buffer
	if err := drift.WriteProfile(&profBuf, da.FleetProfile()); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&metricsBuf); err != nil {
		t.Fatal(err)
	}
	res.profileJSON, res.fleetScore, res.crossings = profBuf.Bytes(), da.FleetScore(), mon.Crossings()
	res.health, res.metrics = ctl.FleetHealth(), metricsBuf.String()
	// Closing the controller waits out its worker, so every span has
	// ended; then each process exports its spans, as the daemons do on
	// exit.
	_ = ctl.Close()
	for i, j := range journals {
		if err := tracers[i].Export(j); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return res
}

func TestDriftObservabilityEndToEnd(t *testing.T) {
	ds, err := p4guard.GenerateTrace("wifi-mqtt", p4guard.TraceConfig{Seed: 81, Packets: 2400})
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := ds.Split(0.6)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := p4guard.Train(train, p4guard.Config{Seed: 81, NumFields: 6})
	if err != nil {
		t.Fatal(err)
	}

	// Train-time baseline, persisted and reloaded the way p4guard-train
	// and p4guard-ctl hand it off.
	prof, err := pipe.DriftBaseline(train)
	if err != nil {
		t.Fatal(err)
	}
	basePath := filepath.Join(t.TempDir(), "baseline.json")
	if err := drift.SaveProfile(basePath, prof); err != nil {
		t.Fatal(err)
	}
	baseline, err := drift.LoadProfile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Count == 0 {
		t.Fatal("baseline profiled zero slow-path samples")
	}

	// The unshifted live stream is the training traffic itself: its
	// digest-on-miss sub-stream is exactly the population the baseline
	// profiled, so it matches by construction. (The held-out tail of a
	// generated trace is NOT distribution-matched — the workload mix
	// changes over the trace, which is precisely the drift this
	// subsystem exists to flag.) The replay order is shuffled with a
	// fixed seed so every prefix of the stream is distribution-matched
	// too — the monitor scores incrementally, and a non-stationary
	// replay of a stationary population would alarm on its prefixes.
	pkts := make([]*packet.Packet, train.Len())
	for i, s := range train.Samples {
		pkts[i] = s.Pkt
	}
	rand.New(rand.NewSource(81)).Shuffle(len(pkts), func(i, j int) {
		pkts[i], pkts[j] = pkts[j], pkts[i]
	})
	// Shifted stream: the same packets with every match-key byte nudged
	// out of the training distribution. The shift is small enough that
	// a large fraction of the stream still misses the rule table (a huge
	// shift makes mutants *match* drop rules and never reach the slow
	// path — the monitor can only see what gets digested).
	shifted := make([]*packet.Packet, len(pkts))
	for i, pkt := range pkts {
		b := append([]byte(nil), pkt.Bytes...)
		for _, off := range pipe.Offsets {
			if off < len(b) {
				b[off] += 13
			}
		}
		shifted[i] = &packet.Packet{Link: pkt.Link, Bytes: b}
	}

	// Unshifted: live test traffic matches the baseline by construction.
	clean := runDriftFleet(t, pipe, ds.Link, baseline, pkts, nil)
	if clean.fleetScore > drift.DefaultThreshold {
		t.Fatalf("unshifted fleet score %v above threshold %v", clean.fleetScore, drift.DefaultThreshold)
	}
	if clean.crossings != 0 {
		t.Fatalf("unshifted stream fired %d crossings", clean.crossings)
	}
	if clean.health.DriftExceeded || !clean.health.DriftArmed {
		t.Fatalf("unshifted health = %+v", clean.health)
	}

	// Byte-identical rerun: same seeds, same packets, fresh fleet.
	clean2 := runDriftFleet(t, pipe, ds.Link, baseline, pkts, nil)
	if !bytes.Equal(clean.profileJSON, clean2.profileJSON) {
		t.Fatal("unshifted fleet profiles differ across reruns")
	}

	// Shifted: every surface of the scoreboard must light up. The fleet
	// runs journaled, and its first attack miss is the probe.
	probe := firstAttackMiss(t, pipe, shifted)
	bad := runDriftFleet(t, pipe, ds.Link, baseline, shifted, &journaled{dir: t.TempDir(), probe: probe})
	if bad.fleetScore <= drift.DefaultThreshold {
		t.Fatalf("shifted fleet score %v did not cross threshold %v", bad.fleetScore, drift.DefaultThreshold)
	}
	if bad.crossings == 0 {
		t.Fatal("shifted stream fired no upward crossings")
	}
	if !bad.health.DriftExceeded {
		t.Fatalf("shifted health not flagged: %+v", bad.health)
	}
	if bad.health.Score >= clean.health.Score {
		t.Fatalf("fleet health did not degrade under drift: clean %.3f, drifted %.3f",
			clean.health.Score, bad.health.Score)
	}
	answerFromJournals(t, bad.journals, rules.ExtractKey(probe, pipe.MatchOffsets()))

	// The exported gauge crosses on /metrics, per shard and fleet-wide.
	scoreLine := func(metrics, shard string) float64 {
		t.Helper()
		name := `p4guard_drift_score{controller="drift-ctl",shard="` + shard + `"}`
		for _, line := range strings.Split(metrics, "\n") {
			if strings.HasPrefix(line, name+" ") {
				var v float64
				if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
					t.Fatalf("bad gauge line %q: %v", line, err)
				}
				return v
			}
		}
		t.Fatalf("gauge %s missing from scrape:\n%s", name, metrics)
		return 0
	}
	if got := scoreLine(bad.metrics, "fleet"); got <= drift.DefaultThreshold {
		t.Fatalf("scraped fleet drift score %v below threshold", got)
	}
	if got := scoreLine(clean.metrics, "fleet"); got > drift.DefaultThreshold {
		t.Fatalf("scraped unshifted drift score %v above threshold", got)
	}
	for _, shard := range []string{"0", "1"} {
		scoreLine(bad.metrics, shard) // must exist per shard
	}
	if !strings.Contains(bad.metrics, "p4guard_drift_crossings_total") ||
		!strings.Contains(bad.metrics, "p4guard_drift_feature_psi") {
		t.Fatalf("drift metric families missing from scrape:\n%s", bad.metrics)
	}

	// The offline scorer (p4guard-obs drift -check) agrees with the live
	// monitor: shifted profile fails the check, unshifted passes.
	liveBad, err := drift.ReadProfile(bytes.NewReader(bad.profileJSON))
	if err != nil {
		t.Fatal(err)
	}
	repBad, err := obs.SummarizeDrift(baseline, liveBad, drift.DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if !repBad.Exceeded() {
		t.Fatalf("obs scorer did not flag shifted profile (total %v)", repBad.Score.Total)
	}
	liveClean, err := drift.ReadProfile(bytes.NewReader(clean.profileJSON))
	if err != nil {
		t.Fatal(err)
	}
	repClean, err := obs.SummarizeDrift(baseline, liveClean, drift.DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if repClean.Exceeded() {
		t.Fatalf("obs scorer flagged unshifted profile (total %v)", repClean.Score.Total)
	}
}

// settled reports that the controller has handled want digests and every
// reactive install it logged has been acknowledged.
func settled(ctl *controller.Controller, want int) bool {
	for _, st := range ctl.FleetStatus() {
		if st.AppliedReactive != st.ReactiveLog {
			return false
		}
	}
	return ctl.Stats().DigestsProcessed >= want
}

// firstAttackMiss returns the first packet of pkts that the deployed
// rules miss and the slow path calls an attack.
func firstAttackMiss(t *testing.T, pipe *p4guard.Pipeline, pkts []*packet.Packet) *packet.Packet {
	t.Helper()
	for _, p := range pkts {
		if _, matched := pipe.RuleSet().ClassifyDetail(p); !matched && pipe.ClassifySlowPath(p) != 0 {
			return p
		}
	}
	t.Fatal("the stream holds no attack miss")
	return nil
}

// answerFromJournals reads the shifted fleet's journals back with
// telemetry.ReadJournal alone and finds, for the attack miss whose match
// key is key, the three answers: its explain record (why this verdict),
// its complete digest_wait → fanin_wait → classify → plan → install trace
// joined to it by the key (what it cost), and the drift crossing the
// shifted stream set off (is the model still valid).
func answerFromJournals(t *testing.T, paths []string, key []byte) {
	t.Helper()
	var recs []telemetry.JournalRecord
	for _, path := range paths {
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
	spans, err := dtrace.FromJournal(recs)
	if err != nil {
		t.Fatal(err)
	}
	chain := []string{dtrace.StageDigestWait, dtrace.StageFanInWait, dtrace.StageClassify, dtrace.StagePlan, dtrace.StageInstall}
	installed := make(map[string]dtrace.TraceSummary) // digesting switch and match key -> trace
	for _, ts := range dtrace.Assemble(spans) {
		if inst := ts.Stages[len(ts.Stages)-1]; inst.Name == dtrace.StageInstall && ts.Complete {
			installed[ts.Stages[0].Proc+" "+inst.Attrs["key"]] = ts
		}
	}
	var why *switchsim.ExplainSample
	for _, rec := range recs {
		var s switchsim.ExplainSample
		if rec.Kind != switchsim.ExplainRecord || rec.Decode(&s) != nil || !s.LookupVerdict.Digested {
			continue
		}
		if bytes.Equal(s.Table.Key, key) {
			why = &s
		}
	}
	if why == nil {
		t.Fatalf("attack miss %x has no explain record", key)
	}
	cost, traced := installed[why.Switch+" "+hex.EncodeToString(key)]
	if !traced {
		t.Fatalf("attack miss %x on %s has no install trace (%d installs traced)", key, why.Switch, len(installed))
	}
	if !why.Agrees || why.Verdict.Matched || !why.Verdict.Digested {
		t.Fatalf("explain %+v does not describe a miss", why)
	}
	var sum time.Duration
	for i, st := range cost.Stages {
		if i >= len(chain) || st.Name != chain[i] {
			t.Fatalf("trace stages %+v, want the chain %v", cost.Stages, chain)
		}
		sum += st.Duration()
	}
	if len(cost.Stages) != len(chain) || sum != cost.E2E || cost.E2E <= 0 {
		t.Fatalf("trace of %d stages sums to %v, e2e %v", len(cost.Stages), sum, cost.E2E)
	}
	if d := obs.SummarizeDriftJournal(recs); d.Up == 0 || d.MaxScore <= drift.DefaultThreshold {
		t.Fatalf("journals hold no upward drift crossing: %+v", d)
	}
}

// TestDriftBaselineTrainSplitSemantics: the baseline profiles exactly
// the training samples the compiled rules miss — the traffic a
// digest-on-miss deployment actually sends to the slow path.
func TestDriftBaselineTrainSplitSemantics(t *testing.T) {
	ds, err := p4guard.GenerateTrace("zigbee", p4guard.TraceConfig{Seed: 82, Packets: 1200})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := p4guard.Train(ds, p4guard.Config{Seed: 82, NumFields: 5})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := pipe.DriftBaseline(ds)
	if err != nil {
		t.Fatal(err)
	}
	// Count misses independently through the deployed data plane.
	sw, err := switchsim.New("gw-base", ds.Link)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.InstallRuleSet(pipe.RuleSet(), p4.Action{Type: p4.ActionDigest}); err != nil {
		t.Fatal(err)
	}
	var misses uint64
	for _, s := range ds.Samples {
		if v := sw.Process(s.Pkt); v.Digested {
			misses++
		}
	}
	if prof.Count != misses {
		t.Fatalf("baseline count %d != data-plane misses %d", prof.Count, misses)
	}
	if prof.Fingerprint != ds.Fingerprint() {
		t.Fatalf("baseline fingerprint %q != dataset %q", prof.Fingerprint, ds.Fingerprint())
	}
	if len(prof.Offsets) != len(pipe.Offsets) {
		t.Fatalf("baseline offsets %v != pipeline %v", prof.Offsets, pipe.Offsets)
	}
}

// TestDriftBaselineErrorsWhenRulesCoverEverything: a dataset the rules
// fully cover leaves nothing to profile, which must be a loud error,
// not an empty baseline.
func TestDriftBaselineErrorsWhenRulesCoverEverything(t *testing.T) {
	ds, err := p4guard.GenerateTrace("wifi-mqtt", p4guard.TraceConfig{Seed: 83, Packets: 1200})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := p4guard.Train(ds, p4guard.Config{Seed: 83, NumFields: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Build a dataset of only samples the rules match.
	covered := &trace.Dataset{Name: "covered", Link: ds.Link}
	sw, err := switchsim.New("gw-cov", ds.Link)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.InstallRuleSet(pipe.RuleSet(), p4.Action{Type: p4.ActionDigest}); err != nil {
		t.Fatal(err)
	}
	for _, s := range ds.Samples {
		if v := sw.Process(s.Pkt); !v.Digested {
			if err := covered.Append(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if covered.Len() == 0 {
		t.Skip("every sample missed the rules in this seed")
	}
	if _, err := pipe.DriftBaseline(covered); err == nil {
		t.Fatal("DriftBaseline succeeded on a fully-covered dataset")
	}
}
