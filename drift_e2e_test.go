package p4guard_test

// Drift observability end to end: train → persist baseline → replay a
// seeded digest stream through a two-switch, two-shard fleet → the
// drift gauges, flight-recorder events, fleet health, and the offline
// obs scorer must all agree — an unshifted stream stays below the
// threshold (and is byte-identical across reruns), a shifted stream
// crosses it everywhere the scoreboard looks.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"p4guard"
	"p4guard/internal/controller"
	"p4guard/internal/drift"
	"p4guard/internal/obs"
	"p4guard/internal/p4"
	"p4guard/internal/p4rt"
	"p4guard/internal/packet"
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
	flightDump  string
}

// runDriftFleet replays pkts through a fresh 2-switch / 2-shard fleet
// armed with baseline and returns everything the drift scoreboard
// exposes. Packets alternate between the switches so both shards see
// half the stream.
func runDriftFleet(t *testing.T, pipe *p4guard.Pipeline, link packet.LinkType,
	baseline *drift.Profile, pkts []*packet.Packet) driftFleetResult {
	t.Helper()

	mon := drift.NewMonitor()
	if err := mon.Arm(drift.MonitorConfig{Baseline: baseline, Shards: 2, ScoreEvery: 16, MinObservations: 128}); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	fr := telemetry.NewFlightRecorder(1024)
	ctl := controller.New(pipe, controller.Config{Name: "drift-ctl", FlightRecorder: fr},
		controller.WithShards(2), controller.WithDrift(mon))
	t.Cleanup(func() { _ = ctl.Close() })
	ctl.RegisterFleetTelemetry(reg)

	sws := make([]*switchsim.Switch, 2)
	for i := range sws {
		sw, err := switchsim.NewWithDigestCapacity(fmt.Sprintf("gw-drift%d", i), link, 1<<16)
		if err != nil {
			t.Fatal(err)
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

	for i, pkt := range pkts {
		sws[i%2].Process(pkt)
	}
	want := 0
	for _, sw := range sws {
		want += sw.Stats().Digested
	}
	if want == 0 {
		t.Fatal("replay produced no digests; drift path not exercised")
	}
	deadline := time.Now().Add(10 * time.Second)
	for ctl.Stats().DigestsProcessed < want {
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
	var flightBuf bytes.Buffer
	if err := fr.WriteJSON(&flightBuf); err != nil {
		t.Fatal(err)
	}
	return driftFleetResult{
		profileJSON: profBuf.Bytes(),
		fleetScore:  da.FleetScore(),
		crossings:   mon.Crossings(),
		health:      ctl.FleetHealth(),
		metrics:     metricsBuf.String(),
		flightDump:  flightBuf.String(),
	}
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
	clean := runDriftFleet(t, pipe, ds.Link, baseline, pkts)
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
	clean2 := runDriftFleet(t, pipe, ds.Link, baseline, pkts)
	if !bytes.Equal(clean.profileJSON, clean2.profileJSON) {
		t.Fatal("unshifted fleet profiles differ across reruns")
	}

	// Shifted: every surface of the scoreboard must light up.
	bad := runDriftFleet(t, pipe, ds.Link, baseline, shifted)
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
	if !strings.Contains(bad.flightDump, `"kind": "drift"`) {
		t.Fatalf("flight recorder missing drift event:\n%.2000s", bad.flightDump)
	}

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
