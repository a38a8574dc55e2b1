package p4guard_test

// Integration tests: the full system exercised end to end — training
// through the public API, deployment over the real p4rt TCP channel,
// data-plane verdicts on a live switch, the reactive control loop, and a
// pcap round trip through the on-disk trace format.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"p4guard"
	"p4guard/internal/controller"
	"p4guard/internal/metrics"
	"p4guard/internal/p4"
	"p4guard/internal/p4rt"
	"p4guard/internal/packet"
	"p4guard/internal/pcap"
	"p4guard/internal/switchsim"
	"p4guard/internal/telemetry"
	"p4guard/internal/trace"
)

// TestEndToEndDistributedGateway trains a model, deploys it to a switch
// over TCP, and checks that the remote data plane reproduces the model's
// verdicts and that the reactive loop closes.
func TestEndToEndDistributedGateway(t *testing.T) {
	ds, err := p4guard.GenerateTrace("wifi-mqtt", p4guard.TraceConfig{Seed: 61, Packets: 2000})
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := ds.Split(0.6)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := p4guard.Train(train, p4guard.Config{Seed: 61, NumFields: 6})
	if err != nil {
		t.Fatal(err)
	}

	sw, err := switchsim.New("gw-int", ds.Link)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := p4rt.Serve("127.0.0.1:0", sw, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	ctl := controller.New(pipe, controller.Config{Name: "int-ctl", Reactive: true})
	t.Cleanup(func() { _ = ctl.Close() })
	if err := ctl.Connect(context.Background(), srv.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Deploy(context.Background(), pipe.RuleSet(), controller.WithMissAction(p4.Action{Type: p4.ActionDigest})); err != nil {
		t.Fatal(err)
	}

	// Remote data plane must agree with local rule semantics packet by
	// packet, and overall detection must be strong.
	var conf metrics.Confusion
	truth := test.BinaryLabels()
	for i, s := range test.Samples {
		want := pipe.ClassifyPacket(s.Pkt) != 0
		v := sw.Process(s.Pkt)
		if got := !v.Allowed; got != want {
			t.Fatalf("packet %d: remote drop=%v, local class says %v", i, got, want)
		}
		conf.Observe(!v.Allowed, truth[i] == 1)
	}
	if conf.Accuracy() < 0.9 {
		t.Fatalf("end-to-end accuracy %.3f (%s)", conf.Accuracy(), conf.String())
	}

	// Digests must reach the controller's slow path.
	st := sw.Stats()
	if st.Digested == 0 {
		t.Log("no table misses; digest path not exercised in this seed")
		return
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ctl.Stats().DigestsProcessed > 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("digests never reached the controller")
}

// TestEndToEndPcapRoundTrip writes a generated trace to pcap, reads it
// back, retrains, and checks the model is unchanged by the serialization.
func TestEndToEndPcapRoundTrip(t *testing.T) {
	ds, err := p4guard.GenerateTrace("zigbee", p4guard.TraceConfig{Seed: 62, Packets: 1200})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, ds.Link)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ds.Samples {
		if err := w.WritePacket(s.Pkt); err != nil {
			t.Fatal(err)
		}
	}
	r, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != ds.Len() {
		t.Fatalf("pcap returned %d packets, want %d", len(pkts), ds.Len())
	}
	// Rebuild the dataset with the original labels.
	rebuilt := &trace.Dataset{Name: "rebuilt", Link: r.LinkType()}
	for i, p := range pkts {
		if err := rebuilt.Append(trace.Sample{
			Pkt: p, Label: ds.Samples[i].Label, Attack: ds.Samples[i].Attack,
		}); err != nil {
			t.Fatal(err)
		}
	}
	pipeA, err := p4guard.Train(ds, p4guard.Config{Seed: 62, NumFields: 5})
	if err != nil {
		t.Fatal(err)
	}
	pipeB, err := p4guard.Train(rebuilt, p4guard.Config{Seed: 62, NumFields: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range ds.Samples {
		if pipeA.ClassifyPacket(s.Pkt) != pipeB.ClassifyPacket(s.Pkt) {
			t.Fatalf("packet %d: models diverge after pcap round trip", i)
		}
	}
}

// TestEndToEndModelPersistence saves a trained pipeline, reloads it, and
// deploys the reloaded model remotely.
func TestEndToEndModelPersistence(t *testing.T) {
	ds, err := p4guard.GenerateTrace("ble", p4guard.TraceConfig{Seed: 63, Packets: 1200})
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := ds.Split(0.6)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := p4guard.Train(train, p4guard.Config{Seed: 63, NumFields: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pipe.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := p4guard.LoadPipeline(&buf)
	if err != nil {
		t.Fatal(err)
	}

	sw, err := switchsim.New("gw-persist", ds.Link)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.InstallRuleSet(loaded.RuleSet(), p4.Action{Type: p4.ActionAllow}); err != nil {
		t.Fatal(err)
	}
	var conf metrics.Confusion
	truth := test.BinaryLabels()
	for i, s := range test.Samples {
		v := sw.Process(s.Pkt)
		conf.Observe(!v.Allowed, truth[i] == 1)
	}
	if conf.Accuracy() < 0.9 {
		t.Fatalf("reloaded model end-to-end accuracy %.3f (%s)", conf.Accuracy(), conf.String())
	}
}

// TestMetricsEndpointEndToEnd stands up the full observable system —
// switch + p4rt agent + reactive controller, all registered into one
// telemetry registry served over HTTP — replays traffic, and scrapes
// /metrics twice to assert the counters the acceptance criteria name
// exist and move: per-verdict packets, per-entry detector hits, the
// forwarding-latency histogram, digest-queue accounting, and controller
// rule-install counters. /debug/vars must dump the controller journal's tail.
func TestMetricsEndpointEndToEnd(t *testing.T) {
	ds, err := p4guard.GenerateTrace("wifi-mqtt", p4guard.TraceConfig{Seed: 73, Packets: 1500})
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := ds.Split(0.6)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := p4guard.Train(train, p4guard.Config{Seed: 73, NumFields: 6})
	if err != nil {
		t.Fatal(err)
	}

	sw, err := switchsim.New("gw-metrics", ds.Link)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := p4rt.Serve("127.0.0.1:0", sw, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	reg := telemetry.NewRegistry()
	fr := telemetry.NewFlightRecorder(1024)
	sw.RegisterTelemetry(reg)
	srv.RegisterTelemetry(reg)

	ctl := controller.New(pipe, controller.Config{Name: "metrics-ctl", Reactive: true, Journal: fr})
	t.Cleanup(func() { _ = ctl.Close() })
	ctl.RegisterTelemetry(reg)
	if err := ctl.Connect(context.Background(), srv.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Deploy(context.Background(), pipe.RuleSet(), controller.WithMissAction(p4.Action{Type: p4.ActionDigest})); err != nil {
		t.Fatal(err)
	}

	ts, err := telemetry.NewServer("127.0.0.1:0", reg, fr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ts.Close() })

	scrape := func() map[string]float64 {
		t.Helper()
		resp, err := http.Get("http://" + ts.Addr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics status %d", resp.StatusCode)
		}
		// Prometheus scrapers key their parser off this exact version.
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Fatalf("/metrics Content-Type = %q, want text/plain; version=0.0.4", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		vals := make(map[string]float64)
		for _, line := range strings.Split(string(body), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				t.Fatalf("malformed exposition line %q", line)
			}
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			vals[line[:sp]] = v
		}
		return vals
	}

	// Replay the test trace through the data plane.
	pkts := make([]*packet.Packet, test.Len())
	for i, s := range test.Samples {
		pkts[i] = s.Pkt
	}
	sw.Run(pkts)
	st := sw.Stats()
	first := scrape()

	series := func(vals map[string]float64, name string) float64 {
		t.Helper()
		if v, ok := vals[name]; ok {
			return v
		}
		t.Fatalf("metric %q missing from scrape", name)
		return 0
	}
	if got := series(first, `p4guard_switch_packets_total{switch="gw-metrics"}`); got != float64(st.Packets) {
		t.Fatalf("packets_total = %v, switch says %d", got, st.Packets)
	}
	for verdict, want := range map[string]int{
		"allowed": st.Allowed, "dropped": st.Dropped, "digested": st.Digested,
	} {
		name := `p4guard_switch_verdicts_total{switch="gw-metrics",verdict="` + verdict + `"}`
		if got := series(first, name); got != float64(want) {
			t.Fatalf("%s = %v, switch says %d", name, got, want)
		}
	}
	if series(first, `p4guard_switch_forward_latency_seconds_count{switch="gw-metrics"}`) == 0 {
		t.Fatal("latency histogram empty after replay")
	}
	series(first, `p4guard_switch_digest_queue_depth{switch="gw-metrics"}`)
	series(first, `p4guard_switch_digests_dropped_total{switch="gw-metrics"}`)

	// Per-entry direct counters: at least one detector entry fired, and
	// their sum matches the table's aggregate hit counter.
	det, err := sw.DetectorStats()
	if err != nil {
		t.Fatal(err)
	}
	var entryHits float64
	for name, v := range first {
		if strings.HasPrefix(name, "p4guard_table_entry_hits_total{") {
			entryHits += v
		}
	}
	if entryHits == 0 || entryHits != float64(det.Hits) {
		t.Fatalf("per-entry hits from scrape = %v, table says %d", entryHits, det.Hits)
	}

	// The reactive loop must surface as controller install counters.
	waitFor := func(cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatal("condition not reached in time")
	}
	waitFor(func() bool { return ctl.Stats().DigestsProcessed > 0 })

	// Counters must move on a second replay.
	sw.Run(pkts)
	second := scrape()
	name := `p4guard_switch_packets_total{switch="gw-metrics"}`
	if second[name] <= first[name] {
		t.Fatalf("%s did not move: %v -> %v", name, first[name], second[name])
	}
	if series(second, `p4guard_ctl_digests_processed_total{controller="metrics-ctl"}`) == 0 {
		t.Fatal("controller digest counter never moved")
	}
	series(second, `p4guard_ctl_reactive_installs_total{controller="metrics-ctl"}`)
	series(second, `p4guard_ctl_deploys_total{controller="metrics-ctl"}`)

	// Digest-queue accounting stays balanced end to end.
	qs := sw.DigestQueueStats()
	if qs.Queued != qs.Drained+uint64(qs.Depth) {
		t.Fatalf("digest accounting broken: %+v", qs)
	}

	// The controller's journal saw the control loop.
	resp, err := http.Get("http://" + ts.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	dump, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind": "deploy"`, `"kind": "digest"`} {
		if !strings.Contains(string(dump), want) {
			t.Fatalf("/debug/vars missing %s:\n%.2000s", want, dump)
		}
	}
}
