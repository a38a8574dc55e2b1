package controller

import (
	"context"
	"fmt"
	"testing"
	"time"

	"p4guard/internal/dtrace"
	"p4guard/internal/netsim"
	"p4guard/internal/p4"
	"p4guard/internal/packet"
	"p4guard/internal/rules"
)

// BenchmarkFleetDigestInstallLatency measures the digest→install round
// trip end to end under the five-gateway netsim topology with lossy
// links: per iteration one slow-path attack is digested, fanned in,
// classified, and installed back on its switch, and the benchmark waits
// for the install ack. Besides ns/op it reports the controller's p50/p99
// digest→install latency distribution (fan-in enqueue to install ack,
// the same histogram the fleet /metrics aggregate exports). The recorded
// numbers for this path are miss_to_hit_ms_p50/p99 and their
// controller.*_us_p50 stage breakdown from
// `bash perfbench/run.sh --workload <hot|cold> --trace 1`.
func BenchmarkFleetDigestInstallLatency(b *testing.B) {
	topo := netsim.New(netsim.Config{Seed: 42})
	lossy := netsim.LinkConfig{
		LatencyMin: 50 * time.Microsecond,
		LatencyMax: 300 * time.Microsecond,
		Loss:       0.01,
	}
	if err := topo.AddLink("ctl", "core", lossy); err != nil {
		b.Fatal(err)
	}
	const nSwitches = 5
	gws := make([]*fleetGW, nSwitches)
	for i := range gws {
		node := fmt.Sprintf("gw%d", i)
		if err := topo.AddLink("core", node, lossy); err != nil {
			b.Fatal(err)
		}
		gws[i] = startFleetGW(b, topo, node, "127.0.0.1:0", 1)
	}
	defer func() {
		for _, g := range gws {
			_ = g.srv.Close()
		}
	}()

	tr := dtrace.NewTracer()
	tr.Arm("ctl", 1, 1<<16)
	c := New(fleetModel{}, Config{Name: "ctl-bench", Reactive: true},
		append(fastBackoff(), WithDialer(topo.Dialer("ctl", nil)), WithTracer(tr))...)
	defer func() { _ = c.Close() }()
	for _, g := range gws {
		if err := c.Connect(context.Background(), g.addr); err != nil {
			b.Fatal(err)
		}
	}
	rs := rules.NewRuleSet([]int{0, 1}, 0)
	if err := c.Deploy(context.Background(), rs, WithMissAction(p4.Action{Type: p4.ActionDigest})); err != nil {
		b.Fatal(err)
	}

	// Distinct (byte0, byte1) keys so per-switch dedup never skips an
	// install; the key space (128×256 per switch) outlasts any plausible
	// b.N at this per-op latency.
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		pkt := &packet.Packet{
			Link:  packet.LinkEthernet,
			Bytes: []byte{byte(128 + n%128), byte((n / 128) % 256)},
		}
		gws[n%nSwitches].sw.Process(pkt)
		want := n + 1
		for c.Stats().ReactiveInstalls < want {
			time.Sleep(50 * time.Microsecond)
		}
	}
	b.StopTimer()

	fh := c.FleetHealth()
	b.ReportMetric(float64(fh.DigestInstallP50Ns), "p50_ns")
	b.ReportMetric(float64(fh.DigestInstallP99Ns), "p99_ns")
	b.ReportMetric(float64(fh.DigestInstallCount), "installs")
}
