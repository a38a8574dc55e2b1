package controller

import (
	"io"
	"testing"

	"p4guard/internal/drift"
	"p4guard/internal/packet"
	"p4guard/internal/telemetry"
)

// BenchmarkFleetDriftScrape measures one /metrics render of the drift
// metric families — per-shard and fleet drift scores, observation
// counters, per-feature PSI gauges, crossing counters — over an armed
// 4-shard monitor with populated sketches. This is the recurring cost a
// Prometheus scrape adds while drift tracking is on; perfbench scrapes
// nothing, so this benchmark is the only number for it.
func BenchmarkFleetDriftScrape(b *testing.B) {
	offs := []int{0, 1}
	base := drift.NewBuilder(offs, 0)
	for i := 0; i < 1024; i++ {
		base.Observe(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{byte(i % 64), byte(i % 16)}},
			i%3, float64(i%100)/1024)
	}
	mon := drift.NewMonitor()
	if err := mon.Arm(drift.MonitorConfig{Baseline: base.Profile(), Shards: 4, ScoreEvery: 32}); err != nil {
		b.Fatal(err)
	}
	c := New(fleetModel{}, Config{Name: "drift-bench", Drift: mon})
	defer func() { _ = c.Close() }()
	reg := telemetry.NewRegistry()
	c.RegisterFleetTelemetry(reg)

	da := mon.Armed()
	for i := 0; i < 2048; i++ {
		da.ObservePacket(i%4, &packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{byte(i % 64), byte(i % 16)}},
			i%3, float64(i%100)/1024)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(da.FleetScore(), "fleet_score")
}
