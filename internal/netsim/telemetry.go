package netsim

import "p4guard/internal/telemetry"

// RegisterTelemetry exports the topology's emulation counters — the
// aggregate connection stats plus per-link operation/loss/reset counters
// — so the fabric's behaviour lands in the same /metrics view as the
// fleet it carries. Per-link families label each series with the
// canonical endpoint pair (a, b).
func (t *Topology) RegisterTelemetry(reg *telemetry.Registry) {
	reg.CounterFunc("p4guard_netsim_dials_total", "Connections opened through the topology.",
		func() float64 { return float64(t.Stats().Dials) })
	reg.CounterFunc("p4guard_netsim_delays_total", "Operations that slept (latency, serialization, or retransmit).",
		func() float64 { return float64(t.Stats().Delays) })
	reg.CounterFunc("p4guard_netsim_losses_total", "Lost transmissions across all connections.",
		func() float64 { return float64(t.Stats().Losses) })
	reg.CounterFunc("p4guard_netsim_resets_total", "Connections torn down by a reset or loss give-up.",
		func() float64 { return float64(t.Stats().Resets) })

	perLink := func(name, help, typ string, pick func(LinkStats) float64) {
		reg.CollectFunc(name, help, typ, func(emit func([]telemetry.Label, float64)) {
			for _, ls := range t.LinkStats() {
				emit([]telemetry.Label{{Key: "a", Value: ls.A}, {Key: "b", Value: ls.B}}, pick(ls))
			}
		})
	}
	perLink("p4guard_netsim_link_ops_total", "Operations whose connection path crossed the link.", "counter",
		func(ls LinkStats) float64 { return float64(ls.Ops) })
	perLink("p4guard_netsim_link_delayed_total", "Operations crossing the link that slept.", "counter",
		func(ls LinkStats) float64 { return float64(ls.Delayed) })
	perLink("p4guard_netsim_link_losses_total", "Lost transmissions attributed to the link's paths.", "counter",
		func(ls LinkStats) float64 { return float64(ls.Losses) })
	perLink("p4guard_netsim_link_resets_total", "Connection resets whose path crossed the link.", "counter",
		func(ls LinkStats) float64 { return float64(ls.Resets) })
}
