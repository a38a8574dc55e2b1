package controller

import (
	"fmt"

	"p4guard/internal/telemetry"
)

// digestInstallBuckets bound the digest→install latency histogram, in
// seconds: the fan-in enqueue → install ack round trip lives in the
// hundreds of microseconds on loopback and stretches to seconds behind a
// lossy emulated fabric.
var digestInstallBuckets = []float64{
	100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5,
}

// SwitchHealth is one switch's health indicators and composite score.
type SwitchHealth struct {
	Addr  string  `json:"addr"`
	Name  string  `json:"name,omitempty"`
	State string  `json:"state"`
	Score float64 `json:"score"`
	// EpochLag is desired − applied program epochs (0 when converged).
	EpochLag uint64 `json:"epoch_lag"`
	// ReactiveLag is logged − applied reactive entries (0 when converged).
	ReactiveLag int `json:"reactive_lag"`
	// FanInDropRate is dropped/offered digest batches (0 when idle).
	FanInDropRate float64 `json:"fanin_drop_rate"`
	// EpochLatencyNs is the last measured deploy→applied propagation lag.
	EpochLatencyNs int64 `json:"epoch_latency_ns"`
}

// FleetHealth is the controller's aggregate health view: the mean of the
// per-switch scores plus fleet-wide digest→install latency quantiles
// (derived from the span timestamps the tracing layer records — the
// controller-observed fan-in enqueue → install ack path). When a drift
// monitor is armed, the composite Score is degraded past the drift
// threshold (see FleetHealth's method doc).
type FleetHealth struct {
	Score    float64        `json:"score"`
	Switches []SwitchHealth `json:"switches"`

	DigestInstallP50Ns int64  `json:"digest_install_p50_ns"`
	DigestInstallP99Ns int64  `json:"digest_install_p99_ns"`
	DigestInstallCount uint64 `json:"digest_install_count"`
	// TraceSpans counts spans recorded by the attached tracer (0 when
	// tracing is disarmed).
	TraceSpans uint64 `json:"trace_spans,omitempty"`
	// DriftArmed reports whether a drift monitor was armed at snapshot
	// time; the remaining Drift fields are meaningful only when true.
	DriftArmed bool `json:"drift_armed,omitempty"`
	// DriftScore is the merged-fleet composite drift score (PSI/KS
	// composite, see internal/drift.Compute).
	DriftScore     float64 `json:"drift_score,omitempty"`
	DriftThreshold float64 `json:"drift_threshold,omitempty"`
	// DriftExceeded is set when DriftScore is past the armed threshold —
	// the same condition that recorded the journal's drift crossing.
	DriftExceeded bool `json:"drift_exceeded,omitempty"`
}

// switchScore composes one switch's indicators into [0,1]:
//
//	score = 0.4·state + 0.2·epochOK + 0.2·reactiveOK + 0.2·(1 − dropRate)
//
// where state is 1 for Ready, 0.25 for Connecting/Degraded (reconverging
// is worth something), 0 for Closed; epochOK/reactiveOK are 1 when the
// respective watermark has no lag; dropRate is the fan-in drop fraction.
// The formula is documented in DESIGN.md "Fleet observability".
func switchScore(st SwitchStatus) (SwitchHealth, float64) {
	h := SwitchHealth{
		Addr:           st.Addr,
		Name:           st.Name,
		State:          st.State,
		EpochLatencyNs: st.EpochLatencyNs,
	}
	stateScore := 0.0
	switch st.State {
	case StateReady.String():
		stateScore = 1
	case StateConnecting.String(), StateDegraded.String():
		stateScore = 0.25
	}
	if st.DesiredEpoch > st.AppliedEpoch {
		h.EpochLag = st.DesiredEpoch - st.AppliedEpoch
	}
	epochOK := 1.0
	if h.EpochLag > 0 {
		epochOK = 0
	}
	if st.ReactiveLog > st.AppliedReactive {
		h.ReactiveLag = st.ReactiveLog - st.AppliedReactive
	}
	reactiveOK := 1.0
	if h.ReactiveLag > 0 {
		reactiveOK = 0
	}
	if st.FanIn.Offered > 0 {
		h.FanInDropRate = float64(st.FanIn.Dropped) / float64(st.FanIn.Offered)
	}
	h.Score = 0.4*stateScore + 0.2*epochOK + 0.2*reactiveOK + 0.2*(1-h.FanInDropRate)
	return h, h.Score
}

// FleetHealth scores the fleet from local state only — no RPCs — so it
// is cheap enough for every scrape and every status line. With a drift
// monitor armed, a fleet drift score past the threshold degrades the
// composite:
//
//	score *= 1 − 0.5·min(1, (drift − threshold)/threshold)
//
// so crossing the threshold starts eating the score and a 2× overshoot
// halves it — connectivity may be perfect while the model is stale, and
// the health aggregate must say so. A disarmed monitor changes nothing.
func (c *Controller) FleetHealth() FleetHealth {
	statuses := c.FleetStatus()
	out := FleetHealth{Switches: make([]SwitchHealth, 0, len(statuses))}
	sum := 0.0
	for _, st := range statuses {
		h, score := switchScore(st)
		out.Switches = append(out.Switches, h)
		sum += score
	}
	if len(statuses) > 0 {
		out.Score = sum / float64(len(statuses))
	}
	snap := c.digestHist.Snapshot()
	out.DigestInstallCount = snap.Count
	out.DigestInstallP50Ns = int64(snap.Quantile(0.5) * 1e9)
	out.DigestInstallP99Ns = int64(snap.Quantile(0.99) * 1e9)
	out.TraceSpans = c.cfg.Tracer.Total()
	if da := c.cfg.Drift.Armed(); da != nil {
		out.DriftArmed = true
		out.DriftScore = da.FleetScore()
		out.DriftThreshold = da.Threshold()
		if out.DriftScore > out.DriftThreshold {
			out.DriftExceeded = true
			penalty := (out.DriftScore - out.DriftThreshold) / out.DriftThreshold
			if penalty > 1 {
				penalty = 1
			}
			out.Score *= 1 - 0.5*penalty
		}
	}
	return out
}

// RegisterFleetTelemetry exports the merged fleet view from local state:
// per-switch health scores and lag indicators and the digest→install
// latency quantiles. A switch's own data-plane counters are on its own
// /metrics. Register it on the same registry as RegisterTelemetry to serve
// the fleet aggregate on /metrics.
func (c *Controller) RegisterFleetTelemetry(reg *telemetry.Registry) {
	ctl := telemetry.Label{Key: "controller", Value: c.cfg.Name}
	reg.GaugeFunc("p4guard_fleet_health_score", "Composite fleet health in [0,1] (mean of per-switch scores).",
		func() float64 { return c.FleetHealth().Score }, ctl)
	reg.CollectFunc("p4guard_fleet_switch_health_score", "Per-switch composite health in [0,1].", "gauge",
		func(emit func([]telemetry.Label, float64)) {
			for _, h := range c.FleetHealth().Switches {
				emit([]telemetry.Label{ctl, {Key: "switch", Value: h.Addr}}, h.Score)
			}
		})
	reg.CollectFunc("p4guard_fleet_switch_epoch_latency_seconds", "Deploy→applied program epoch propagation lag, per switch.", "gauge",
		func(emit func([]telemetry.Label, float64)) {
			for _, st := range c.FleetStatus() {
				emit([]telemetry.Label{ctl, {Key: "switch", Value: st.Addr}}, float64(st.EpochLatencyNs)/1e9)
			}
		})
	for _, q := range []struct {
		q     float64
		label string
	}{{0.5, "0.5"}, {0.99, "0.99"}} {
		q := q
		reg.GaugeFunc("p4guard_fleet_digest_install_latency_seconds",
			"Digest→install latency quantiles (fan-in enqueue to install ack).",
			func() float64 { return c.digestHist.Snapshot().Quantile(q.q) },
			ctl, telemetry.Label{Key: "quantile", Value: q.label})
	}
	reg.CounterFunc("p4guard_fleet_digest_install_count", "Reactive installs measured for latency quantiles.",
		func() float64 { return float64(c.digestHist.Snapshot().Count) }, ctl)

	if mon := c.cfg.Drift; mon != nil {
		c.driftResidualHist.Store(reg.Histogram("p4guard_drift_residual",
			"Autoencoder reconstruction residual of slow-path digests while the drift monitor is armed.",
			driftResidualBuckets, ctl))
		reg.CollectFunc("p4guard_drift_score",
			"Composite drift score vs the armed baseline, per shard and fleet-merged.", "gauge",
			func(emit func([]telemetry.Label, float64)) {
				da := mon.Armed()
				if da == nil {
					return
				}
				for i := 0; i < da.Shards(); i++ {
					emit([]telemetry.Label{ctl, {Key: "shard", Value: fmt.Sprintf("%d", i)}}, da.ShardScore(i))
				}
				emit([]telemetry.Label{ctl, {Key: "shard", Value: "fleet"}}, da.FleetScore())
			})
		reg.CollectFunc("p4guard_drift_observations_total",
			"Digests folded into the drift sketches, per shard.", "counter",
			func(emit func([]telemetry.Label, float64)) {
				da := mon.Armed()
				if da == nil {
					return
				}
				for i := 0; i < da.Shards(); i++ {
					emit([]telemetry.Label{ctl, {Key: "shard", Value: fmt.Sprintf("%d", i)}}, float64(da.ShardObservations(i)))
				}
			})
		reg.CollectFunc("p4guard_drift_feature_psi",
			"Per-feature PSI of the merged fleet profile vs the baseline, by match-key offset.", "gauge",
			func(emit func([]telemetry.Label, float64)) {
				da := mon.Armed()
				if da == nil {
					return
				}
				det := da.FleetDetail()
				if det == nil {
					return
				}
				for _, f := range det.Features {
					emit([]telemetry.Label{ctl, {Key: "offset", Value: fmt.Sprintf("%d", f.Offset)}}, f.PSI)
				}
			})
		reg.GaugeFunc("p4guard_drift_threshold", "Armed drift alarm threshold (0 while disarmed).",
			func() float64 {
				if da := mon.Armed(); da != nil {
					return da.Threshold()
				}
				return 0
			}, ctl)
		reg.CounterFunc("p4guard_drift_crossings_total", "Upward drift threshold crossings, lifetime.",
			func() float64 { return float64(mon.Crossings()) }, ctl)
	}
}

// driftResidualBuckets bound the exported residual histogram; the
// autoencoder mean-squared error of normalized bytes lives in
// [~1e-6, 1].
var driftResidualBuckets = []float64{
	1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1,
}
