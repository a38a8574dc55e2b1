package drift

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"p4guard/internal/telemetry"
)

// CrossEvent reports a drift score crossing the armed threshold in
// either direction. Shard is the shard index, or FleetShard for the
// merged fleet score.
type CrossEvent struct {
	Shard        int     `json:"shard"`
	Up           bool    `json:"up"`
	Score        float64 `json:"score"`
	Threshold    float64 `json:"threshold"`
	Observations uint64  `json:"observations"`
}

// FleetShard is the CrossEvent.Shard value for fleet-level crossings.
const FleetShard = -1

// MonitorConfig arms a Monitor.
type MonitorConfig struct {
	// Baseline is the train-time profile to score against (required).
	Baseline *Profile
	// Shards is the number of independent shard sketches (default 1).
	Shards int
	// Threshold is the composite-score alarm level (default
	// DefaultThreshold).
	Threshold float64
	// ScoreEvery recomputes a shard's score every N observations
	// (default 64). Smaller is more responsive, larger cheaper.
	ScoreEvery int
	// Window is the verdict-mix sliding window per shard (default 4096).
	Window int
	// MinObservations is the per-sketch warm-up before any score is
	// computed or crossing fired (default 256). PSI against a large
	// baseline is dominated by sampling noise on tiny live samples —
	// empty groups floor at epsilon and read as huge divergence — so
	// a cold sketch must not alarm.
	MinObservations int
}

// Monitor is an armable drift observer, mirroring the dtrace disarm
// contract: a zero-value or disarmed monitor costs exactly one atomic
// pointer load per Armed() probe and never touches a sketch, so the
// classify hot path pays nothing measurable while drift tracking is
// off. Arm installs the baseline and shard sketches; Disarm drops them.
type Monitor struct {
	armed atomic.Pointer[Armed]

	mu        sync.Mutex
	hooks     []func(CrossEvent)
	crossings atomic.Uint64 // upward crossings, lifetime
}

// NewMonitor returns a disarmed monitor.
func NewMonitor() *Monitor { return &Monitor{} }

// OnCross registers a hook invoked on every threshold crossing (both
// directions). Hooks survive re-arming. Safe before or after Arm.
func (m *Monitor) OnCross(fn func(CrossEvent)) {
	m.mu.Lock()
	m.hooks = append(m.hooks, fn)
	m.mu.Unlock()
}

// Arm installs a fresh armed state — new, empty shard sketches scored
// against cfg.Baseline. Re-arming swaps atomically: in-flight observers
// finish against the old state, new observations land in the new one.
func (m *Monitor) Arm(cfg MonitorConfig) error {
	if cfg.Baseline == nil {
		return fmt.Errorf("drift: arm: nil baseline")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = DefaultThreshold
	}
	if cfg.ScoreEvery <= 0 {
		cfg.ScoreEvery = 64
	}
	if cfg.Window <= 0 {
		cfg.Window = 4096
	}
	if cfg.MinObservations <= 0 {
		cfg.MinObservations = 256
	}
	a := &Armed{
		mon:        m,
		baseline:   cfg.Baseline,
		threshold:  cfg.Threshold,
		scoreEvery: uint64(cfg.ScoreEvery),
		minObs:     uint64(cfg.MinObservations),
		shards:     make([]*shardSketch, cfg.Shards),
	}
	for i := range a.shards {
		a.shards[i] = &shardSketch{b: NewBuilder(cfg.Baseline.Offsets, cfg.Window)}
	}
	m.armed.Store(a)
	return nil
}

// Armed returns the live armed state, or nil when the monitor is nil or
// disarmed — the single-atomic-load hot-path probe:
//
//	if da := mon.Armed(); da != nil { da.Observe(...) }
func (m *Monitor) Armed() *Armed {
	if m == nil {
		return nil
	}
	return m.armed.Load()
}

// Crossings returns the lifetime count of upward threshold crossings.
func (m *Monitor) Crossings() uint64 {
	if m == nil {
		return 0
	}
	return m.crossings.Load()
}

func (m *Monitor) fire(ev CrossEvent) {
	if ev.Up {
		m.crossings.Add(1)
	}
	m.mu.Lock()
	var hooks []func(CrossEvent)
	hooks = append(hooks, m.hooks...)
	m.mu.Unlock()
	for _, fn := range hooks {
		fn(ev)
	}
}

// CrossRecord is the journal record kind a crossing is written as.
const CrossRecord = "drift_cross"

// JournalHook returns an OnCross hook recording each crossing in j as one
// CrossRecord.
func JournalHook(j *telemetry.Journal) func(CrossEvent) {
	return func(ev CrossEvent) { _ = j.Event(CrossRecord, ev) }
}

// Armed is a monitor's live state: per-shard sketches plus the baseline
// and threshold they are scored against. Observation is serialized per
// shard by a mutex; score reads are atomic and scrape-cheap.
type Armed struct {
	mon        *Monitor
	baseline   *Profile
	threshold  float64
	scoreEvery uint64
	minObs     uint64
	shards     []*shardSketch

	// fleetMu serializes fleet merges + crossing detection so score and
	// above-state stay consistent; the resulting score is published
	// atomically for lock-free gauge reads.
	fleetMu        sync.Mutex
	fleetAbove     bool
	fleetScoreBits atomic.Uint64
	fleetDetail    atomic.Pointer[Score]
}

type shardSketch struct {
	mu        sync.Mutex
	b         *Builder
	above     bool // guarded by mu
	scoreBits atomic.Uint64
	detail    atomic.Pointer[Score]
}

// Shards returns the armed shard count.
func (a *Armed) Shards() int { return len(a.shards) }

// Threshold returns the armed alarm level.
func (a *Armed) Threshold() float64 { return a.threshold }

// Baseline returns the profile observations are scored against.
func (a *Armed) Baseline() *Profile { return a.baseline }

// Observe folds one digest into shard's sketch: its key, one byte per
// baseline offset in their order, the slow-path class (NoClass to skip the
// verdict mix), and the autoencoder residual (NoResidual to skip).
// Every ScoreEvery observations the shard and fleet scores are
// recomputed and threshold crossings fire the monitor's hooks.
func (a *Armed) Observe(shard int, key []byte, class int, residual float64) {
	sh := a.shards[((shard%len(a.shards))+len(a.shards))%len(a.shards)]
	sh.mu.Lock()
	sh.b.Observe(key, class, residual)
	n := sh.b.Count()
	if n < a.minObs || n%a.scoreEvery != 0 {
		sh.mu.Unlock()
		return
	}
	prof := sh.b.Profile()
	sc, err := Compute(a.baseline, prof)
	if err != nil {
		sh.mu.Unlock()
		return
	}
	sh.scoreBits.Store(math.Float64bits(sc.Total))
	sh.detail.Store(sc)
	var ev *CrossEvent
	if sc.Total > a.threshold && !sh.above {
		sh.above = true
		ev = &CrossEvent{Shard: shard, Up: true, Score: sc.Total, Threshold: a.threshold, Observations: n}
	} else if sc.Total <= a.threshold && sh.above {
		sh.above = false
		ev = &CrossEvent{Shard: shard, Up: false, Score: sc.Total, Threshold: a.threshold, Observations: n}
	}
	sh.mu.Unlock()
	if ev != nil {
		a.mon.fire(*ev)
	}
	a.recomputeFleet()
}

// recomputeFleet merges every shard profile, rescores, and fires fleet
// crossings.
func (a *Armed) recomputeFleet() {
	a.fleetMu.Lock()
	prof := a.FleetProfile()
	if prof.Count < a.minObs {
		a.fleetMu.Unlock()
		return
	}
	sc, err := Compute(a.baseline, prof)
	if err != nil {
		a.fleetMu.Unlock()
		return
	}
	a.fleetScoreBits.Store(math.Float64bits(sc.Total))
	a.fleetDetail.Store(sc)
	var ev *CrossEvent
	if sc.Total > a.threshold && !a.fleetAbove {
		a.fleetAbove = true
		ev = &CrossEvent{Shard: FleetShard, Up: true, Score: sc.Total, Threshold: a.threshold, Observations: prof.Count}
	} else if sc.Total <= a.threshold && a.fleetAbove {
		a.fleetAbove = false
		ev = &CrossEvent{Shard: FleetShard, Up: false, Score: sc.Total, Threshold: a.threshold, Observations: prof.Count}
	}
	a.fleetMu.Unlock()
	if ev != nil {
		a.mon.fire(*ev)
	}
}

// ShardScore returns shard i's last computed composite score (0 before
// the first ScoreEvery observations land).
func (a *Armed) ShardScore(i int) float64 {
	if i < 0 || i >= len(a.shards) {
		return 0
	}
	return math.Float64frombits(a.shards[i].scoreBits.Load())
}

// ShardObservations returns shard i's observation count.
func (a *Armed) ShardObservations(i int) uint64 {
	if i < 0 || i >= len(a.shards) {
		return 0
	}
	sh := a.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.b.Count()
}

// FleetScore returns the last computed merged-fleet composite score.
func (a *Armed) FleetScore() float64 {
	return math.Float64frombits(a.fleetScoreBits.Load())
}

// FleetDetail returns the last computed merged-fleet score breakdown,
// or nil before the first score point.
func (a *Armed) FleetDetail() *Score { return a.fleetDetail.Load() }

// ShardProfile snapshots shard i's sketches.
func (a *Armed) ShardProfile(i int) *Profile {
	if i < 0 || i >= len(a.shards) {
		return nil
	}
	sh := a.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.b.Profile()
}

// FleetProfile merges every shard's snapshot, in shard order, into one
// fleet-wide profile.
func (a *Armed) FleetProfile() *Profile {
	out := NewBuilder(a.baseline.Offsets, 0).Profile()
	out.Source = "fleet"
	for i := range a.shards {
		_ = out.Merge(a.ShardProfile(i)) // offsets match by construction
	}
	return out
}
