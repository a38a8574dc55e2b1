// Package controller implements the SDN controller side of the gateway:
// it deploys compiled rule sets to a fleet of switches over p4rt,
// classifies digests — the lookup keys of table misses — with the full
// stage-2 model as a slow path, and can reactively install exact-match
// drop entries for attacks the rules missed.
//
// A reactive controller keeps a mirror of each deployed rule shard — an
// index over the rows of the shard's desired program, built by the same
// internal/match engine the switch tables run — so it can predict a given
// switch's verdict for any digested key: reactive installs are
// suppressed when that switch's deployed shard already drops the key,
// keeping controller and switch provably in agreement.
//
// # Fleet sharding
//
// The controller owns a registry of N gateway switches, each assigned a
// shard index. Deploy partitions the distilled rule set with
// PlanShards (replicate or by-class) and programs every switch with its
// shard's rule set; all shards share the match-key layout and miss
// action, so the slow path is uniform. Digests fan in from every switch
// through a per-switch bounded queue drained round-robin by one worker —
// per switch and fleet-wide the accounting invariant
// Offered == Drained + Dropped + Depth holds at any quiescent point.
//
// # Fault tolerance
//
// Every switch connection is owned by a supervisor goroutine running a
// four-state machine (Connecting → Ready ⇄ Degraded → Closed). The
// controller holds the desired rule state — a program epoch (bumped by
// each Deploy) with one program per shard, plus the per-switch
// reactive entry log — and the supervisor reconciles the switch against
// it: when a connection dies it redials with jittered exponential backoff
// and replays the shard program and every reactive entry, so a switch
// restart converges back to the exact desired shard instead of silently
// running empty. Deploy therefore converges rather than errors
// when some switches are away: Ready switches are programmed
// synchronously, Degraded ones catch up on reconnect.
package controller

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"p4guard/internal/drift"
	"p4guard/internal/dtrace"
	"p4guard/internal/match"
	"p4guard/internal/p4"
	"p4guard/internal/p4rt"
	"p4guard/internal/rules"
	"p4guard/internal/telemetry"
)

// SlowPath classifies a digest's key, the bytes at MatchOffsets in their
// order, with the full trained model; 0 is benign. *p4guard.Pipeline
// satisfies it.
type SlowPath interface {
	ClassifyKey(key []byte) int
	MatchOffsets() []int
}

// Residualer is the optional SlowPath extension the drift monitor uses:
// models exposing an autoencoder reconstruction error of a key (like
// *p4guard.Pipeline) feed it into the residual-shift sketch. Models
// without it are observed with drift.NoResidual and scored on feature
// and verdict-mix drift alone.
type Residualer interface {
	Residual(key []byte) float64
}

// ConnState is one switch connection's position in the state machine.
type ConnState int32

// Connection states. Transitions: Connecting → Ready on a successful
// dial+reconcile; Ready → Degraded when the connection dies or an RPC
// fails; Degraded → Connecting on each redial attempt; anything → Closed
// on controller shutdown.
const (
	StateConnecting ConnState = iota
	StateReady
	StateDegraded
	StateClosed
)

// String names the state for logs, metrics labels, and journal records.
func (s ConnState) String() string {
	switch s {
	case StateConnecting:
		return "connecting"
	case StateReady:
		return "ready"
	case StateDegraded:
		return "degraded"
	case StateClosed:
		return "closed"
	default:
		return "unknown"
	}
}

// ConnStates lists every state, in order, for exporters that emit one
// series per state.
var ConnStates = []ConnState{StateConnecting, StateReady, StateDegraded, StateClosed}

// Config controls controller behaviour.
type Config struct {
	// Name identifies the controller in handshakes.
	Name string
	// Reactive enables exact-match drop installation for slow-path hits.
	Reactive bool
	// ReactivePriority is the priority reactive entries carry (must beat
	// compiled rules to stick; default 1<<20, at most math.MaxInt32).
	ReactivePriority int
	// QueueDepth bounds each switch's digest fan-in queue, in batches
	// (default 1024). One overloaded switch fills only its own queue;
	// overflow is dropped with accounting, never blocking the p4rt read
	// loop or starving the other switches' digests.
	QueueDepth int
	// Shards is the number of rule shards the fleet is partitioned into
	// (default 1: every switch runs the same shard).
	Shards int
	// Policy selects how Deploy splits the rule set across shards
	// (default ShardReplicate).
	Policy ShardPolicy
	// Journal, when non-nil, receives a record for every digest round trip
	// (classify outcome, monotonic duration), rule-set deploy, connection
	// state change, and reconciliation — and, with Drift, every drift
	// threshold crossing.
	Journal *telemetry.Journal
	// RPCTimeout bounds each p4rt call when the caller's context carries
	// no deadline (default p4rt.DefaultRPCTimeout).
	RPCTimeout time.Duration
	// ReconnectMin/ReconnectMax bound the jittered exponential backoff
	// between redial attempts (defaults 50ms and 3s).
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// Seed drives backoff jitter (default 1); fixed seeds keep soak runs
	// reproducible.
	Seed int64
	// Dialer overrides the transport dialer (fault injection in tests,
	// netsim topology dialing in emulated fabrics).
	Dialer p4rt.Dialer
	// Tracer, when non-nil and armed, records distributed-trace spans for
	// the digest round trip (fan-in wait → classify → plan → install) and
	// rule-set deploys, stitched to switch-side spans via the p4rt wire's
	// trace context. A nil or disarmed tracer costs one atomic load per
	// span site.
	Tracer *dtrace.Tracer
	// Drift, when non-nil and armed, receives every digest the slow path
	// classifies — keyed by the source switch's shard — and scores the
	// live sketches against the armed baseline profile. A nil or disarmed
	// monitor costs at most one atomic load per digest. Threshold
	// crossings are recorded in the Journal (drift.CrossRecord) when one
	// is attached.
	Drift *drift.Monitor
}

// Option mutates a Config before the controller starts; the functional-
// options surface of New.
type Option func(*Config)

// WithJournal wires the journal the control loop records into.
func WithJournal(j *telemetry.Journal) Option {
	return func(c *Config) { c.Journal = j }
}

// WithReactive toggles reactive exact-drop installation.
func WithReactive(on bool) Option {
	return func(c *Config) { c.Reactive = on }
}

// WithRPCTimeout sets the per-RPC deadline used when a call context has
// none.
func WithRPCTimeout(d time.Duration) Option {
	return func(c *Config) { c.RPCTimeout = d }
}

// WithReconnectBackoff bounds the jittered exponential redial backoff.
func WithReconnectBackoff(min, max time.Duration) Option {
	return func(c *Config) { c.ReconnectMin, c.ReconnectMax = min, max }
}

// WithDialer substitutes the transport dialer (internal/netsim).
func WithDialer(d p4rt.Dialer) Option {
	return func(c *Config) { c.Dialer = d }
}

// WithShards sets the fleet's shard count.
func WithShards(n int) Option {
	return func(c *Config) { c.Shards = n }
}

// WithShardPolicy sets the rule-partitioning policy.
func WithShardPolicy(p ShardPolicy) Option {
	return func(c *Config) { c.Policy = p }
}

// WithTracer attaches the distributed tracer the controller records
// digest-round-trip and deploy spans into.
func WithTracer(tr *dtrace.Tracer) Option {
	return func(c *Config) { c.Tracer = tr }
}

// WithDrift attaches the drift monitor the controller feeds slow-path
// digests into.
func WithDrift(m *drift.Monitor) Option {
	return func(c *Config) { c.Drift = m }
}

// Stats counts controller activity.
type Stats struct {
	DigestsProcessed int `json:"digests_processed"`
	SlowPathAttacks  int `json:"slow_path_attacks"`
	SlowPathBenign   int `json:"slow_path_benign"`
	ReactiveInstalls int `json:"reactive_installs"`
	// MirrorSuppressed counts reactive installs skipped because the
	// deployment mirror proved the data plane already drops the key.
	MirrorSuppressed int `json:"mirror_suppressed"`
	// Deploys counts successful Deploy calls; DeployedRules the
	// rows shipped by the most recent one, summed across shards.
	Deploys       int `json:"deploys"`
	DeployedRules int `json:"deployed_rules"`
	// DroppedBatches counts digest batches a switch's fan-in refused, full
	// or keyed at other offsets than the slow path's, fleet-wide.
	DroppedBatches int `json:"dropped_batches"`
	// Reconnects counts successful redials after a connection died;
	// Reconciles counts desired-state replays onto a switch (initial
	// connect included); ReplayedEntries the reactive entries re-installed
	// by those replays.
	Reconnects      int `json:"reconnects"`
	Reconciles      int `json:"reconciles"`
	ReplayedEntries int `json:"replayed_entries"`
	// DeltaApplies counts epoch advances installed as incremental deltas
	// (vs full program swaps); DeltaFallbacks counts delta pushes a
	// switch rejected (a base mismatch) that converged via the full-swap
	// fallback instead. CompressedRules counts rules removed by
	// the most recent deploy's compression pass, summed across shards.
	DeltaApplies    int `json:"delta_applies"`
	DeltaFallbacks  int `json:"delta_fallbacks"`
	CompressedRules int `json:"compressed_rules"`
	// RefusedEntries counts reactive rows a switch refused, live or on
	// replay; each left the reactive log.
	RefusedEntries int `json:"refused_entries"`
}

// String renders the stats in the key=value form p4guard-ctl prints.
func (s Stats) String() string {
	return fmt.Sprintf("digests=%d slow_benign=%d slow_attack=%d reactive_installs=%d suppressed=%d deploys=%d reconnects=%d reconciles=%d",
		s.DigestsProcessed, s.SlowPathBenign, s.SlowPathAttacks, s.ReactiveInstalls, s.MirrorSuppressed, s.Deploys, s.Reconnects, s.Reconciles)
}

// desired is the controller's intended rule state: one program per shard.
// The epoch increments on each Deploy; the reconciler compares a
// switch's applied epoch (and reactive watermark) against it and replays
// the difference for that switch's shard.
type desired struct {
	valid  bool
	epoch  uint64
	shards []p4rt.Program
	// index[i] mirrors shards[i]: row id r is Entries[r]. Nil unless Reactive.
	index []*match.KeyIndex
	// deltas[i], when non-nil, is the incremental edit that advances a
	// switch holding shard i's epoch-1 program to this epoch without a
	// full table swap (and without wiping its reactive entries). Only
	// minted by Deploy(WithDeltaOnly) when the previous epoch's shard
	// program is a valid, worthwhile delta base.
	deltas []*p4rt.DeltaMsg
	// at is when the epoch was minted; the reconciler measures epoch
	// propagation latency (deploy → applied on a given switch) against it.
	at time.Time
}

// FanInStats is one switch's digest fan-in accounting (Dropped: see
// enqueue). At any quiescent point Offered == Drained + Dropped + Depth.
type FanInStats struct {
	Offered uint64 `json:"offered"`
	Drained uint64 `json:"drained"`
	Dropped uint64 `json:"dropped"`
	Depth   int    `json:"depth"`
}

// SwitchStatus is one switch's position in the fleet: identity, shard
// assignment, connection state, reconcile watermarks, and fan-in
// accounting. Snapshots are lock-cheap — no RPC-bearing lock is taken —
// so status stays responsive while a reconcile is replaying entries.
type SwitchStatus struct {
	Addr            string `json:"addr"`
	Name            string `json:"name,omitempty"`
	Node            string `json:"node,omitempty"`
	Shard           int    `json:"shard"`
	State           string `json:"state"`
	DesiredEpoch    uint64 `json:"desired_epoch"`
	AppliedEpoch    uint64 `json:"applied_epoch"`
	ReactiveLog     int    `json:"reactive_log"`
	AppliedReactive int    `json:"applied_reactive"`
	Reconnects      uint64 `json:"reconnects"`
	Reconciles      uint64 `json:"reconciles"`
	Replayed        uint64 `json:"replayed"`
	Digests         uint64 `json:"digests"`
	Installs        uint64 `json:"installs"`
	// EpochLatencyNs is how long the most recent program epoch took to
	// propagate from Deploy to this switch (0 until measured).
	EpochLatencyNs int64      `json:"epoch_latency_ns"`
	FanIn          FanInStats `json:"fan_in"`
}

// Controller manages a fleet of switch connections.
type Controller struct {
	cfg   Config
	model SlowPath

	ctx    context.Context // cancelled by Close; gates every supervisor
	cancel context.CancelFunc

	mu      sync.Mutex
	conns   map[string]*swConn
	fleet   []*swConn // join order, for status and deterministic iteration
	joined  int       // lifetime joins, drives auto shard assignment
	desired desired
	stats   Stats
	closed  bool

	// Digest fan-in: per-switch bounded queues drained round-robin by the
	// worker. fanMu guards every queue plus its counters; it is never
	// held while mu is held (and vice versa) — the two domains only meet
	// in snapshot methods, which take them in sequence, not nested.
	fanMu    sync.Mutex
	fanCond  *sync.Cond
	fanOpen  bool
	fanConns []*swConn
	rr       int // round-robin cursor into fanConns

	workerWg sync.WaitGroup // digest worker
	superWg  sync.WaitGroup // connection supervisors

	// digestHist accumulates digest→install latency (fan-in enqueue to
	// install ack) for fleet health quantiles; always on — one observation
	// per reactive install, far off the per-packet path.
	digestHist *telemetry.Histogram

	// driftResidualHist, when registered, receives each observed residual
	// — the histogram RegisterFleetTelemetry exports.
	driftResidualHist atomic.Pointer[telemetry.Histogram]
}

// swConn is one supervised switch connection. opMu serializes RPC-bearing
// operations (reconcile, deploy push, reactive install) against the
// supervisor's replay, so the desired-state log is applied in order.
// reactiveRow is one entry of a switch's reactive log: the key it drops
// and the class the slow path gave it. The log outlives every install, so
// it keeps these 24 bytes — the key is the string swConn.seen holds, not a
// second copy — and the wire entry is built when one is sent.
type reactiveRow struct {
	key   string
	class int
}

// wireEntry is the exact match a reactive row installs, expressed as a
// degenerate range (lo==hi) at the reactive priority. Lo and Hi are both
// key itself, not copies: the encoder only reads them, and the table at the
// other end copies what it keeps (p4.Table.Insert).
func (c *Controller) wireEntry(key []byte, class int) p4rt.WireEntry {
	return p4rt.WireEntry{
		Priority: c.cfg.ReactivePriority,
		Lo:       key,
		Hi:       key,
		Action:   p4rt.FormatAction(p4.ActionDrop),
		Class:    class,
	}
}

type swConn struct {
	addr  string
	shard int
	state atomic.Int32

	opMu     sync.Mutex
	client   *p4rt.Client // nil while down
	reactive []reactiveRow

	// Watermarks are written under opMu but read lock-free by status
	// snapshots, so a slow reconcile never blocks FleetStatus.
	appliedEpoch    atomic.Uint64
	appliedReactive atomic.Uint64
	reactiveLen     atomic.Uint64

	name string              // switch name from the last handshake; guarded by Controller.mu
	node string              // fabric node from the last handshake; guarded by Controller.mu
	seen map[string]struct{} // reactive keys installed on THIS switch; guarded by Controller.mu

	reconnects     atomic.Uint64
	reconciles     atomic.Uint64
	replayed       atomic.Uint64
	digests        atomic.Uint64
	installs       atomic.Uint64
	epochLatencyNs atomic.Int64 // last epoch's deploy→applied latency
	rng            *rand.Rand   // jitter; supervisor goroutine only

	// Fan-in queue; guarded by Controller.fanMu.
	fanQ       []fanBatch
	fanOffered uint64
	fanDrained uint64
	fanDropped uint64
}

// fanBatch is one queued digest batch plus its fan-in arrival time — the
// start of the fanin_wait trace stage and of the digest→install latency
// measurement.
type fanBatch struct {
	digests []p4rt.WireDigest
	at      time.Time
}

func (sc *swConn) setState(s ConnState) { sc.state.Store(int32(s)) }

// State returns the connection's current position in the state machine.
func (sc *swConn) State() ConnState { return ConnState(sc.state.Load()) }

// New builds a controller around a trained slow-path model. Options are
// applied over cfg, so callers mix the struct and functional styles.
func New(model SlowPath, cfg Config, opts ...Option) *Controller {
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.Name == "" {
		cfg.Name = "p4guard-controller"
	}
	if cfg.ReactivePriority <= 0 {
		cfg.ReactivePriority = 1 << 20
	}
	cfg.ReactivePriority = min(cfg.ReactivePriority, math.MaxInt32) // the wire's priorities are 32-bit
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = p4rt.DefaultRPCTimeout
	}
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = 50 * time.Millisecond
	}
	if cfg.ReconnectMax < cfg.ReconnectMin {
		cfg.ReconnectMax = 3 * time.Second
		if cfg.ReconnectMax < cfg.ReconnectMin {
			cfg.ReconnectMax = cfg.ReconnectMin
		}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Controller{
		cfg:        cfg,
		model:      model,
		ctx:        ctx,
		cancel:     cancel,
		conns:      make(map[string]*swConn),
		fanOpen:    true,
		digestHist: telemetry.NewHistogram(digestInstallBuckets),
	}
	if cfg.Drift != nil && cfg.Journal != nil {
		cfg.Drift.OnCross(drift.JournalHook(cfg.Journal))
	}
	c.fanCond = sync.NewCond(&c.fanMu)
	c.workerWg.Add(1)
	go func() {
		defer c.workerWg.Done()
		c.worker()
	}()
	return c
}

// dial connects to the switch, its digests feeding its fan-in queue.
func (c *Controller) dial(ctx context.Context, sc *swConn) (*p4rt.Client, error) {
	opts := []p4rt.ClientOption{p4rt.WithRPCTimeout(c.cfg.RPCTimeout)}
	if c.cfg.Dialer != nil {
		opts = append(opts, p4rt.WithDialer(c.cfg.Dialer))
	}
	return p4rt.DialContext(ctx, sc.addr, c.cfg.Name, func(msg p4rt.DigestMsg) { c.enqueue(sc, msg) }, opts...)
}

// recordState logs a state transition to the journal.
func (c *Controller) recordState(sc *swConn, s ConnState, extra map[string]any) {
	sc.setState(s)
	if j := c.cfg.Journal; j != nil {
		fields := map[string]any{"switch": sc.addr, "state": s.String()}
		for k, v := range extra {
			fields[k] = v
		}
		_ = j.Event("conn_state", fields)
	}
}

// shardCount returns the configured shard count (always >= 1).
func (c *Controller) shardCount() int { return c.cfg.Shards }

// Connect dials a switch agent with an automatically assigned shard
// (join order modulo the shard count, so a homogeneous fleet balances
// itself). See ConnectShard.
func (c *Controller) Connect(ctx context.Context, addr string) error {
	return c.ConnectShard(ctx, addr, -1)
}

// ConnectShard dials a switch agent, assigns it to a shard (shard < 0
// auto-assigns by join order), and brings it to Ready — reconciling any
// already-deployed shard program — before returning. The initial dial is
// bounded by ctx and fails fast — no background retry — so callers learn
// about bad addresses immediately; after the first success a supervisor
// owns the connection and redials on every failure until Close. Digest
// handling runs on the controller's worker goroutine via the switch's
// bounded fan-in queue, so the p4rt read loop is never blocked by
// reactive RPCs.
func (c *Controller) ConnectShard(ctx context.Context, addr string, shard int) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("controller: closed")
	}
	if _, dup := c.conns[addr]; dup {
		c.mu.Unlock()
		return fmt.Errorf("controller: already connected to %s", addr)
	}
	if shard < 0 {
		shard = c.joined % c.shardCount()
	} else {
		shard = shard % c.shardCount()
	}
	c.joined++
	sc := &swConn{
		addr:  addr,
		shard: shard,
		seen:  make(map[string]struct{}),
		rng:   rand.New(rand.NewSource(c.cfg.Seed ^ int64(len(c.conns)+1)*0x9E3779B9)),
	}
	sc.setState(StateConnecting)
	c.conns[addr] = sc
	c.fleet = append(c.fleet, sc)
	c.mu.Unlock()
	c.fanMu.Lock()
	c.fanConns = append(c.fanConns, sc)
	c.fanMu.Unlock()

	cl, err := c.dial(ctx, sc)
	if err != nil {
		c.unregister(sc)
		return fmt.Errorf("controller: connect %s: %w", addr, err)
	}
	sc.opMu.Lock()
	sc.client = cl
	if err := c.reconcileLocked(ctx, sc, nil); err != nil {
		sc.client = nil
		sc.opMu.Unlock()
		_ = cl.Close()
		c.unregister(sc)
		return fmt.Errorf("controller: connect %s: %w", addr, err)
	}
	sc.opMu.Unlock()
	c.setIdentity(sc, cl)
	c.recordState(sc, StateReady, map[string]any{"name": cl.ServerName()})
	if j := c.cfg.Journal; j != nil {
		_ = j.Event("connect", map[string]any{
			"switch": addr, "name": cl.ServerName(), "node": cl.ServerNode(), "shard": shard,
		})
	}
	c.superWg.Add(1)
	go func() {
		defer c.superWg.Done()
		c.supervise(sc, cl)
	}()
	return nil
}

// setIdentity records the handshake identity under the registry lock.
func (c *Controller) setIdentity(sc *swConn, cl *p4rt.Client) {
	c.mu.Lock()
	sc.name = cl.ServerName()
	sc.node = cl.ServerNode()
	c.mu.Unlock()
}

// unregister rolls back a failed initial connect: the switch leaves the
// registry, the fleet, and the fan-in rotation, and its join is refunded
// so the next auto-assignment lands on the same shard.
func (c *Controller) unregister(sc *swConn) {
	c.mu.Lock()
	delete(c.conns, sc.addr)
	for i, other := range c.fleet {
		if other == sc {
			c.fleet = append(c.fleet[:i], c.fleet[i+1:]...)
			break
		}
	}
	c.joined--
	c.mu.Unlock()
	c.fanMu.Lock()
	for i, other := range c.fanConns {
		if other == sc {
			c.fanConns = append(c.fanConns[:i], c.fanConns[i+1:]...)
			break
		}
	}
	c.fanMu.Unlock()
}

// supervise owns one connection after its initial success: it waits for
// the connection to die, then runs the redial/reconcile loop until the
// controller closes.
func (c *Controller) supervise(sc *swConn, cl *p4rt.Client) {
	for {
		select {
		case <-c.ctx.Done():
			if cl != nil {
				_ = cl.Close()
			}
			c.recordState(sc, StateClosed, nil)
			return
		case <-cl.Done():
			_ = cl.Close()
			sc.opMu.Lock()
			sc.client = nil
			sc.opMu.Unlock()
			c.recordState(sc, StateDegraded, nil)
		}
		next, err := c.redial(sc)
		if err != nil {
			c.recordState(sc, StateClosed, nil)
			return
		}
		cl = next
	}
}

// redial reconnects with jittered exponential backoff until dial AND
// reconcile both succeed, or the controller closes. A restarted switch
// comes back empty, so the applied watermarks are reset before the
// reconcile: the full shard program and every reactive entry are
// replayed.
func (c *Controller) redial(sc *swConn) (*p4rt.Client, error) {
	backoff := c.cfg.ReconnectMin
	for attempt := 1; ; attempt++ {
		select {
		case <-c.ctx.Done():
			return nil, c.ctx.Err()
		default:
		}
		c.recordState(sc, StateConnecting, map[string]any{"attempt": attempt})
		dctx, cancel := context.WithTimeout(c.ctx, c.cfg.RPCTimeout)
		cl, err := c.dial(dctx, sc)
		cancel()
		if err == nil {
			sc.opMu.Lock()
			sc.client = cl
			// The peer may be a fresh process: assume nothing survived.
			sc.appliedEpoch.Store(0)
			sc.appliedReactive.Store(0)
			rerr := c.reconcileLocked(c.ctx, sc, nil)
			if rerr != nil {
				sc.client = nil
			}
			sc.opMu.Unlock()
			if rerr == nil {
				c.setIdentity(sc, cl)
				sc.reconnects.Add(1)
				c.bumpStat(func(s *Stats) { s.Reconnects++ })
				c.recordState(sc, StateReady, map[string]any{"attempt": attempt, "name": cl.ServerName()})
				return cl, nil
			}
			_ = cl.Close()
			if errors.Is(rerr, context.Canceled) {
				return nil, rerr
			}
		}
		c.recordState(sc, StateDegraded, map[string]any{"attempt": attempt})
		// Full jitter over [backoff/2, backoff): desynchronizes herds of
		// controllers hammering a rebooting switch.
		d := backoff/2 + time.Duration(sc.rng.Int63n(int64(backoff/2)+1))
		select {
		case <-c.ctx.Done():
			return nil, c.ctx.Err()
		case <-time.After(d):
		}
		backoff *= 2
		if backoff > c.cfg.ReconnectMax {
			backoff = c.cfg.ReconnectMax
		}
	}
}

// shardProgram picks the desired program for a switch's shard.
func (d desired) shardProgram(shard int) p4rt.Program {
	if len(d.shards) == 0 {
		return p4rt.Program{}
	}
	return d.shards[shard%len(d.shards)]
}

// drops reports whether the shard's desired program drops a digest's key,
// gathered at offsets: its mirror finds the key on a row whose class the
// data plane drops. A program keyed on other offsets judges no such key.
func (d *desired) drops(shard int, offsets []int, key []byte) bool {
	if len(d.index) == 0 {
		return false
	}
	i := shard % len(d.index)
	prog := &d.shards[i]
	if !slices.Equal(prog.Offsets, offsets) {
		return false
	}
	row, ok := d.index[i].Find(key)
	return ok && rules.ActionForClass(prog.Entries[row].Class) == rules.ActionDrop
}

// shardDelta picks the shard's incremental edit from epoch-1 to this
// epoch, nil when only a full swap can converge the switch.
func (d desired) shardDelta(shard int) *p4rt.DeltaMsg {
	if len(d.deltas) == 0 {
		return nil
	}
	return d.deltas[shard%len(d.deltas)]
}

// shardBodies is one Deploy call's full programs, each encoded at most
// once however many switches of its shard take it as a full swap, and not
// at all — nothing here is allocated — when every one of them converges
// by delta. It belongs to the call and its one goroutine: the desired
// state keeps the programs, never the bytes, and a supervisor's replay
// encodes its own.
type shardBodies struct {
	epoch   uint64
	progs   []p4rt.Program // the desired state's: read, never written
	enc     []p4rt.Program // enc[i] is progs[i] carrying its body, once a switch needed it
	release []func()       // release[i] hands enc[i]'s buffer back
}

// program returns the shard's program for a full swap, encoding it first
// if no switch has needed it yet.
func (b *shardBodies) program(shard int) p4rt.Program {
	i := shard % len(b.progs)
	if b.enc == nil {
		b.enc, b.release = make([]p4rt.Program, len(b.progs)), make([]func(), len(b.progs))
	}
	if b.release[i] == nil {
		b.enc[i], b.release[i] = b.progs[i].Encoded()
	}
	return b.enc[i]
}

// encodes is the number of shards encoded so far.
func (b *shardBodies) encodes() (n int) {
	for _, r := range b.release {
		if r != nil {
			n++
		}
	}
	return n
}

// done hands every encoded body back for reuse.
func (b *shardBodies) done() {
	for _, r := range b.release {
		if r != nil {
			r()
		}
	}
}

// reconcileLocked replays the desired state the switch is missing: its
// shard's current program when the switch's epoch is stale (which wipes
// the table, so all reactive entries follow), otherwise just the
// un-replayed reactive tail. Callers hold sc.opMu and have sc.client
// non-nil. bodies, from Deploy alone, are the programs of the epoch that
// call minted, sent in place of the desired state's while that epoch is
// still the desired one.
func (c *Controller) reconcileLocked(ctx context.Context, sc *swConn, bodies *shardBodies) error {
	c.mu.Lock()
	want := c.desired
	c.mu.Unlock()

	cl := sc.client
	replayedProg := false
	deltaApplied := false
	var replayedEntries int
	if want.valid && sc.appliedEpoch.Load() < want.epoch {
		// A switch exactly one epoch behind can advance with the deploy's
		// precomputed delta: no full table swap, reactive entries and
		// surviving counters stay live. Anything else — older epochs, a
		// base-signature mismatch on the switch — converges via the full
		// program swap.
		if d := want.shardDelta(sc.shard); d != nil && sc.appliedEpoch.Load() == want.epoch-1 {
			if _, err := cl.ProgramDelta(ctx, *d); err == nil {
				deltaApplied = true
				c.bumpStat(func(s *Stats) { s.DeltaApplies++ })
			} else if errors.Is(err, p4rt.ErrRejected) {
				// The switch refused this epoch's delta (its base differs):
				// the full swap below converges it.
				c.bumpStat(func(s *Stats) { s.DeltaFallbacks++ })
			} else {
				return fmt.Errorf("reconcile %s: delta epoch %d shard %d: %w", sc.addr, want.epoch, sc.shard, err)
			}
		}
		if !deltaApplied {
			prog := want.shardProgram(sc.shard)
			if bodies != nil && bodies.epoch == want.epoch {
				prog = bodies.program(sc.shard)
			}
			if _, err := cl.ProgramDetector(ctx, prog); err != nil {
				return fmt.Errorf("reconcile %s: program epoch %d shard %d: %w", sc.addr, want.epoch, sc.shard, err)
			}
			sc.appliedReactive.Store(0) // Program replaced the table: replay all
			replayedProg = true
		}
		sc.appliedEpoch.Store(want.epoch)
		if !want.at.IsZero() {
			sc.epochLatencyNs.Store(time.Since(want.at).Nanoseconds())
		}
	}
	for int(sc.appliedReactive.Load()) < len(sc.reactive) {
		i := int(sc.appliedReactive.Load())
		row := sc.reactive[i]
		_, err := cl.WriteEntry(ctx, c.wireEntry([]byte(row.key), row.class))
		switch {
		case err == nil:
			sc.appliedReactive.Add(1)
			replayedEntries++
		case errors.Is(err, p4rt.ErrRejected):
			c.refuseLocked(sc, i)
		default:
			return fmt.Errorf("reconcile %s: reactive entry %d/%d: %w", sc.addr, i+1, len(sc.reactive), err)
		}
	}
	sc.reconciles.Add(1)
	c.bumpStat(func(s *Stats) {
		s.Reconciles++
		s.ReplayedEntries += replayedEntries
	})
	sc.replayed.Add(uint64(replayedEntries))
	if j := c.cfg.Journal; j != nil {
		_ = j.Event("reconcile", map[string]any{
			"switch":   sc.addr,
			"epoch":    want.epoch,
			"shard":    sc.shard,
			"program":  replayedProg,
			"reactive": replayedEntries,
		})
	}
	return nil
}

// refuseLocked drops row i of the switch's reactive log: the switch
// refused it, as a table whose key layout differs from the slow path's
// does, and a row kept would be refused again on every replay. Callers
// hold sc.opMu.
func (c *Controller) refuseLocked(sc *swConn, i int) {
	sc.reactive = slices.Delete(sc.reactive, i, i+1)
	sc.reactiveLen.Store(uint64(len(sc.reactive)))
	c.bumpStat(func(s *Stats) { s.RefusedEntries++ })
}

func (c *Controller) bumpStat(fn func(*Stats)) {
	c.mu.Lock()
	fn(&c.stats)
	c.mu.Unlock()
}

// enqueue appends one digest batch to the switch's fan-in queue, dropping
// it (with accounting) when the queue is at depth or its keys were gathered
// at other offsets than the slow path reads. Called from the p4rt read
// loop, so it must never block: a stalled worker costs batches, not
// connections. The invariant fanOffered == fanDrained + fanDropped +
// len(fanQ) holds under fanMu at every return.
func (c *Controller) enqueue(sc *swConn, msg p4rt.DigestMsg) {
	now := time.Now()
	ours := slices.Equal(msg.Offsets, c.model.MatchOffsets())
	c.fanMu.Lock()
	sc.fanOffered++
	if !c.fanOpen || len(sc.fanQ) >= c.cfg.QueueDepth || !ours {
		sc.fanDropped++
		c.fanMu.Unlock()
		return
	}
	sc.fanQ = append(sc.fanQ, fanBatch{digests: msg.Digests, at: now})
	c.fanMu.Unlock()
	c.fanCond.Signal()
}

// nextBatch blocks until some switch has a queued digest batch, then pops
// one round-robin — the cursor advances past the serviced switch, so a
// chatty gateway cannot starve the rest of the fleet. Returns ok=false
// only when the fan-in is closed AND every queue is drained: pending
// digests are processed, not abandoned, on shutdown.
func (c *Controller) nextBatch() (*swConn, fanBatch, bool) {
	c.fanMu.Lock()
	defer c.fanMu.Unlock()
	for {
		if n := len(c.fanConns); n > 0 {
			for i := 0; i < n; i++ {
				sc := c.fanConns[(c.rr+i)%n]
				if len(sc.fanQ) == 0 {
					continue
				}
				batch := sc.fanQ[0]
				sc.fanQ[0] = fanBatch{}
				sc.fanQ = sc.fanQ[1:]
				if len(sc.fanQ) == 0 {
					sc.fanQ = nil // release the drained backing array
				}
				sc.fanDrained++
				c.rr = (c.rr + i + 1) % n
				return sc, batch, true
			}
		}
		if !c.fanOpen {
			return nil, fanBatch{}, false
		}
		c.fanCond.Wait()
	}
}

// worker drains digest batches round-robin across the fleet: slow-path
// classify, optionally react.
func (c *Controller) worker() {
	for {
		sc, batch, ok := c.nextBatch()
		if !ok {
			return
		}
		for _, d := range batch.digests {
			c.handleDigest(sc, d, batch.at)
		}
	}
}

// chainCtx advances a trace chain: the finished span's context when it
// was recorded, else the previous context (so a disarmed local tracer
// still forwards the wire context downstream).
func chainCtx(prev dtrace.SpanContext, sp dtrace.ActiveSpan) dtrace.SpanContext {
	if sp.Active() {
		return sp.Context()
	}
	return prev
}

// handleDigest runs one digest through the slow path and the reactive
// decision, recording the whole round trip in the journal as one record
// of kind "digest" with the switch address, the slow-path class, the final
// decision, and the monotonic duration of classify+decide+install.
// When the digest carries wire trace context and the controller tracer
// is armed, the round trip is also recorded as chained trace stages —
// fanin_wait (fan-in enqueue → here) → classify → plan → install — each
// parented to its predecessor so the whole digest path assembles into
// one critical-path chain with the switch-side digest_wait root.
// Dedup and mirror suppression are per switch: two switches digesting the
// same attack each get their own reactive entry, because each enforces
// only its own shard.
func (c *Controller) handleDigest(sc *swConn, d p4rt.WireDigest, arrived time.Time) {
	j := c.cfg.Journal
	var start time.Time
	if j != nil {
		start = time.Now()
	}
	decision := "attack"

	tr := c.cfg.Tracer
	ctx := dtrace.SpanContext{Trace: dtrace.TraceID(d.TraceID), Span: dtrace.SpanID(d.SpanID)}
	fanSpan := tr.StartSpanAt(ctx, dtrace.StageFanInWait, arrived)
	fanSpan.End() // fan-in wait ended the moment handling started
	ctx = chainCtx(ctx, fanSpan)

	clsSpan := tr.StartSpan(ctx, dtrace.StageClassify)
	key := d.Key // the batch's own: no read buffer is reused under it
	class := c.model.ClassifyKey(key)
	clsSpan.End()
	ctx = chainCtx(ctx, clsSpan)
	sc.digests.Add(1)

	// Drift observation: one atomic load when the monitor is disarmed or
	// absent; the residual forward pass runs only while armed. The key is
	// the sketch's input only under the baseline's own offsets.
	if da := c.cfg.Drift.Armed(); da != nil && slices.Equal(da.Baseline().Offsets, c.model.MatchOffsets()) {
		res := drift.NoResidual
		if r, ok := c.model.(Residualer); ok {
			res = r.Residual(key)
		}
		da.Observe(sc.shard, key, class, res)
		if h := c.driftResidualHist.Load(); h != nil && !math.IsNaN(res) {
			h.Observe(res)
		}
	}

	planSpan := tr.StartSpan(ctx, dtrace.StagePlan)
	c.mu.Lock()
	c.stats.DigestsProcessed++
	var install bool
	var row reactiveRow
	switch {
	case class == 0:
		c.stats.SlowPathBenign++
		decision = "benign"
	default:
		c.stats.SlowPathAttacks++
		if c.cfg.Reactive {
			// The deployment mirror runs the same engine as the switch
			// table over this switch's shard program. When the shard
			// already drops this key the digest is stale (raced a
			// deploy) and an exact-match entry would only waste TCAM.
			if c.desired.drops(sc.shard, c.model.MatchOffsets(), key) {
				c.stats.MirrorSuppressed++
				decision = "suppressed"
				break
			}
			if _, dup := sc.seen[string(key)]; dup {
				decision = "duplicate"
				break
			}
			// One string is the key's only retained copy, the map's and the
			// log row's; the bytes go out in the first install and are dropped.
			row = reactiveRow{key: string(key), class: class}
			sc.seen[row.key] = struct{}{}
			install = true
		}
	}
	c.mu.Unlock()
	planSpan.End()
	ctx = chainCtx(ctx, planSpan)

	if install {
		instSpan := tr.StartSpan(ctx, dtrace.StageInstall)
		if instSpan.Active() {
			// The key joins the trace to the packet's explain record.
			instSpan.SetAttr("switch", sc.addr)
			instSpan.SetAttr("key", hex.EncodeToString(key))
		}
		ctx = chainCtx(ctx, instSpan)
		// The row joins the switch's desired reactive log first, so even
		// if the write races a connection failure the reconciler replays
		// it.
		entry := c.wireEntry(key, class)
		sc.opMu.Lock()
		sc.reactive = append(sc.reactive, row)
		sc.reactiveLen.Store(uint64(len(sc.reactive)))
		cl := sc.client
		var err error
		if cl == nil {
			err = p4rt.ErrConnClosed
		} else {
			// The traced write carries the install span's context so the
			// switch records its apply span nested under it.
			_, err = cl.WriteEntryTraced(c.ctx, entry, uint64(ctx.Trace), uint64(ctx.Span))
			switch {
			case err == nil:
				sc.appliedReactive.Add(1)
			case errors.Is(err, p4rt.ErrRejected):
				c.refuseLocked(sc, len(sc.reactive)-1)
			}
		}
		sc.opMu.Unlock()
		instSpan.End()
		if err == nil {
			decision = "install"
			sc.installs.Add(1)
			c.bumpStat(func(s *Stats) { s.ReactiveInstalls++ })
			if !arrived.IsZero() {
				c.digestHist.Observe(time.Since(arrived).Seconds())
			}
		} else if errors.Is(err, p4rt.ErrRejected) {
			decision = "install_refused"
		} else {
			// The entry stays in the desired log; the supervisor replays
			// it once the switch is back.
			decision = "install_deferred"
		}
	}
	if j != nil {
		_ = j.Event("digest", map[string]any{
			"switch":   sc.addr,
			"class":    class,
			"decision": decision,
			"dur_ns":   time.Since(start).Nanoseconds(),
		})
	}
}

// DeployOption customizes a Deploy call.
type DeployOption func(*deployConfig)

type deployConfig struct {
	miss      p4.Action
	compress  int
	deltaOnly bool
}

// WithMissAction sets the detector's default action for this deployment:
// digest keeps the slow path in the loop (the default), allow runs
// open-loop.
func WithMissAction(a p4.Action) DeployOption {
	return func(c *deployConfig) { c.miss = a }
}

// WithCompression runs the verdict-preserving rules.Compress pass at the
// given level (see rules.Compress) before sharding, so switches are
// programmed with the smaller equivalent rule set. Level 0 (the default)
// deploys the rule set as given.
func WithCompression(level int) DeployOption {
	return func(c *deployConfig) { c.compress = level }
}

// WithDeltaOnly asks Deploy to diff each shard's new program against the
// previous deployment and record per-shard deltas alongside the full
// programs. Switches exactly one epoch behind then converge via the
// delta (preserving live counters and reactive entries); everything else
// — older switches, pre-delta peers, base-signature mismatches — still
// converges via the full program, so the option is always safe.
func WithDeltaOnly() DeployOption {
	return func(c *deployConfig) { c.deltaOnly = true }
}

// Deploy partitions the compiled rules into per-shard sets (PlanShards
// under the configured policy), records them as the controller's desired
// state (bumping the program epoch), and programs every Ready switch
// with its shard synchronously. Switches that are Degraded or
// mid-reconnect are not an error: their supervisors replay the new epoch
// on reconnect, so the fleet converges to this rule set. The call fails
// only on a rule set the matcher, the compressor or the wire rejects (the
// last a p4rt.ErrMalformed: a priority or class past 32 bits), a switch
// refusing its program, a cancelled or expired ctx (typed:
// context.Canceled / p4rt.ErrTimeout), or when no switch was ever
// connected. Options select the miss action
// (WithMissAction, default digest), a pre-shard compression pass
// (WithCompression), and incremental reprogramming (WithDeltaOnly).
func (c *Controller) Deploy(ctx context.Context, rs *rules.RuleSet, opts ...DeployOption) error {
	if ctx == nil {
		ctx = context.Background()
	}
	dc := deployConfig{miss: p4.Action{Type: p4.ActionDigest}}
	for _, o := range opts {
		o(&dc)
	}
	if dc.compress > 0 {
		crs, cstats, err := rules.Compress(rs, dc.compress)
		if err != nil {
			return fmt.Errorf("controller: compress: %w", err)
		}
		rs = crs
		c.bumpStat(func(s *Stats) { s.CompressedRules += cstats.Removed() })
	}
	missAction := dc.miss
	// Build every shard first: a rule set the matcher or the wire rejects
	// must never reach a switch. A one-shard plan is rs itself, and the
	// program keeps no reference into it (its rows are the compile's own,
	// the offsets are copied). Each shard's mirror indexes the program's
	// rows, so the controller holds no second copy of them; only reactive
	// installs consult a mirror, so a controller without them builds none.
	shardSets := []*rules.RuleSet{rs}
	if c.shardCount() > 1 {
		shardSets = PlanShards(rs, c.shardCount(), c.cfg.Policy)
	}
	progs := make([]p4rt.Program, len(shardSets))
	var index []*match.KeyIndex
	if c.cfg.Reactive {
		index = make([]*match.KeyIndex, len(shardSets))
	}
	total := 0
	for i, srs := range shardSets {
		prog, err := p4rt.ProgramFromRuleSet(srs, missAction)
		if err == nil && index != nil {
			// Packed rows for the compile's two in-order passes, as p4.buildRangeIndex gathers.
			w := len(prog.Offsets)
			keys := make([]byte, 2*w*len(prog.Entries))
			for r := range prog.Entries {
				copy(keys[2*w*r:], prog.Entries[r].Lo)
				copy(keys[2*w*r+w:], prog.Entries[r].Hi)
			}
			index[i], err = match.CompileRanges(w, len(prog.Entries), keys)
		}
		if err != nil {
			return fmt.Errorf("controller: shard %d: %w", i, err)
		}
		progs[i], total = prog, total+len(prog.Entries)
	}
	// One deploy trace spans the whole call; its context is stamped onto
	// every shard program so each switch's program_apply span — including
	// later replays by the reconciler — nests under this deploy.
	root := c.cfg.Tracer.StartTrace(dtrace.StageDeploy)
	if root.Active() {
		rctx := root.Context()
		for i := range progs {
			progs[i].TraceID, progs[i].SpanID = uint64(rctx.Trace), uint64(rctx.Span)
		}
	}
	// Delta minting diffs each shard against the previous desired
	// program. The diff is O(entries), so it runs outside c.mu; the
	// install section below re-checks that no concurrent deploy moved
	// the epoch in between and drops the deltas if one did (they would
	// describe the wrong base program).
	var deltas []*p4rt.DeltaMsg
	var deltaBase uint64
	if dc.deltaOnly {
		c.mu.Lock()
		prevValid := c.desired.valid && len(c.desired.shards) == len(progs)
		prevShards := c.desired.shards
		deltaBase = c.desired.epoch
		c.mu.Unlock()
		if prevValid {
			deltas = make([]*p4rt.DeltaMsg, len(progs))
			minted := false
			for i := range progs {
				d, ok := p4rt.DeltaFromPrograms(prevShards[i], progs[i])
				// A delta carrying more edits than half the program
				// saves nothing over a full swap; ship it wholesale.
				if ok && d.Size()*2 <= len(progs[i].Entries)+1 {
					d.TraceID, d.SpanID = progs[i].TraceID, progs[i].SpanID
					deltas[i] = &d
					minted = true
				}
			}
			if !minted {
				deltas = nil
			}
		}
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("controller: closed")
	}
	if deltas != nil && c.desired.epoch != deltaBase {
		deltas = nil
	}
	c.desired.valid = true
	c.desired.epoch++
	c.desired.shards = progs
	c.desired.index = index
	c.desired.deltas = deltas
	c.desired.at = time.Now()
	epoch := c.desired.epoch
	conns := append([]*swConn(nil), c.fleet...)
	c.mu.Unlock()
	if len(conns) == 0 {
		return fmt.Errorf("controller: no connected switches")
	}

	start := time.Now()
	applied := 0
	bodies := shardBodies{epoch: epoch, progs: progs}
	defer bodies.done()
	for _, sc := range conns {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("controller: deploy epoch %d: %w", epoch, err)
		}
		sc.opMu.Lock()
		if sc.client == nil || sc.appliedEpoch.Load() >= epoch {
			// Down (the supervisor will replay this epoch on reconnect)
			// or already converged past us by a concurrent deploy.
			sc.opMu.Unlock()
			continue
		}
		err := c.reconcileLocked(ctx, sc, &bodies)
		sc.opMu.Unlock()
		switch {
		case err == nil:
			applied++
		case errors.Is(err, context.Canceled) || errors.Is(err, p4rt.ErrTimeout) || errors.Is(err, context.DeadlineExceeded):
			return fmt.Errorf("controller: deploy to %s: %w", sc.addr, err)
		case errors.Is(err, p4rt.ErrRejected) || errors.Is(err, p4rt.ErrMalformed) || errors.Is(err, p4rt.ErrOversized):
			// The switch refused the program, or it would not encode:
			// converging is impossible, and retrying would loop. Surface it.
			return fmt.Errorf("controller: deploy to %s: %w", sc.addr, err)
		default:
			// Transport failure mid-deploy: close the client so the
			// supervisor notices and replays once the switch returns.
			if cl := sc.clientSnapshot(); cl != nil {
				_ = cl.Close()
			}
		}
	}
	c.bumpStat(func(s *Stats) {
		s.Deploys++
		s.DeployedRules = total
	})
	if j := c.cfg.Journal; j != nil {
		nd := 0
		for _, d := range deltas {
			if d != nil {
				nd++
			}
		}
		_ = j.Event("deploy", map[string]any{
			"rules":        total,
			"epoch":        epoch,
			"shards":       len(progs),
			"delta_shards": nd,
			"switches":     len(conns),
			"applied":      applied,
			"encodes":      bodies.encodes(),
			"dur_ns":       time.Since(start).Nanoseconds(),
		})
	}
	root.SetAttr("epoch", fmt.Sprintf("%d", epoch))
	root.End()
	return nil
}

func (sc *swConn) clientSnapshot() *p4rt.Client {
	sc.opMu.Lock()
	defer sc.opMu.Unlock()
	return sc.client
}

// RegisterTelemetry exports the controller's counters through a metrics
// registry; values are read from the stats snapshot at scrape time. Per-
// switch connection state is exported one-hot as
// p4guard_ctl_conn_state{switch,state}, so dashboards alert on any switch
// leaving ready; per-switch fleet series (shard, watermarks, digest and
// fan-in counters) come from the same FleetStatus snapshot status
// consumers read.
func (c *Controller) RegisterTelemetry(reg *telemetry.Registry) {
	ctl := telemetry.Label{Key: "controller", Value: c.cfg.Name}
	stat := func(pick func(Stats) int) func() float64 {
		return func() float64 { return float64(pick(c.Stats())) }
	}
	reg.CounterFunc("p4guard_ctl_digests_processed_total", "Digests classified on the slow path.",
		stat(func(s Stats) int { return s.DigestsProcessed }), ctl)
	reg.CounterFunc("p4guard_ctl_slowpath_total", "Slow-path verdicts by outcome.",
		stat(func(s Stats) int { return s.SlowPathBenign }), ctl, telemetry.Label{Key: "outcome", Value: "benign"})
	reg.CounterFunc("p4guard_ctl_slowpath_total", "Slow-path verdicts by outcome.",
		stat(func(s Stats) int { return s.SlowPathAttacks }), ctl, telemetry.Label{Key: "outcome", Value: "attack"})
	reg.CounterFunc("p4guard_ctl_reactive_installs_total", "Reactive drop entries installed.",
		stat(func(s Stats) int { return s.ReactiveInstalls }), ctl)
	reg.CounterFunc("p4guard_ctl_mirror_suppressed_total", "Reactive installs suppressed by the deployment mirror.",
		stat(func(s Stats) int { return s.MirrorSuppressed }), ctl)
	reg.CounterFunc("p4guard_ctl_deploys_total", "Successful rule-set deployments.",
		stat(func(s Stats) int { return s.Deploys }), ctl)
	reg.GaugeFunc("p4guard_ctl_deployed_rules", "Rules shipped by the most recent deployment, all shards.",
		stat(func(s Stats) int { return s.DeployedRules }), ctl)
	reg.CounterFunc("p4guard_ctl_dropped_batches_total", "Digest batches dropped by fan-in backpressure, fleet-wide.",
		stat(func(s Stats) int { return s.DroppedBatches }), ctl)
	reg.CounterFunc("p4guard_ctl_reconnects_total", "Successful switch redials after a connection died.",
		stat(func(s Stats) int { return s.Reconnects }), ctl)
	reg.CounterFunc("p4guard_ctl_reconciles_total", "Desired-state replays onto a switch.",
		stat(func(s Stats) int { return s.Reconciles }), ctl)
	reg.CounterFunc("p4guard_ctl_replayed_entries_total", "Reactive entries re-installed by reconciliation.",
		stat(func(s Stats) int { return s.ReplayedEntries }), ctl)
	reg.CounterFunc("p4guard_ctl_delta_applies_total", "Epoch advances applied as incremental deltas.",
		stat(func(s Stats) int { return s.DeltaApplies }), ctl)
	reg.CounterFunc("p4guard_ctl_delta_fallbacks_total", "Delta pushes rejected and retried as full programs.",
		stat(func(s Stats) int { return s.DeltaFallbacks }), ctl)
	reg.CounterFunc("p4guard_ctl_refused_entries_total", "Reactive rows a switch refused, dropped from the log.",
		stat(func(s Stats) int { return s.RefusedEntries }), ctl)
	reg.CounterFunc("p4guard_ctl_compressed_rules_total", "Rules eliminated by deploy-time compression.",
		stat(func(s Stats) int { return s.CompressedRules }), ctl)
	reg.CollectFunc("p4guard_ctl_conn_state", "Per-switch connection state (one-hot).", "gauge",
		func(emit func([]telemetry.Label, float64)) {
			for addr, st := range c.States() {
				for _, s := range ConnStates {
					v := 0.0
					if s == st {
						v = 1
					}
					emit([]telemetry.Label{ctl,
						{Key: "switch", Value: addr},
						{Key: "state", Value: s.String()},
					}, v)
				}
			}
		})
	perSwitch := func(name, help, typ string, pick func(SwitchStatus) float64) {
		reg.CollectFunc(name, help, typ, func(emit func([]telemetry.Label, float64)) {
			for _, st := range c.FleetStatus() {
				emit([]telemetry.Label{ctl, {Key: "switch", Value: st.Addr}}, pick(st))
			}
		})
	}
	perSwitch("p4guard_ctl_switch_shard", "Shard index each switch enforces.", "gauge",
		func(s SwitchStatus) float64 { return float64(s.Shard) })
	perSwitch("p4guard_ctl_switch_applied_epoch", "Program epoch each switch last applied.", "gauge",
		func(s SwitchStatus) float64 { return float64(s.AppliedEpoch) })
	perSwitch("p4guard_ctl_switch_digests_total", "Digests handled, by source switch.", "counter",
		func(s SwitchStatus) float64 { return float64(s.Digests) })
	perSwitch("p4guard_ctl_switch_installs_total", "Reactive installs, by target switch.", "counter",
		func(s SwitchStatus) float64 { return float64(s.Installs) })
	perSwitch("p4guard_ctl_fanin_offered_total", "Digest batches offered to a switch's fan-in queue.", "counter",
		func(s SwitchStatus) float64 { return float64(s.FanIn.Offered) })
	perSwitch("p4guard_ctl_fanin_drained_total", "Digest batches drained from a switch's fan-in queue.", "counter",
		func(s SwitchStatus) float64 { return float64(s.FanIn.Drained) })
	perSwitch("p4guard_ctl_fanin_dropped_total", "Digest batches dropped by a switch's fan-in backpressure.", "counter",
		func(s SwitchStatus) float64 { return float64(s.FanIn.Dropped) })
	perSwitch("p4guard_ctl_fanin_depth", "Digest batches currently queued per switch.", "gauge",
		func(s SwitchStatus) float64 { return float64(s.FanIn.Depth) })
	reg.GaugeFunc("p4guard_ctl_desired_epoch", "Current desired program epoch.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.desired.epoch)
		}, ctl)
}

// Stats returns a snapshot of controller counters. DroppedBatches is
// summed from the per-switch fan-in accounting at snapshot time.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	st := c.stats
	fleet := append([]*swConn(nil), c.fleet...)
	c.mu.Unlock()
	c.fanMu.Lock()
	for _, sc := range fleet {
		st.DroppedBatches += int(sc.fanDropped)
	}
	c.fanMu.Unlock()
	return st
}

// FleetStatus snapshots every switch in join order: identity, shard,
// state, reconcile watermarks, and fan-in accounting. It never takes an
// RPC-bearing lock, so it stays responsive mid-reconcile. Within one
// call each switch's FanIn satisfies Offered == Drained+Dropped+Depth
// (all four are read under one hold of the fan-in lock), and so do the
// fleet-wide sums.
func (c *Controller) FleetStatus() []SwitchStatus {
	c.mu.Lock()
	fleet := append([]*swConn(nil), c.fleet...)
	epoch := c.desired.epoch
	out := make([]SwitchStatus, len(fleet))
	for i, sc := range fleet {
		out[i] = SwitchStatus{
			Addr:            sc.addr,
			Name:            sc.name,
			Node:            sc.node,
			Shard:           sc.shard,
			State:           sc.State().String(),
			DesiredEpoch:    epoch,
			AppliedEpoch:    sc.appliedEpoch.Load(),
			ReactiveLog:     int(sc.reactiveLen.Load()),
			AppliedReactive: int(sc.appliedReactive.Load()),
			Reconnects:      sc.reconnects.Load(),
			Reconciles:      sc.reconciles.Load(),
			Replayed:        sc.replayed.Load(),
			Digests:         sc.digests.Load(),
			Installs:        sc.installs.Load(),
			EpochLatencyNs:  sc.epochLatencyNs.Load(),
		}
	}
	c.mu.Unlock()
	c.fanMu.Lock()
	for i, sc := range fleet {
		out[i].FanIn = FanInStats{
			Offered: sc.fanOffered,
			Drained: sc.fanDrained,
			Dropped: sc.fanDropped,
			Depth:   len(sc.fanQ),
		}
	}
	c.fanMu.Unlock()
	return out
}

// States returns each connected switch's current connection state, keyed
// by address.
func (c *Controller) States() map[string]ConnState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]ConnState, len(c.conns))
	for addr, sc := range c.conns {
		out[addr] = sc.State()
	}
	return out
}

// Switches returns the names of connected switches.
func (c *Controller) Switches() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.fleet))
	for _, sc := range c.fleet {
		if n := sc.name; n != "" {
			names = append(names, n)
		}
	}
	return names
}

// Close disconnects every switch, stops the supervisors, and drains the
// worker. It is idempotent and leaves no goroutines behind.
func (c *Controller) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := append([]*swConn(nil), c.fleet...)
	c.mu.Unlock()

	// Order matters: cancel (stops redials), close live clients (their
	// read loops exit, so no new digests), wait for supervisors (who may
	// hold freshly-dialed clients), and only then close the fan-in the
	// read loops feed — the worker drains what is queued and exits.
	c.cancel()
	var firstErr error
	for _, sc := range conns {
		if cl := sc.clientSnapshot(); cl != nil {
			if err := cl.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	c.superWg.Wait()
	c.fanMu.Lock()
	c.fanOpen = false
	c.fanMu.Unlock()
	c.fanCond.Broadcast()
	c.workerWg.Wait()
	return firstErr
}
