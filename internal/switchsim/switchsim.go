// Package switchsim is the behavioural gateway switch: a P4Lite pipeline
// fed by traces (or by the p4rt server), with verdict accounting and
// throughput/latency measurement. It models the IoT gateway the paper
// programs, including deployment of compiled rule sets into a TCAM-style
// detector table.
//
// The forwarding engine is batched and multi-core: ProcessBatch amortizes
// table snapshots and clock reads over whole bursts, and RunParallel
// shards a trace across workers that keep private stats merged once at
// the end — the hot path takes no per-packet mutex and allocates nothing.
package switchsim

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"p4guard/internal/drift"
	"p4guard/internal/dtrace"
	"p4guard/internal/p4"
	"p4guard/internal/packet"
	"p4guard/internal/rules"
	"p4guard/internal/telemetry"
)

// DetectorTable is the name of the range-match table the two-stage
// pipeline deploys into.
const DetectorTable = "iot_detector"

// Switch is one simulated gateway data plane. The hot path (Process and
// the batch/parallel runners) is lock-free at the switch level:
// cumulative stats are atomic counters and the rate guard is read
// through an atomic pointer, so table programming never stalls
// forwarding and workers never serialize on a switch mutex.
type Switch struct {
	Name string

	// node is the switch's fabric identity: the netsim topology node its
	// p4rt port is attached to. Set once before serving; carried to
	// controllers in the hello handshake so fleet status and shard
	// placement can name positions in the fabric, not just addresses.
	node string

	mu       sync.Mutex // serializes table programming, not forwarding
	pipeline *p4.Pipeline
	parser   *p4.Parser
	link     packet.LinkType

	rateGuard atomic.Pointer[p4.RateGuard]

	// explain, when armed by EnableExplainSampling, re-runs 1/N packets
	// through the side-effect-free Explain path and ships the evidence
	// to the flight recorder / JSONL sink. Nil means off: the forwarding
	// paths load the pointer once per batch and pay one predictable nil
	// check per packet.
	explain atomic.Pointer[explainSampler]

	// tracer, when set, lets the p4rt agent record distributed-trace spans
	// for this switch's slow path (digest drain, reactive apply). The
	// forwarding fast path never consults it — tracing costs nothing per
	// packet, and even the slow-path callers pay only the dtrace disarm
	// contract (one atomic load) while the tracer is not armed.
	tracer atomic.Pointer[dtrace.Tracer]

	// latencyHist, when armed by RegisterTelemetry, receives sampled
	// per-packet forwarding latencies: every multi-packet batch merge is
	// observed (already amortized), single-packet merges 1 in
	// latencySampleEvery. Nil means telemetry is off and the hot path pays
	// only the pointer load.
	latencyHist atomic.Pointer[telemetry.Histogram]

	// driftMon, when set by SetDriftMonitor and armed, sketches the
	// switch's own slow-path digest stream: only digested (table-miss)
	// packets are observed, with no verdict class and no residual —
	// switch-side drift is a feature-distribution signal. Nil or disarmed
	// costs the forwarding paths one pointer load per batch plus a nil
	// check per digested packet.
	driftMon atomic.Pointer[drift.Monitor]

	// arenas recycles batchArena workspaces across bursts and workers,
	// making the steady-state forwarding loop allocation-free.
	arenas sync.Pool

	// Cumulative stats, updated with atomics (one merge per batch).
	packets     atomic.Int64
	allowed     atomic.Int64
	dropped     atomic.Int64
	digested    atomic.Int64
	parseFailed atomic.Int64
	rateDropped atomic.Int64
	elapsedNs   atomic.Int64
}

// RunStats aggregates processing outcomes.
type RunStats struct {
	Packets     int           `json:"packets"`
	Allowed     int           `json:"allowed"`
	Dropped     int           `json:"dropped"`
	Digested    int           `json:"digested"`
	ParseFailed int           `json:"parse_failed"`
	RateDropped int           `json:"rate_dropped"`
	Elapsed     time.Duration `json:"elapsed_ns"`
}

// PPS returns packets per second over the measured elapsed time.
func (s RunStats) PPS() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Packets) / s.Elapsed.Seconds()
}

// PerPacket returns mean processing latency per packet.
func (s RunStats) PerPacket() time.Duration {
	if s.Packets == 0 {
		return 0
	}
	return s.Elapsed / time.Duration(s.Packets)
}

// String renders the stats in the key=value form the CLIs print — the
// one formatting of a stats line, shared by p4guard-switch and tests.
func (s RunStats) String() string {
	return fmt.Sprintf("processed=%d allowed=%d dropped=%d rate_dropped=%d digested=%d parse_failed=%d",
		s.Packets, s.Allowed, s.Dropped, s.RateDropped, s.Digested, s.ParseFailed)
}

// FormatPPS renders throughput as a whole-number string (table cells,
// stats lines).
func (s RunStats) FormatPPS() string {
	return strconv.FormatFloat(s.PPS(), 'f', 0, 64)
}

// FormatPerPacket renders mean per-packet latency rounded to nanoseconds.
func (s RunStats) FormatPerPacket() string {
	return s.PerPacket().Round(time.Nanosecond).String()
}

// merge folds another delta into s.
func (s *RunStats) merge(d RunStats) {
	s.Packets += d.Packets
	s.Allowed += d.Allowed
	s.Dropped += d.Dropped
	s.Digested += d.Digested
	s.ParseFailed += d.ParseFailed
	s.RateDropped += d.RateDropped
	s.Elapsed += d.Elapsed
}

// New builds a switch for the link type with an empty detector table whose
// miss action sends a digest to the controller (fail-open with sampling).
func New(name string, link packet.LinkType) (*Switch, error) {
	return NewWithDigestCapacity(name, link, 4096)
}

// NewWithDigestCapacity builds a switch with an explicit digest-queue
// bound (<=0 means the pipeline default). The queue is the switch's
// controller-loss buffer: while no controller is connected the data plane
// keeps forwarding on the detector's configured miss action, digests
// accumulate up to this bound, and overflow is dropped with accounting
// (Offered == Drained + Dropped + Depth) instead of growing without limit.
func NewWithDigestCapacity(name string, link packet.LinkType, digestCap int) (*Switch, error) {
	parser, err := p4.StandardParser(link)
	if err != nil {
		return nil, fmt.Errorf("switchsim: %w", err)
	}
	pipe := p4.NewPipeline(digestCap)
	det := p4.NewTable(DetectorTable, p4.MatchRange, nil, 0, p4.Action{Type: p4.ActionDigest})
	if err := pipe.AddTable(det); err != nil {
		return nil, err
	}
	s := &Switch{Name: name, pipeline: pipe, parser: parser, link: link}
	s.arenas.New = func() any { return new(batchArena) }
	return s, nil
}

// Pipeline exposes the underlying pipeline (used by the p4rt server).
func (s *Switch) Pipeline() *p4.Pipeline { return s.pipeline }

// SetNode records the switch's fabric node identity (the netsim topology
// node its p4rt port attaches to). Call before serving: the value rides
// the hello handshake to controllers.
func (s *Switch) SetNode(node string) { s.node = node }

// Node returns the fabric node identity ("" when not attached).
func (s *Switch) Node() string { return s.node }

// SetDriftMonitor attaches the drift monitor the forwarding paths feed
// digested (table-miss) packets into; nil detaches. An attached but
// disarmed monitor costs one extra atomic load per packet.
func (s *Switch) SetDriftMonitor(m *drift.Monitor) { s.driftMon.Store(m) }

// driftArmed resolves the live armed drift state: nil when no monitor
// is attached or it is disarmed.
func (s *Switch) driftArmed() *drift.Armed {
	return s.driftMon.Load().Armed()
}

// SetTracer attaches a distributed tracer the p4rt agent uses for
// slow-path spans (digest drain, reactive apply). nil detaches.
func (s *Switch) SetTracer(tr *dtrace.Tracer) { s.tracer.Store(tr) }

// Tracer returns the attached tracer (nil when none); a nil or disarmed
// tracer makes every span call inert.
func (s *Switch) Tracer() *dtrace.Tracer { return s.tracer.Load() }

// WireStats snapshots everything the stats RPC reports: run stats,
// digest queue accounting, and detector table counters, in one call.
func (s *Switch) WireStats() (RunStats, p4.DigestQueueStats, p4.Stats) {
	var det p4.Stats
	if st, err := s.DetectorStats(); err == nil {
		det = st
	}
	return s.Stats(), s.DigestQueueStats(), det
}

// Link returns the switch's link type.
func (s *Switch) Link() packet.LinkType { return s.link }

// InstallRuleSet programs the detector table from a compiled rule set:
// each rule becomes one range-match row whose action derives from the
// rule's class, and the key layout is reprogrammed to the rule set's
// selected offsets (P4 targets support range match keys; TCAM prefix
// expansion is accounted separately via rules.RuleSet.Cost). missAction is
// the table's default (typically digest while learning, or allow once
// confident). The swap is ProgramDetector's: atomic with respect to
// concurrent forwarding, and a refused rule set leaves the table as it was.
func (s *Switch) InstallRuleSet(rs *rules.RuleSet, missAction p4.Action) (int, error) {
	entries, err := rs.RangeEntries()
	if err != nil {
		return 0, fmt.Errorf("switchsim: compile: %w", err)
	}
	rows := &p4.Rows{}
	rows.Grow(len(entries), 2*len(rs.Offsets)*len(entries))
	for _, e := range entries {
		act := p4.Action{Type: p4.ActionAllow, Class: e.Class}
		if rules.ActionForClass(e.Class) == rules.ActionDrop {
			act = p4.Action{Type: p4.ActionDrop, Class: e.Class}
		}
		rows.Add(e.Priority, 0, e.Lo, e.Hi, act)
	}
	if err := s.ProgramDetector(rs.Offsets, missAction, rows); err != nil {
		return 0, err
	}
	return len(entries), nil
}

// ProgramDetector atomically reprograms the detector table at the p4 level:
// key layout, default action, and full entry list land in one published
// generation, so no packet is ever matched against the new default
// without the new entries, and a refused program (wrong entry width,
// table full) leaves schema, default and entries untouched. The p4rt
// server uses it to apply Program requests whose entries are already
// ternary-expanded. The table adopts entries (p4.Table.Program): an accepted
// program's builder comes back empty, a refused one's as it was.
func (s *Switch) ProgramDetector(offsets []int, missAction p4.Action, entries *p4.Rows) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	det, err := s.pipeline.Table(DetectorTable)
	if err != nil {
		return err
	}
	if err := det.Program(keySpecs(offsets), missAction, entries); err != nil {
		return fmt.Errorf("switchsim: program: %w", err)
	}
	return nil
}

// ApplyDetectorDelta applies an incremental program delta to the
// detector table. The delta cannot reshape the key layout: when offsets
// disagree with the installed schema the call is refused untouched, and
// the caller (the p4rt server, on the controller's behalf) falls back
// to a full program swap. missAction may change with the delta; it lands
// in the generation the delta publishes (p4.Table.ProgramDelta), so no
// packet is matched against the new entries under the old default, and a
// refused delta leaves the default action where it was. Reactive entries
// and surviving entries' direct counters are preserved.
func (s *Switch) ApplyDetectorDelta(offsets []int, missAction p4.Action, d p4.Delta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	det, err := s.pipeline.Table(DetectorTable)
	if err != nil {
		return err
	}
	// Detector layouts only ever come from keySpecs, so two layouts that
	// extract the same bytes are equal spec for spec, names included.
	if cur, specs := det.KeySpecs(), keySpecs(offsets); !slices.Equal(cur, specs) {
		return fmt.Errorf("switchsim: delta: key layout mismatch (installed %d fields, delta %d)",
			len(cur), len(specs))
	}
	if err := det.ProgramDelta(missAction, d); err != nil {
		return fmt.Errorf("switchsim: delta: %w", err)
	}
	return nil
}

// InsertDetectorEntry adds one entry to the detector table (reactive path).
func (s *Switch) InsertDetectorEntry(e p4.Entry) (uint64, error) {
	det, err := s.pipeline.Table(DetectorTable)
	if err != nil {
		return 0, err
	}
	return det.Insert(e)
}

// keySpecs converts byte offsets into single-byte field specs.
func keySpecs(offsets []int) []p4.FieldSpec {
	specs := make([]p4.FieldSpec, len(offsets))
	// The names are cut from one string — a layout's specs are installed
	// and replaced together — so a layout costs three allocations, not one
	// per key byte. Width holds each name's end until the string exists.
	names := make([]byte, 0, len("hdr.b000")*len(offsets))
	for i, off := range offsets {
		names = strconv.AppendInt(append(names, "hdr.b"...), int64(off), 10)
		specs[i] = p4.FieldSpec{Offset: off, Width: len(names)}
	}
	all, start := string(names), 0
	for i := range specs {
		end := specs[i].Width
		specs[i].Name, specs[i].Width = all[start:end], 1
		start = end
	}
	return specs
}

// EnableRateGuard arms a stateful heavy-hitter stage keyed on the given
// field specs: packets whose key exceeds threshold hits per window are
// dropped even when the match–action rules would allow them. Pass nil
// key specs to key on the link's source-address bytes.
func (s *Switch) EnableRateGuard(key []p4.FieldSpec, threshold uint64, window time.Duration) error {
	if key == nil {
		key = defaultGuardKey(s.link)
	}
	g, err := p4.NewRateGuard(key, threshold, window)
	if err != nil {
		return err
	}
	s.rateGuard.Store(g)
	return nil
}

// defaultGuardKey returns the per-link source-identity bytes.
func defaultGuardKey(link packet.LinkType) []p4.FieldSpec {
	switch link {
	case packet.LinkEthernet:
		// ip.src + l4.sport under the standard stacking.
		return []p4.FieldSpec{{Name: "ip.src", Offset: 26, Width: 4}, {Name: "l4.sport", Offset: 34, Width: 2}}
	case packet.LinkIEEE802154:
		return []p4.FieldSpec{{Name: "mac.src", Offset: 7, Width: 2}}
	case packet.LinkBLE:
		return []p4.FieldSpec{{Name: "ll.adva", Offset: 6, Width: 6}}
	default:
		return []p4.FieldSpec{{Name: "frame.head", Offset: 0, Width: 8}}
	}
}

// Process runs one packet through parser, rate guard, and pipeline,
// updating stats: the scalar path, and the reference the differential
// suites hold the burst engine to. It holds no arena (a flow cache and
// workspace per switch would cost more live heap than single packets
// repay) and allocates nothing. Parse acceptance is the in-place
// descriptor walk — equivalent to s.parser.Accepts (the packet fuzz
// suite pins the two together field for field) without materializing
// header structs. Prefer ProcessBatch/RunParallel for bursts: they
// amortize the clock reads and stats merges Process pays per packet.
func (s *Switch) Process(pkt *packet.Packet) p4.Verdict {
	start := time.Now()
	d := RunStats{Packets: 1}
	if !packet.AcceptFrame(s.link, pkt.Bytes) {
		d.ParseFailed = 1
	}
	var v p4.Verdict
	if g := s.rateGuard.Load(); g != nil && g.Observe(pkt.Bytes, pkt.Time) {
		v = p4.Verdict{Allowed: false, Class: -1, Matched: true}
		d.Dropped, d.RateDropped = 1, 1
	} else {
		v = s.pipeline.Process(pkt)
		if sp := s.explain.Load(); sp != nil {
			sp.maybeSample(s, pkt, v)
		}
		if v.Allowed {
			d.Allowed = 1
		} else {
			d.Dropped = 1
		}
		if v.Digested {
			d.Digested = 1
			if da := s.driftArmed(); da != nil {
				da.ObservePacket(0, pkt, drift.NoClass, drift.NoResidual)
			}
		}
	}
	d.Elapsed = time.Since(start)
	s.mergeStats(d)
	return v
}

// batchArena is one worker's recycled forwarding state: the p4 batch
// workspace (SoA keys, flow caches, digest staging) plus verdict and
// active-set buffers. The switch pools them; after the first burst
// warms the buffers, forwarding through an arena allocates nothing.
type batchArena struct {
	ws       p4.BatchWorkspace
	verdicts []p4.Verdict
	active   []int32
}

// forwardBatch is the zero-copy engine: in-place parse acceptance, rate
// guard, active-set construction, then the batched pipeline. Verdicts
// land in out (len(pkts)); the returned delta has Packets set but no
// Elapsed (the caller owns timing). Observable behaviour per packet —
// verdicts, counters, digest accounting, sampler and drift observation
// order — matches a Process call per packet.
func (s *Switch) forwardBatch(pkts []*packet.Packet, out []p4.Verdict, a *batchArena) RunStats {
	tables := s.pipeline.TableSnapshot()
	sampler := s.explain.Load()
	driftA := s.driftArmed()
	guard := s.rateGuard.Load()
	var d RunStats
	if cap(a.active) < len(pkts) {
		a.active = make([]int32, 0, len(pkts))
	}
	active := a.active[:0]
	for i, pkt := range pkts {
		if !packet.AcceptFrame(s.link, pkt.Bytes) {
			d.ParseFailed++
		}
		if guard != nil && guard.Observe(pkt.Bytes, pkt.Time) {
			out[i] = p4.Verdict{Allowed: false, Class: -1, Matched: true}
			d.Dropped++
			d.RateDropped++
			continue
		}
		active = append(active, int32(i))
	}
	a.active = active
	s.pipeline.RunTablesBatch(tables, pkts, active, &a.ws, out)
	for _, idx := range active {
		v := out[idx]
		if sampler != nil {
			sampler.maybeSample(s, pkts[idx], v)
		}
		if driftA != nil && v.Digested {
			driftA.ObservePacket(0, pkts[idx], drift.NoClass, drift.NoResidual)
		}
		if v.Allowed {
			d.Allowed++
		} else {
			d.Dropped++
		}
		if v.Digested {
			d.Digested++
		}
	}
	d.Packets = len(pkts)
	return d
}

// forwardPooled runs one burst (or one worker's shard) through
// forwardBatch on a pooled arena. Verdicts land in out, or in the
// arena's own buffer when the caller wants only the stats.
func (s *Switch) forwardPooled(pkts []*packet.Packet, out []p4.Verdict) RunStats {
	a := s.arenas.Get().(*batchArena)
	if out == nil {
		if cap(a.verdicts) < len(pkts) {
			a.verdicts = make([]p4.Verdict, len(pkts))
		}
		out = a.verdicts[:len(pkts)]
	}
	d := s.forwardBatch(pkts, out, a)
	s.arenas.Put(a)
	return d
}

// processBatch times one burst through the engine, writing verdicts
// into out when non-nil, and merges the cumulative stats once.
func (s *Switch) processBatch(pkts []*packet.Packet, out []p4.Verdict) RunStats {
	start := time.Now()
	d := s.forwardPooled(pkts, out)
	d.Elapsed = time.Since(start)
	s.mergeStats(d)
	return d
}

// ProcessBatch runs a burst of packets through the data plane and
// returns their verdicts. The table snapshot and the two clock reads are
// amortized over the whole batch.
func (s *Switch) ProcessBatch(pkts []*packet.Packet) []p4.Verdict {
	out := make([]p4.Verdict, len(pkts))
	s.processBatch(pkts, out)
	return out
}

// Run processes a whole trace and returns stats for just that run.
func (s *Switch) Run(pkts []*packet.Packet) RunStats {
	return s.processBatch(pkts, nil)
}

// RunParallel shards the trace across workers goroutines (capped at
// GOMAXPROCS when workers <= 0), each classifying its contiguous shard
// with private stats. Shard stats are merged once after the barrier, and
// Elapsed is the wall-clock time of the whole parallel run, so PPS
// reflects aggregate throughput. Verdict accounting is identical to Run;
// only per-packet verdict order within stats is unordered, which the
// counters cannot observe.
func (s *Switch) RunParallel(pkts []*packet.Packet, workers int) RunStats {
	return s.runParallel(pkts, workers, nil)
}

// ProcessBatchParallel shards the burst across workers and returns the
// verdicts in packet order (out[i] is pkts[i]'s verdict regardless of
// which worker classified it). It is RunParallel with verdicts kept —
// the differential suite uses it to prove worker count never changes a
// verdict.
func (s *Switch) ProcessBatchParallel(pkts []*packet.Packet, workers int) []p4.Verdict {
	out := make([]p4.Verdict, len(pkts))
	s.runParallel(pkts, workers, out)
	return out
}

// runParallel implements RunParallel/ProcessBatchParallel: contiguous
// shards, each worker running the engine on its own pooled arena with
// private stats merged once, wall-clock Elapsed.
func (s *Switch) runParallel(pkts []*packet.Packet, workers int, out []p4.Verdict) RunStats {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pkts) {
		workers = len(pkts)
	}
	if workers <= 1 {
		return s.processBatch(pkts, out)
	}
	start := time.Now()
	deltas := make([]RunStats, workers)
	var wg sync.WaitGroup
	chunk := (len(pkts) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(pkts) {
			hi = len(pkts)
		}
		if lo >= hi {
			break
		}
		var shardOut []p4.Verdict
		if out != nil {
			shardOut = out[lo:hi]
		}
		wg.Add(1)
		go func(shard []*packet.Packet, shardOut []p4.Verdict, d *RunStats) {
			defer wg.Done()
			*d = s.forwardPooled(shard, shardOut)
		}(pkts[lo:hi], shardOut, &deltas[w])
	}
	wg.Wait()
	var total RunStats
	for _, d := range deltas {
		total.merge(d)
	}
	total.Elapsed = time.Since(start)
	s.mergeStats(total)
	return total
}

// mergeStats folds a delta into the cumulative atomic counters. Zero
// fields are skipped: a branch is far cheaper than a contended atomic
// read-modify-write, and per-packet deltas touch at most three counters.
func (s *Switch) mergeStats(d RunStats) {
	var total int64
	if d.Packets != 0 {
		total = s.packets.Add(int64(d.Packets))
	}
	if d.Allowed != 0 {
		s.allowed.Add(int64(d.Allowed))
	}
	if d.Dropped != 0 {
		s.dropped.Add(int64(d.Dropped))
	}
	if d.Digested != 0 {
		s.digested.Add(int64(d.Digested))
	}
	if d.ParseFailed != 0 {
		s.parseFailed.Add(int64(d.ParseFailed))
	}
	if d.RateDropped != 0 {
		s.rateDropped.Add(int64(d.RateDropped))
	}
	if d.Elapsed != 0 {
		s.elapsedNs.Add(int64(d.Elapsed))
	}
	if h := s.latencyHist.Load(); h != nil && d.Packets > 0 {
		// Sampling reuses the cumulative packet counter the merge just
		// paid for, so the instrumented per-packet path adds no extra
		// atomic — only the pointer load, a branch, and a modulo.
		if d.Packets > 1 || total%latencySampleEvery == 0 {
			h.Observe(d.Elapsed.Seconds() / float64(d.Packets))
		}
	}
}

// latencySampleEvery is the sampling period for single-packet latency
// observations. Batch merges are always observed — they are already
// amortized over the burst — but the per-packet Process path only records
// 1 in latencySampleEvery calls so the instrumented hot path stays within
// a few percent of uninstrumented.
const latencySampleEvery = 64

// Stats returns a snapshot of cumulative stats.
func (s *Switch) Stats() RunStats {
	return RunStats{
		Packets:     int(s.packets.Load()),
		Allowed:     int(s.allowed.Load()),
		Dropped:     int(s.dropped.Load()),
		Digested:    int(s.digested.Load()),
		ParseFailed: int(s.parseFailed.Load()),
		RateDropped: int(s.rateDropped.Load()),
		Elapsed:     time.Duration(s.elapsedNs.Load()),
	}
}

// DrainDigests removes and returns up to max queued digests. Drained and
// overflow-dropped digests are both counted; see DigestQueueStats.
func (s *Switch) DrainDigests(max int) []p4.Digest {
	return s.pipeline.DrainDigests(max)
}

// DigestQueueStats returns the digest queue's depth/drained/dropped
// accounting (queued == drained + depth; dropped is overflow loss).
func (s *Switch) DigestQueueStats() p4.DigestQueueStats {
	return s.pipeline.DigestQueueStats()
}

// DetectorStats returns the detector table's counters.
func (s *Switch) DetectorStats() (p4.Stats, error) {
	det, err := s.pipeline.Table(DetectorTable)
	if err != nil {
		return p4.Stats{}, err
	}
	return det.Stats(), nil
}

// DetectorEntrySnapshots returns per-entry direct counters for the
// detector table (nil when the table is missing).
func (s *Switch) DetectorEntrySnapshots() []p4.EntryCounters {
	det, err := s.pipeline.Table(DetectorTable)
	if err != nil {
		return nil
	}
	return det.EntrySnapshots()
}

// RegisterTelemetry wires the switch into a metrics registry and arms the
// sampled forwarding-latency histogram. Cumulative verdict and parse
// counters are exported through read-at-scrape-time callbacks over the
// atomics the engine already maintains, so registration adds no hot-path
// cost beyond the latency sampling documented on mergeStats.
func (s *Switch) RegisterTelemetry(reg *telemetry.Registry) {
	sw := telemetry.Label{Key: "switch", Value: s.Name}
	s.latencyHist.Store(reg.Histogram("p4guard_switch_forward_latency_seconds",
		"Sampled per-packet forwarding latency (every batch, 1/64 single packets).", nil, sw))

	reg.CounterFunc("p4guard_switch_packets_total", "Packets processed by the data plane.",
		func() float64 { return float64(s.packets.Load()) }, sw)
	verdicts := []struct {
		name string
		fn   func() int64
	}{
		{"allowed", s.allowed.Load},
		{"dropped", s.dropped.Load},
		{"digested", s.digested.Load},
		{"rate_dropped", s.rateDropped.Load},
	}
	for _, v := range verdicts {
		fn := v.fn
		reg.CounterFunc("p4guard_switch_verdicts_total", "Packets by forwarding verdict.",
			func() float64 { return float64(fn()) }, sw, telemetry.Label{Key: "verdict", Value: v.name})
	}
	reg.CounterFunc("p4guard_switch_parse_total", "Packets by parse outcome.",
		func() float64 { return float64(s.packets.Load() - s.parseFailed.Load()) },
		sw, telemetry.Label{Key: "outcome", Value: "ok"})
	reg.CounterFunc("p4guard_switch_parse_total", "Packets by parse outcome.",
		func() float64 { return float64(s.parseFailed.Load()) },
		sw, telemetry.Label{Key: "outcome", Value: "fail"})
	reg.CounterFunc("p4guard_switch_busy_seconds_total", "Cumulative forwarding time.",
		func() float64 { return time.Duration(s.elapsedNs.Load()).Seconds() }, sw)

	reg.GaugeFunc("p4guard_switch_digest_queue_depth", "Digests waiting for the controller.",
		func() float64 { return float64(s.DigestQueueStats().Depth) }, sw)
	reg.CounterFunc("p4guard_switch_digests_drained_total", "Digests drained to the controller side.",
		func() float64 { return float64(s.DigestQueueStats().Drained) }, sw)
	reg.CounterFunc("p4guard_switch_digests_dropped_total", "Digests lost to queue overflow.",
		func() float64 { return float64(s.DigestQueueStats().Dropped) }, sw)

	tbl := telemetry.Label{Key: "table", Value: DetectorTable}
	reg.GaugeFunc("p4guard_table_entries", "Installed entries.",
		func() float64 {
			st, err := s.DetectorStats()
			if err != nil {
				return 0
			}
			return float64(st.Entries)
		}, sw, tbl)
	for _, res := range []string{"hit", "miss"} {
		res := res
		reg.CounterFunc("p4guard_table_lookups_total", "Table lookups by result.",
			func() float64 {
				st, err := s.DetectorStats()
				if err != nil {
					return 0
				}
				if res == "hit" {
					return float64(st.Hits)
				}
				return float64(st.Misses)
			}, sw, tbl, telemetry.Label{Key: "result", Value: res})
	}
	entryLabels := func(e p4.EntryCounters) []telemetry.Label {
		return []telemetry.Label{sw, tbl,
			{Key: "entry", Value: strconv.FormatUint(e.ID, 10)},
			{Key: "action", Value: e.Action.Type.String()},
			{Key: "class", Value: strconv.Itoa(e.Action.Class)},
		}
	}
	reg.CollectFunc("p4guard_table_entry_hits_total", "Per-entry direct packet counters.", "counter",
		func(emit func([]telemetry.Label, float64)) {
			for _, e := range s.DetectorEntrySnapshots() {
				emit(entryLabels(e), float64(e.Hits))
			}
		})
	reg.CollectFunc("p4guard_table_entry_bytes_total", "Per-entry direct byte counters.", "counter",
		func(emit func([]telemetry.Label, float64)) {
			for _, e := range s.DetectorEntrySnapshots() {
				emit(entryLabels(e), float64(e.Bytes))
			}
		})
}
