package bench

// sut.go is the benchmark's only contact with the program under test: no
// other file in this module imports a p4guard package. Every function
// here is a thin call into a non-deprecated exported function, so the
// list of imports and calls below is the benchmark's contract with the
// program (README.md, "Contract"). Timing, spans and checks live in the
// callers; this file only adapts types.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"p4guard"
	"p4guard/internal/controller"
	"p4guard/internal/drift"
	"p4guard/internal/dtrace"
	"p4guard/internal/match"
	"p4guard/internal/metrics"
	"p4guard/internal/p4"
	"p4guard/internal/p4rt"
	"p4guard/internal/packet"
	"p4guard/internal/rules"
	"p4guard/internal/switchsim"
	"p4guard/internal/telemetry"
	"p4guard/internal/tensor"
	"p4guard/internal/trace"
)

// Plain data the harness builds and inspects directly.
type (
	Packet  = packet.Packet
	Verdict = p4.Verdict
	RuleSet = rules.RuleSet
	Dataset = trace.Dataset
)

// ---- frames ---------------------------------------------------------

// udpFrame marshals an Ethernet/IPv4/UDP frame of the given wire size
// (>= 42) whose IPv4 source address and UDP source port are the flow
// identity; MACs and padding come from rng.
func udpFrame(rng *rand.Rand, src [4]byte, sport uint16, size int) *Packet {
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	rng.Read(eth.Dst[:])
	rng.Read(eth.Src[:])
	payload := size - 42
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: src, Dst: [4]byte{10, 0, 0, 1}}
	udp := packet.UDP{SrcPort: sport, DstPort: 5683}
	f := udp.Marshal(ip.Marshal(eth.Marshal(make([]byte, 0, size)), packet.UDPLen+payload), payload)
	pad := make([]byte, size-len(f))
	rng.Read(pad)
	return &Packet{Link: packet.LinkEthernet, Bytes: append(f, pad...)}
}

// rawFrame wraps bytes as an Ethernet-link packet.
func rawFrame(b []byte) *Packet { return &Packet{Link: packet.LinkEthernet, Bytes: b} }

func acceptFrame(f []byte) bool { return packet.AcceptFrame(packet.LinkEthernet, f) }

func parseFrame(f []byte, d *packet.FrameDesc) bool {
	return packet.ParseFrame(packet.LinkEthernet, f, d)
}

type frameDesc = packet.FrameDesc

// ---- rules ----------------------------------------------------------

// row is one range row of a synthetic rule set: inclusive byte bounds
// per key position.
type row struct {
	prio, class int
	lo, hi      []byte
}

func buildRuleSet(offsets []int, rows []row) *RuleSet {
	rs := rules.NewRuleSet(offsets, 0)
	for _, r := range rows {
		preds := make([]rules.BytePredicate, len(offsets))
		for i, off := range offsets {
			preds[i] = rules.BytePredicate{Offset: off, Lo: r.lo[i], Hi: r.hi[i]}
		}
		rs.Add(rules.Rule{Priority: r.prio, Class: r.class, Preds: preds})
	}
	rs.SetLink(packet.LinkEthernet)
	return rs
}

func classDrops(class int) bool { return rules.ActionForClass(class) == rules.ActionDrop }

func extractKey(pkt *Packet, offsets []int) []byte { return rules.ExtractKey(pkt, offsets) }

func compressRules(rs *RuleSet) (*RuleSet, error) {
	out, _, err := rules.Compress(rs, rules.CompressReorder)
	return out, err
}

func ternaryExpand(rs *RuleSet) (int, error) {
	es, err := rs.CompileTernary()
	return len(es), err
}

// ---- match ----------------------------------------------------------

type compiledMatcher = match.Compiled

func compileMatcher(rs *RuleSet) (*compiledMatcher, error) { return match.Compile(rs) }

func classifyKey(m *compiledMatcher, key []byte) (int, bool) { return m.ClassifyKey(key) }

// ---- model ----------------------------------------------------------

func generateTrace(scenario string, seed int64, packets int) (*Dataset, error) {
	return p4guard.GenerateTrace(scenario, p4guard.TraceConfig{Seed: seed, Packets: packets})
}

func datasetFingerprint(ds *Dataset) string { return ds.Fingerprint() }

// model is a trained pipeline.
type model struct{ p *p4guard.Pipeline }

func train(ds *Dataset, seed int64) (*model, error) {
	p, err := p4guard.Train(ds, p4guard.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	return &model{p}, nil
}

func (m *model) offsets() []int           { return m.p.MatchOffsets() }
func (m *model) ruleSet() *RuleSet        { return m.p.RuleSet() }
func (m *model) tableEntries() int        { _, n := m.p.TableCost(); return n }
func (m *model) classify(pkt *Packet) int { return m.p.ClassifyPacket(pkt) }
func (m *model) slowPath(pkt *Packet) int { return m.p.ClassifySlowPath(pkt) }

// stageSeconds returns the pipeline's own training breakdown in the
// order field selection, classifier, distillation, rule compile, drift
// model.
func (m *model) stageSeconds() [5]float64 {
	t := m.p.Timings
	return [5]float64{t.FieldSelection.Seconds(), t.Classifier.Seconds(), t.Distillation.Seconds(),
		t.RuleCompile.Seconds(), t.DriftModel.Seconds()}
}

// f1 scores data-plane predictions on a labelled trace.
func (m *model) f1(test *Dataset) (float64, error) {
	preds, err := m.p.Predict(test)
	if err != nil {
		return 0, err
	}
	cm, err := metrics.FromPredictions(preds, test.BinaryLabels())
	if err != nil {
		return 0, err
	}
	return cm.F1(), nil
}

// ---- switch ---------------------------------------------------------

// gateway is one behavioural switch and its detector table.
type gateway struct {
	sw  *switchsim.Switch
	det *p4.Table
}

func newGateway(name string) (*gateway, error) {
	sw, err := switchsim.New(name, packet.LinkEthernet)
	if err != nil {
		return nil, err
	}
	det, err := sw.Pipeline().Table(switchsim.DetectorTable)
	if err != nil {
		return nil, err
	}
	return &gateway{sw, det}, nil
}

func missAction(allow bool) p4.Action {
	if allow {
		return p4.Action{Type: p4.ActionAllow}
	}
	return p4.Action{Type: p4.ActionDigest}
}

func (g *gateway) install(rs *RuleSet, missAllow bool) error {
	_, err := g.sw.InstallRuleSet(rs, missAction(missAllow))
	return err
}

func (g *gateway) run(burst []*Packet)                    { g.sw.Run(burst) }
func (g *gateway) processBatch(burst []*Packet) []Verdict { return g.sw.ProcessBatch(burst) }
func (g *gateway) process(pkt *Packet) Verdict            { return g.sw.Process(pkt) }
func (g *gateway) drainDigests(max int) int               { return len(g.sw.DrainDigests(max)) }
func (g *gateway) entries() int                           { return g.det.Len() }
func (g *gateway) signature() (int, uint64)               { return g.det.ProgramSignature() }

// lookup is the detector's indexed single-frame path (no flow cache).
func (g *gateway) lookup(frame []byte) (allowed, matched bool) {
	act, ok := g.det.Lookup(frame)
	return act.Type != p4.ActionDrop, ok
}

// oracle is the detector's linear-scan reference.
func (g *gateway) oracle(frame []byte) (allowed, digest, matched bool) {
	act, ok := g.det.LookupOracle(frame)
	return act.Type != p4.ActionDrop, act.Type == p4.ActionDigest, ok
}

type queueStats struct {
	offered, drained, dropped uint64
	depth                     int
}

func (q queueStats) balanced() bool { return q.offered == q.drained+q.dropped+uint64(q.depth) }

func (g *gateway) digestQueue() queueStats {
	s := g.sw.DigestQueueStats()
	return queueStats{s.Offered, s.Drained, s.Dropped, s.Depth}
}

// armObservability turns on everything an operator can arm on a switch:
// the metrics registry, explain sampling at the daemon's default 1/64, a
// tracer, and a drift monitor scored against baseline. A model whose
// rules cover the whole baseline has no slow-path traffic to profile and
// goes without the drift monitor.
func (g *gateway) armObservability(m *model, baseline *Dataset) error {
	g.sw.RegisterTelemetry(telemetry.NewRegistry())
	g.sw.EnableExplainSampling(64, telemetry.NewFlightRecorder(4096), nil)
	tr := dtrace.NewTracer()
	tr.Arm(g.sw.Name, 1, 1<<12)
	g.sw.SetTracer(tr)
	prof, err := m.p.DriftBaseline(baseline)
	if err != nil {
		return nil
	}
	mon := drift.NewMonitor()
	if err := mon.Arm(drift.MonitorConfig{Baseline: prof}); err != nil {
		return err
	}
	g.sw.SetDriftMonitor(mon)
	return nil
}

// ---- bare tables (per-layer probes) ----------------------------------

type tableEntry = p4.Entry

// rangeEntries converts a rule set to detector rows the way the switch
// does on InstallRuleSet.
func rangeEntries(rs *RuleSet) ([]tableEntry, error) {
	prog, err := p4rt.ProgramFromRuleSet(rs, missAction(true))
	if err != nil {
		return nil, err
	}
	out := make([]tableEntry, len(prog.Entries))
	for i, w := range prog.Entries {
		if out[i], err = w.ToP4Entry(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func keySpecs(width int) []p4.FieldSpec {
	specs := make([]p4.FieldSpec, width)
	for i := range specs {
		specs[i] = p4.FieldSpec{Name: fmt.Sprintf("k%d", i), Offset: i, Width: 1}
	}
	return specs
}

// newRangeTable and newTernaryTable build standalone tables keyed on the
// first width bytes of the frame.
func newRangeTable(width int) *p4.Table {
	return p4.NewTable("probe_range", p4.MatchRange, keySpecs(width), 0, missAction(true))
}

func newTernaryTable(width int) *p4.Table {
	return p4.NewTable("probe_ternary", p4.MatchTernary, keySpecs(width), 0, missAction(true))
}

func ternaryEntry(prio int, value, mask []byte, drop bool) tableEntry {
	act := p4.Action{Type: p4.ActionAllow}
	if drop {
		act = p4.Action{Type: p4.ActionDrop, Class: 1}
	}
	return tableEntry{Priority: prio, Value: value, Mask: mask, Action: act}
}

type tableDelta = p4.Delta

func computeDelta(old, new []tableEntry) (tableDelta, bool) { return p4.ComputeDelta(old, new) }

// ---- control channel --------------------------------------------------

// agent is a gateway served over p4rt on loopback with the daemon's
// digest pump interval (p4guard-switch passes 0: the 10 ms default).
type agent struct {
	*gateway
	srv *p4rt.Server
}

func serve(g *gateway) (*agent, error) {
	srv, err := p4rt.Serve("127.0.0.1:0", g.sw, 0)
	if err != nil {
		return nil, err
	}
	return &agent{g, srv}, nil
}

func (a *agent) addr() string { return a.srv.Addr() }
func (a *agent) close()       { _ = a.srv.Close() }

type tracer = dtrace.Tracer

func newTracer(proc string, capacity int) *tracer {
	tr := dtrace.NewTracer()
	tr.Arm(proc, 1, capacity)
	return tr
}

func (a *agent) setTracer(tr *tracer) { a.sw.SetTracer(tr) }

// stageTrace is one assembled digest round trip: stage name → seconds,
// ordered by the root span's start.
type stageTrace struct {
	startNs int64
	stages  map[string]float64
	total   float64
}

func assembleTraces(tr *tracer) []stageTrace {
	var out []stageTrace
	for _, ts := range dtrace.Assemble(tr.Spans()) {
		if !ts.Complete || len(ts.Stages) == 0 || ts.Stages[0].Name != dtrace.StageDigestWait {
			continue
		}
		st := stageTrace{startNs: ts.Stages[0].StartNs, stages: map[string]float64{}, total: ts.E2E.Seconds()}
		for _, sp := range ts.Stages {
			st.stages[sp.Name] = sp.Duration().Seconds()
		}
		out = append(out, st)
	}
	return out
}

const (
	stageDigestWait = dtrace.StageDigestWait
	stageFanInWait  = dtrace.StageFanInWait
	stageClassify   = dtrace.StageClassify
	stagePlan       = dtrace.StagePlan
	stageInstall    = dtrace.StageInstall
)

// fleetController is the SDN controller with m as its slow path.
type fleetController struct{ c *controller.Controller }

func newController(m *model, reactive bool, tr *tracer) *fleetController {
	opts := []controller.Option{controller.WithReactive(reactive)}
	if tr != nil {
		opts = append(opts, controller.WithTracer(tr))
	}
	return &fleetController{controller.New(m.p, controller.Config{Name: "bench-ctl"}, opts...)}
}

func (f *fleetController) connect(ctx context.Context, addr string) error {
	return f.c.Connect(ctx, addr)
}
func (f *fleetController) close() { _ = f.c.Close() }

func (f *fleetController) deploy(ctx context.Context, rs *RuleSet, delta, missAllow bool) error {
	opts := []controller.DeployOption{controller.WithMissAction(missAction(missAllow))}
	if delta {
		opts = append(opts, controller.WithDeltaOnly())
	}
	return f.c.Deploy(ctx, rs, opts...)
}

type ctlStats struct {
	digests, installs, suppressed, droppedBatches, deltaApplies, deltaFallbacks int
}

func (f *fleetController) stats() ctlStats {
	s := f.c.Stats()
	return ctlStats{s.DigestsProcessed, s.ReactiveInstalls, s.MirrorSuppressed, s.DroppedBatches, s.DeltaApplies, s.DeltaFallbacks}
}

// fanIn returns every switch's fan-in accounting in join order.
func (f *fleetController) fanIn() []queueStats {
	var out []queueStats
	for _, st := range f.c.FleetStatus() {
		out = append(out, queueStats{st.FanIn.Offered, st.FanIn.Drained, st.FanIn.Dropped, st.FanIn.Depth})
	}
	return out
}

func (f *fleetController) allReady() bool {
	for _, st := range f.c.States() {
		if st != controller.StateReady {
			return false
		}
	}
	return true
}

func planShards(rs *RuleSet, n int) int {
	return len(controller.PlanShards(rs, n, controller.ShardByClass))
}

// client is a bare p4rt client for the wire-level probes.
type client struct{ c *p4rt.Client }

type (
	wireProgram = p4rt.Program
	wireDelta   = p4rt.DeltaMsg
)

func dial(ctx context.Context, addr string) (*client, error) {
	c, err := p4rt.DialContext(ctx, addr, "bench-probe", nil)
	if err != nil {
		return nil, err
	}
	return &client{c}, nil
}

func (c *client) close() { _ = c.c.Close() }

func (c *client) writeEntry(ctx context.Context, key []byte) error {
	_, err := c.c.WriteEntry(ctx, p4rt.WireEntry{Priority: 1 << 20, Lo: key, Hi: key,
		Action: p4rt.FormatAction(p4.ActionDrop), Class: 1})
	return err
}

func (c *client) program(ctx context.Context, p wireProgram) error {
	_, err := c.c.ProgramDetector(ctx, p)
	return err
}

func (c *client) delta(ctx context.Context, d wireDelta) error {
	_, err := c.c.ProgramDelta(ctx, d)
	return err
}

func wireProgramOf(rs *RuleSet) (wireProgram, error) {
	return p4rt.ProgramFromRuleSet(rs, missAction(true))
}

func wireDeltaOf(prev, next wireProgram) (wireDelta, bool) { return p4rt.DeltaFromPrograms(prev, next) }

// frameBytes is the size of a message as it goes on the wire.
func frameBytes(typ string, body any) (int, error) {
	var buf bytes.Buffer
	if err := p4rt.WriteMsg(&buf, p4rt.MsgType(typ), 1, body); err != nil {
		return 0, err
	}
	return buf.Len(), nil
}

const (
	msgProgram = string(p4rt.TypeProgram)
	msgDelta   = string(p4rt.TypeDelta)
)

// ---- tensor ---------------------------------------------------------

// matmulProbe returns a closure running one rows×inner × inner×cols
// product on fixed operands.
func matmulProbe(rng *rand.Rand, rows, inner, cols int) func() error {
	a, b, dst := tensor.New(rows, inner), tensor.New(inner, cols), tensor.New(rows, cols)
	a.Randomize(rng, 1)
	b.Randomize(rng, 1)
	return func() error { return tensor.MatMul(dst, a, b) }
}

// rpcTimeout bounds every control-channel call the harness makes.
const rpcTimeout = 10 * time.Second
