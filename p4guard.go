// Package p4guard reproduces "A Learning Approach with Programmable Data
// Plane towards IoT Security" (Qin, Poularakis, Tassiulas; ICDCS 2020): a
// two-stage deep-learning pipeline that turns labelled IoT traces into
// match–action rules over a handful of header bytes, installable in a
// P4-programmable gateway switch.
//
// Stage 1 selects the k most informative header byte offsets with a deep
// learner (classifier saliency or autoencoder residuals). Stage 2 trains an
// MLP on those bytes, distills it into a CART tree, and compiles the tree
// into prioritized ternary rules. The companion packages provide the
// substrates: a behavioural P4 data plane (switch simulation), a
// P4Runtime-like control channel, an SDN controller with a reactive slow
// path, synthetic IoT workloads for four protocol families, and classical
// baselines.
//
// Minimal use:
//
//	ds, _ := p4guard.GenerateTrace("wifi-mqtt", p4guard.TraceConfig{Seed: 1})
//	train, test, _ := ds.Split(0.7)
//	pipe, _ := p4guard.Train(train, p4guard.Config{NumFields: 6})
//	preds, _ := pipe.Predict(test)
package p4guard

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"p4guard/internal/autoenc"
	"p4guard/internal/drift"
	"p4guard/internal/dtree"
	"p4guard/internal/fieldsel"
	"p4guard/internal/iotgen"
	"p4guard/internal/match"
	"p4guard/internal/nn"
	"p4guard/internal/p4gen"
	"p4guard/internal/packet"
	"p4guard/internal/rules"
	"p4guard/internal/trace"
)

// Config controls two-stage training.
type Config struct {
	// Seed makes training deterministic.
	Seed int64
	// NumFields is k, the number of header byte offsets the match key
	// uses (default 6).
	NumFields int
	// Selector is the stage-1 strategy (default the DNN-saliency
	// selector).
	Selector fieldsel.Selector
	// MLPHidden lists stage-2 hidden widths (default [32, 16]).
	MLPHidden []int
	// MLPEpochs is stage-2 training length (default 40).
	MLPEpochs int
	// TreeDepth bounds the distilled tree (default 6).
	TreeDepth int
	// BoundaryPerSample is the distillation augmentation factor
	// (default 3).
	BoundaryPerSample int
	// MultiClass trains per-attack-kind identification instead of binary
	// detection: class 0 is benign and classes 1..n are the training
	// set's attack kinds; compiled rules then carry the kind, enabling
	// per-attack actions at the data plane.
	MultiClass bool
	// OnEpoch, when non-nil, receives per-epoch statistics from every
	// MLP trained inside the pipeline, tagged with the stage that
	// trained it ("stage1-saliency" for the default selector's
	// attribution network, "stage2-classifier" for the match-key MLP).
	// It feeds the run journal and live training gauges; leaving it nil
	// keeps training completely unobserved (no extra forward passes).
	OnEpoch func(stage string, es nn.EpochStats)
}

func (c Config) withDefaults() Config {
	if c.NumFields <= 0 {
		c.NumFields = 6
	}
	if c.Selector == nil {
		c.Selector = &fieldsel.SaliencySelector{Seed: c.Seed}
	}
	if len(c.MLPHidden) == 0 {
		c.MLPHidden = []int{32, 16}
	}
	if c.MLPEpochs <= 0 {
		c.MLPEpochs = 40
	}
	if c.TreeDepth <= 0 {
		c.TreeDepth = 6
	}
	if c.BoundaryPerSample <= 0 {
		c.BoundaryPerSample = 3
	}
	return c
}

// TrainTimings breaks down where training time went.
type TrainTimings struct {
	FieldSelection time.Duration
	Classifier     time.Duration
	Distillation   time.Duration
	RuleCompile    time.Duration
	// DriftModel is the residual autoencoder used for drift tracking.
	DriftModel time.Duration
}

// Pipeline is a trained two-stage model plus its compiled rule set.
type Pipeline struct {
	// Offsets is the selected match-key layout (stage-1 output).
	Offsets []int
	// Link is the protocol family the pipeline was trained on.
	Link packet.LinkType
	// Timings records training cost.
	Timings TrainTimings
	// ClassNames names the model's classes; index 0 is always "benign".
	// Binary pipelines have ["benign", "attack"].
	ClassNames []string

	net     *nn.Network
	tree    *dtree.Tree
	rs      *rules.RuleSet
	matcher *match.Compiled
	// auto is the drift-residual autoencoder: a small reconstructor of
	// the normalized match-key bytes, trained with its own seed stream so
	// the classifier/tree/rules stay byte-identical with or without it.
	// Nil on pipelines saved before the drift subsystem existed.
	auto *autoenc.Autoencoder
}

// setRuleSet installs a rule set and its compiled matcher together, so
// the fast classification path can never drift from the deployable
// rules.
func (p *Pipeline) setRuleSet(rs *rules.RuleSet) error {
	m, err := match.Compile(rs)
	if err != nil {
		return fmt.Errorf("p4guard: matcher compile: %w", err)
	}
	p.rs = rs
	p.matcher = m
	return nil
}

// Train runs the full two-stage pipeline on a labelled trace.
func Train(train *trace.Dataset, cfg Config) (*Pipeline, error) {
	if train == nil || train.Len() == 0 {
		return nil, fmt.Errorf("p4guard: empty training set")
	}
	cfg = cfg.withDefaults()
	p := &Pipeline{Link: train.Link}

	// Stage 1: field selection. When the caller observes epochs and the
	// selector is the saliency MLP, thread the hook through so stage-1
	// training lands in the journal too.
	if cfg.OnEpoch != nil {
		if sal, ok := cfg.Selector.(*fieldsel.SaliencySelector); ok && sal.OnEpoch == nil {
			hook := cfg.OnEpoch
			sal.OnEpoch = func(es nn.EpochStats) { hook("stage1-saliency", es) }
		}
	}
	start := time.Now()
	offsets, err := cfg.Selector.Select(train, cfg.NumFields)
	if err != nil {
		return nil, fmt.Errorf("p4guard: stage 1 (%s): %w", cfg.Selector.Name(), err)
	}
	p.Offsets = offsets
	p.Timings.FieldSelection = time.Since(start)

	// Stage 2a: MLP classifier on the selected bytes, bit-expanded so the
	// network sees the same granularity the TCAM will match at.
	start = time.Now()
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	x, err := train.SelectColumnsBits(offsets)
	if err != nil {
		return nil, err
	}
	labels := train.BinaryLabels()
	p.ClassNames = []string{"benign", "attack"}
	if cfg.MultiClass {
		var kinds []string
		labels, kinds = train.MultiLabels()
		p.ClassNames = append([]string{"benign"}, kinds...)
	}
	numClasses := len(p.ClassNames)
	target, err := nn.OneHot(labels, numClasses)
	if err != nil {
		return nil, err
	}
	net := nn.NewMLP(rng, len(offsets)*8, cfg.MLPHidden, numClasses)
	tc := nn.TrainConfig{Epochs: cfg.MLPEpochs, BatchSize: 64, Shuffle: rng}
	if cfg.OnEpoch != nil {
		hook := cfg.OnEpoch
		tc.OnEpochEnd = func(es nn.EpochStats) bool { hook("stage2-classifier", es); return true }
	}
	if _, err := nn.Train(net, nn.NewAdam(0.004), x, target, tc); err != nil {
		return nil, fmt.Errorf("p4guard: stage 2 classifier: %w", err)
	}
	p.net = net
	p.Timings.Classifier = time.Since(start)

	// Stage 2b: distill the MLP into a tree.
	start = time.Now()
	seeds := make([][]byte, train.Len())
	for i, s := range train.Samples {
		seeds[i] = keyBytes(s.Pkt, offsets)
	}
	teacher := p.teacher()
	tree, err := dtree.Distill(teacher, seeds, numClasses, dtree.DistillConfig{
		// MinSamplesLeaf/MinGain suppress splits on augmentation noise,
		// which otherwise balloon into TCAM entries without accuracy.
		Tree:              dtree.Config{MaxDepth: cfg.TreeDepth, MinSamplesLeaf: 4, MinGain: 0.001},
		BoundaryPerSample: cfg.BoundaryPerSample,
		Seed:              cfg.Seed + 2,
	})
	if err != nil {
		return nil, fmt.Errorf("p4guard: distillation: %w", err)
	}
	p.tree = tree
	p.Timings.Distillation = time.Since(start)

	// Stage 2c: compile the tree into rules.
	start = time.Now()
	rs, err := tree.CompileRuleSet(offsets, 0)
	if err != nil {
		return nil, fmt.Errorf("p4guard: rule compile: %w", err)
	}
	rs.SetLink(train.Link)
	if err := p.setRuleSet(rs); err != nil {
		return nil, err
	}
	p.Timings.RuleCompile = time.Since(start)

	// Drift residual model: a small autoencoder reconstructing the
	// normalized selected-byte columns. Its seed stream (Seed+3) is
	// disjoint from the classifier's (Seed+1) and the distiller's
	// (Seed+2), so every earlier stage trains byte-identically with or
	// without it.
	start = time.Now()
	xa, err := train.SelectColumns(offsets)
	if err != nil {
		return nil, err
	}
	auto, err := autoenc.Train(xa, autoenc.Config{Hidden: []int{8, 4}, Epochs: 15, Seed: cfg.Seed + 3})
	if err != nil {
		return nil, fmt.Errorf("p4guard: drift residual model: %w", err)
	}
	p.auto = auto
	p.Timings.DriftModel = time.Since(start)
	// The classifier still holds the arena of its training batches and of
	// the distiller's 256-row passes; the slow path classifies a row at a time.
	p.net.Release()
	return p, nil
}

// keyBytes extracts raw bytes at the offsets.
func keyBytes(pkt *packet.Packet, offsets []int) []byte {
	key := make([]byte, len(offsets))
	for i, off := range offsets {
		key[i] = pkt.ByteAt(off)
	}
	return key
}

// teacher adapts the MLP into a byte-key labeller for distillation.
func (p *Pipeline) teacher() dtree.Teacher {
	return func(key []byte) int {
		x, err := tensorRow(packet.BitsOf(key))
		if err != nil {
			return 0
		}
		preds, err := p.net.Predict(x)
		if err != nil || len(preds) == 0 {
			return 0
		}
		return preds[0]
	}
}

// RuleSet returns the compiled rule set.
func (p *Pipeline) RuleSet() *rules.RuleSet { return p.rs }

// Matcher returns the compiled data-plane matcher (nil before training).
// Every packet-classification consumer — Predict, PredictMulti,
// ClassifyPacket, the controller mirror — routes through it, so its
// decisions are by construction the decisions of the deployed rules.
func (p *Pipeline) Matcher() match.Matcher {
	if p.matcher == nil {
		return nil
	}
	return p.matcher
}

// Tree returns the distilled decision tree.
func (p *Pipeline) Tree() *dtree.Tree { return p.tree }

// Predict classifies every test packet with data-plane semantics (the
// compiled matcher over the rule set), returning 0/1 labels.
func (p *Pipeline) Predict(test *trace.Dataset) ([]int, error) {
	if p.rs == nil {
		return nil, fmt.Errorf("p4guard: pipeline not trained")
	}
	out := make([]int, test.Len())
	for i, s := range test.Samples {
		if class, _ := p.matcher.Classify(s.Pkt); class != 0 {
			out[i] = 1
		}
	}
	return out, nil
}

// PredictMulti classifies every test packet with data-plane semantics,
// returning the full class index (0 = benign, i >= 1 = ClassNames[i]).
func (p *Pipeline) PredictMulti(test *trace.Dataset) ([]int, error) {
	if p.rs == nil {
		return nil, fmt.Errorf("p4guard: pipeline not trained")
	}
	out := make([]int, test.Len())
	for i, s := range test.Samples {
		out[i], _ = p.matcher.Classify(s.Pkt)
	}
	return out, nil
}

// Explain returns the full matching evidence for one packet against the
// compiled rule set: the winning rule, its per-byte/per-bit comparison,
// and the higher-priority rules it beat. Explain(pkt).Class always
// equals ClassifyPacket(pkt). Nil before training.
func (p *Pipeline) Explain(pkt *packet.Packet) *match.Explanation {
	if p.matcher == nil {
		return nil
	}
	return p.matcher.Explain(pkt)
}

// ClassifyPacket returns the rule-set class of one packet — the exact
// decision the switch makes.
func (p *Pipeline) ClassifyPacket(pkt *packet.Packet) int {
	if p.matcher == nil {
		return 0
	}
	class, _ := p.matcher.Classify(pkt)
	return class
}

// ClassifySlowPath classifies one packet with the full MLP — the
// controller-side decision for digested packets.
func (p *Pipeline) ClassifySlowPath(pkt *packet.Packet) int {
	if p.net == nil {
		return 0
	}
	return p.teacher()(keyBytes(pkt, p.Offsets))
}

// MatchOffsets returns the selected key layout (satisfies the controller's
// SlowPath interface).
func (p *Pipeline) MatchOffsets() []int { return p.Offsets }

// Residual returns the drift autoencoder's mean-squared reconstruction
// error of one packet's normalized match-key bytes — a shift signal for
// the drift monitor, not a classifier. drift.NoResidual (NaN) when the
// pipeline predates the residual model.
func (p *Pipeline) Residual(pkt *packet.Packet) float64 {
	if p.auto == nil {
		return drift.NoResidual
	}
	row := make([]float64, len(p.Offsets))
	for i, off := range p.Offsets {
		row[i] = float64(pkt.ByteAt(off)) / 255
	}
	x, err := tensorRow(row)
	if err != nil {
		return drift.NoResidual
	}
	errs, err := p.auto.SampleError(x)
	if err != nil || len(errs) == 0 || math.IsNaN(errs[0]) {
		return drift.NoResidual
	}
	return errs[0]
}

// DriftBaseline profiles the expected slow-path digest stream: the
// training samples the compiled rules MISS (exactly the packets a
// digest-on-miss deployment sends to the controller), sketched with the
// slow-path class and the residual model — the profile live shard
// sketches are scored against. Persisted by p4guard-train
// -drift-baseline and loaded by the daemons' -drift flags. Errors when
// the rules cover every sample (no slow-path traffic to profile).
func (p *Pipeline) DriftBaseline(ds *trace.Dataset) (*drift.Profile, error) {
	if p.matcher == nil {
		return nil, fmt.Errorf("p4guard: pipeline not trained")
	}
	b := drift.NewBuilder(p.Offsets, 0)
	for _, s := range ds.Samples {
		if _, matched := p.matcher.Classify(s.Pkt); matched {
			continue
		}
		b.Observe(s.Pkt, p.ClassifySlowPath(s.Pkt), p.Residual(s.Pkt))
	}
	if b.Count() == 0 {
		return nil, fmt.Errorf("p4guard: drift baseline: compiled rules cover every sample, no slow-path traffic to profile")
	}
	prof := b.Profile()
	prof.Source = ds.Name
	prof.Fingerprint = ds.Fingerprint()
	prof.Link = p.Link.String()
	prof.ClassNames = append([]string(nil), p.ClassNames...)
	return prof, nil
}

// PredictNN classifies every test packet with the stage-2 MLP (slow-path
// semantics).
func (p *Pipeline) PredictNN(test *trace.Dataset) ([]int, error) {
	if p.net == nil {
		return nil, fmt.Errorf("p4guard: pipeline not trained")
	}
	x, err := test.SelectColumnsBits(p.Offsets)
	if err != nil {
		return nil, err
	}
	return p.net.Predict(x)
}

// Fidelity measures tree/MLP agreement on the dataset.
func (p *Pipeline) Fidelity(ds *trace.Dataset) float64 {
	keys := make([][]byte, ds.Len())
	for i, s := range ds.Samples {
		keys[i] = keyBytes(s.Pkt, p.Offsets)
	}
	return dtree.Fidelity(p.tree, p.teacher(), keys)
}

// TableCost reports the deployed key width (bytes) and TCAM entry count.
func (p *Pipeline) TableCost() (keyBytes, entries int) {
	if p.rs == nil {
		return -1, -1
	}
	cost, err := p.rs.Cost()
	if err != nil {
		return -1, -1
	}
	return cost.KeyBytes, cost.Entries
}

// DescribeFields renders the selected offsets as protocol field names.
func (p *Pipeline) DescribeFields() string {
	return packet.DescribeOffsets(p.Link, p.Offsets)
}

// EmitP4 renders the pipeline as deployable P4-16 source: a raw-byte
// parser, the detector table over the selected offsets, and allow / drop /
// digest actions. inlineEntries additionally bakes the compiled rules in
// as const entries (for controller-less BMv2 experiments).
func (p *Pipeline) EmitP4(inlineEntries bool) (string, error) {
	if p.rs == nil {
		return "", fmt.Errorf("p4guard: pipeline not trained")
	}
	return p4gen.Emit(p.rs, p4gen.Options{EmitConstEntries: inlineEntries})
}

// TrimToBudget returns a copy of the pipeline whose rule set fits within
// budget TCAM entries: rules are kept greedily by traffic-coverage density
// measured on ref (typically the training trace). Dropped regions fall
// back to the default (benign) class.
//
// The verdict-preserving compression pass runs first, so the trimmer
// spends the budget on the compressed (cheaper, merged) rules — lossy
// trimming only starts once lossless compression is exhausted, which
// can only raise the coverage that fits a given budget.
func (p *Pipeline) TrimToBudget(budget int, ref *trace.Dataset) (*Pipeline, error) {
	if p.rs == nil {
		return nil, fmt.Errorf("p4guard: pipeline not trained")
	}
	pkts := make([]*packet.Packet, ref.Len())
	for i, s := range ref.Samples {
		pkts[i] = s.Pkt
	}
	rs, _, err := rules.Compress(p.rs, rules.CompressMerge)
	if err != nil {
		return nil, err
	}
	weights := rs.HitWeights(pkts)
	trimmed, err := rs.TrimToBudget(budget, weights)
	if err != nil {
		return nil, err
	}
	out := *p
	if err := out.setRuleSet(trimmed); err != nil {
		return nil, err
	}
	return &out, nil
}

// TraceConfig configures synthetic trace generation.
type TraceConfig = iotgen.Config

// GenerateTrace builds one of the labelled IoT workloads ("wifi-mqtt",
// "wifi-coap", "zigbee", "ble").
func GenerateTrace(scenario string, cfg TraceConfig) (*trace.Dataset, error) {
	return iotgen.Generate(scenario, cfg)
}

// ScenarioNames lists the available workload scenarios.
func ScenarioNames() []string {
	scs := iotgen.Scenarios()
	names := make([]string, len(scs))
	for i, s := range scs {
		names[i] = s.Name
	}
	return names
}
