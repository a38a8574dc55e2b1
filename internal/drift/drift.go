// Package drift tracks model-quality drift over the slow-path digest
// stream: deterministic streaming sketches of the match-key feature
// distribution, the slow-path verdict mix, and the autoencoder
// reconstruction residual, compared against a baseline profile persisted
// at train time.
//
// Every sketch is exact and mergeable — per-feature 256-bin byte
// histograms plus count/sum/sum-of-squares moments, windowed per-class
// verdict counts, and a fixed log-bucketed residual histogram — so
// profiles built from the same observation sequence are byte-identical
// across runs, and per-shard profiles sum into a fleet profile with no
// approximation error. The drift score is a PSI/KS composite (see
// Compute); by the usual PSI reading, < 0.1 is stable, 0.1–0.25 is
// moderate shift, and > 0.25 (DefaultThreshold) is drifted.
package drift

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Schema is the profile serialization version (bumped on incompatible
// change; ReadProfile rejects unknown schemas).
const Schema = 1

// DefaultThreshold is the composite-score alarm level, following the
// population-stability-index convention that > 0.25 means the
// distribution has shifted enough to question the model.
const DefaultThreshold = 0.25

// NoResidual marks an observation that carries no autoencoder residual
// (e.g. switch-side observers have no model). NaN never enters a sketch.
var NoResidual = math.NaN()

// NoClass marks an observation with no slow-path verdict (switch-side
// digests are misses by definition — the class is not yet known).
const NoClass = -1

// maxClasses bounds the verdict-mix sketch; class indices are clamped so
// a corrupt input cannot balloon the profile.
const maxClasses = 256

// FeatureSketch is one match-key byte's streaming distribution sketch:
// an exact 256-bin histogram plus moments. Byte features make the
// histogram lossless, so CDFs are exact, and two sketches merge by adding
// bins.
type FeatureSketch struct {
	Offset int      `json:"offset"`
	Count  uint64   `json:"count"`
	Sum    float64  `json:"sum"`
	SumSq  float64  `json:"sum_sq"`
	Bins   []uint64 `json:"bins"` // exactly 256, one per byte value
}

func newFeatureSketch(offset int) FeatureSketch {
	return FeatureSketch{Offset: offset, Bins: make([]uint64, 256)}
}

func (f *FeatureSketch) observe(b byte) {
	f.Count++
	v := float64(b)
	f.Sum += v
	f.SumSq += v * v
	f.Bins[b]++
}

// Mean returns the sketch's mean byte value (0 when empty).
func (f *FeatureSketch) Mean() float64 {
	if f.Count == 0 {
		return 0
	}
	return f.Sum / float64(f.Count)
}

func (f *FeatureSketch) merge(o *FeatureSketch) {
	f.Count += o.Count
	f.Sum += o.Sum
	f.SumSq += o.SumSq
	for i, n := range o.Bins {
		f.Bins[i] += n
	}
}

// residualBounds are the log-spaced bucket upper bounds for the
// autoencoder mean-squared reconstruction error: 10^-6 … 10^0 in
// quarter-decade steps, plus an implicit overflow bucket. Fixed bounds
// keep baseline and live sketches directly comparable.
var residualBounds = func() []float64 {
	b := make([]float64, 25)
	for i := range b {
		b[i] = math.Pow(10, -6+float64(i)*0.25)
	}
	return b
}()

// ResidualSketch is the streaming distribution of the autoencoder
// reconstruction residual: fixed log-bucketed histogram plus moments.
type ResidualSketch struct {
	Count uint64   `json:"count"`
	Sum   float64  `json:"sum"`
	SumSq float64  `json:"sum_sq"`
	Bins  []uint64 `json:"bins"` // len(residualBounds)+1, last is overflow
}

func newResidualSketch() ResidualSketch {
	return ResidualSketch{Bins: make([]uint64, len(residualBounds)+1)}
}

func (r *ResidualSketch) observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	r.Count++
	r.Sum += v
	r.SumSq += v * v
	idx := len(residualBounds)
	for i, hi := range residualBounds {
		if v <= hi {
			idx = i
			break
		}
	}
	r.Bins[idx]++
}

// Mean returns the mean residual (0 when empty).
func (r *ResidualSketch) Mean() float64 {
	if r.Count == 0 {
		return 0
	}
	return r.Sum / float64(r.Count)
}

func (r *ResidualSketch) merge(o *ResidualSketch) {
	r.Count += o.Count
	r.Sum += o.Sum
	r.SumSq += o.SumSq
	for i, n := range o.Bins {
		r.Bins[i] += n
	}
}

// Profile is a serializable snapshot of one observer's sketches: the
// baseline persisted by p4guard-train, or a live shard/fleet snapshot.
type Profile struct {
	Schema      int             `json:"schema"`
	Source      string          `json:"source,omitempty"`
	Fingerprint string          `json:"fingerprint,omitempty"`
	Link        string          `json:"link,omitempty"`
	Offsets     []int           `json:"offsets"`
	Count       uint64          `json:"count"`
	Features    []FeatureSketch `json:"features"`
	Classes     []uint64        `json:"classes,omitempty"`
	ClassNames  []string        `json:"class_names,omitempty"`
	Residual    ResidualSketch  `json:"residual"`
}

// classTotal sums the verdict-mix counts.
func classTotal(counts []uint64) uint64 {
	var t uint64
	for _, n := range counts {
		t += n
	}
	return t
}

// Merge folds another profile into this one (bin-wise sums). Offsets
// must match; identity fields (Source, Fingerprint) are kept from the
// receiver.
func (p *Profile) Merge(o *Profile) error {
	if len(p.Offsets) != len(o.Offsets) {
		return fmt.Errorf("drift: merge: offsets %v != %v", p.Offsets, o.Offsets)
	}
	for i := range p.Offsets {
		if p.Offsets[i] != o.Offsets[i] {
			return fmt.Errorf("drift: merge: offsets %v != %v", p.Offsets, o.Offsets)
		}
	}
	p.Count += o.Count
	for i := range p.Features {
		p.Features[i].merge(&o.Features[i])
	}
	for len(p.Classes) < len(o.Classes) {
		p.Classes = append(p.Classes, 0)
	}
	for i, n := range o.Classes {
		p.Classes[i] += n
	}
	p.Residual.merge(&o.Residual)
	return nil
}

// WriteProfile serializes a profile as indented JSON.
func WriteProfile(w io.Writer, p *Profile) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(p); err != nil {
		return fmt.Errorf("drift: write profile: %w", err)
	}
	return nil
}

// ReadProfile parses a profile written by WriteProfile, validating the
// schema and sketch shapes.
func ReadProfile(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("drift: read profile: %w", err)
	}
	if p.Schema != Schema {
		return nil, fmt.Errorf("drift: profile schema %d, want %d", p.Schema, Schema)
	}
	if len(p.Features) != len(p.Offsets) {
		return nil, fmt.Errorf("drift: profile has %d features for %d offsets", len(p.Features), len(p.Offsets))
	}
	for i := range p.Features {
		if len(p.Features[i].Bins) != 256 {
			return nil, fmt.Errorf("drift: feature %d has %d bins, want 256", i, len(p.Features[i].Bins))
		}
	}
	if len(p.Residual.Bins) != len(residualBounds)+1 {
		return nil, fmt.Errorf("drift: residual sketch has %d bins, want %d", len(p.Residual.Bins), len(residualBounds)+1)
	}
	return &p, nil
}

// SaveProfile writes a profile to path (created or truncated).
func SaveProfile(path string, p *Profile) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("drift: save profile: %w", err)
	}
	if err := WriteProfile(f, p); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// LoadProfile reads a profile from path.
func LoadProfile(path string) (*Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("drift: load profile: %w", err)
	}
	defer f.Close()
	return ReadProfile(f)
}

// Builder accumulates observations into sketches. It is not
// goroutine-safe; the Monitor serializes access per shard, and baseline
// construction is single-threaded by design so profiles are
// byte-identical across runs.
type Builder struct {
	offsets  []int
	features []FeatureSketch
	window   classWindow
	residual ResidualSketch
	count    uint64
}

// NewBuilder creates a builder over the match-key offsets. window > 0
// keeps the verdict mix over a sliding window of the last `window`
// observations (live monitoring); window == 0 accumulates forever
// (baseline construction).
func NewBuilder(offsets []int, window int) *Builder {
	b := &Builder{
		offsets:  append([]int(nil), offsets...),
		features: make([]FeatureSketch, len(offsets)),
		window:   newClassWindow(window),
		residual: newResidualSketch(),
	}
	for i, off := range offsets {
		b.features[i] = newFeatureSketch(off)
	}
	return b
}

// Observe folds one digest into the sketches: its key, one byte per
// builder offset in their order, the slow-path class (NoClass to skip the
// verdict mix), and the autoencoder residual (NoResidual to skip).
func (b *Builder) Observe(key []byte, class int, residual float64) {
	b.count++
	for i := range b.features {
		b.features[i].observe(key[i])
	}
	if class >= 0 {
		if class >= maxClasses {
			class = maxClasses - 1
		}
		b.window.observe(class)
	}
	b.residual.observe(residual)
}

// Count returns the number of observations folded in.
func (b *Builder) Count() uint64 { return b.count }

// Profile snapshots the builder into a deep-copied, serializable
// profile.
func (b *Builder) Profile() *Profile {
	p := &Profile{
		Schema:   Schema,
		Offsets:  append([]int(nil), b.offsets...),
		Count:    b.count,
		Features: make([]FeatureSketch, len(b.features)),
		Classes:  append([]uint64(nil), b.window.counts...),
		Residual: b.residual,
	}
	for i := range b.features {
		p.Features[i] = b.features[i]
		p.Features[i].Bins = append([]uint64(nil), b.features[i].Bins...)
	}
	p.Residual.Bins = append([]uint64(nil), b.residual.Bins...)
	return p
}

// classWindow keeps per-class verdict counts, optionally over a sliding
// window (ring buffer of the last cap classes).
type classWindow struct {
	ring   []int32
	next   int
	filled bool
	counts []uint64
}

func newClassWindow(capacity int) classWindow {
	var ring []int32
	if capacity > 0 {
		ring = make([]int32, capacity)
	}
	return classWindow{ring: ring}
}

func (w *classWindow) observe(class int) {
	for len(w.counts) <= class {
		w.counts = append(w.counts, 0)
	}
	w.counts[class]++
	if w.ring == nil {
		return
	}
	if w.filled {
		w.counts[w.ring[w.next]]--
	}
	w.ring[w.next] = int32(class)
	w.next++
	if w.next == len(w.ring) {
		w.next = 0
		w.filled = true
	}
}
