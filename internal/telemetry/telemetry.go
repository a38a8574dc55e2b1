// Package telemetry is the runtime observability core shared by the
// switch, the controller, and the p4rt agent: lock-free counters, gauges,
// and fixed-bucket latency histograms; a Prometheus-text-format exposition
// writer; and the Journal, the one store of structured events, kept in a
// bounded memory tail and optionally appended to a JSONL file.
//
// The package is dependency-free (stdlib only) and safe on hot paths: an
// instrument update is one or two uncontended atomic adds, registries are
// only locked at registration and exposition time, and snapshots read the
// live atomics without stalling writers. Snapshots are monotonic rather
// than point-in-time consistent: a histogram observation increments its
// bucket before the total count, and Snapshot reads the total first, so
// the bucket sum is always >= the reported count and the two agree at
// quiescence.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one exposition label pair.
type Label struct {
	Key   string
	Value string
}

// LatencyBuckets are the default histogram bounds for per-packet
// forwarding latency, in seconds: 100ns to 100ms, roughly logarithmic.
// The data plane sits in the sub-microsecond buckets; the slow path and
// digest round trips land milliseconds up.
var LatencyBuckets = []float64{
	100e-9, 250e-9, 500e-9,
	1e-6, 2.5e-6, 5e-6, 10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 10e-3, 100e-3,
}

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable int64 (queue depths, entry counts).
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram with atomic bucket counters. The
// bucket at index i counts observations <= Bounds[i]; the final implicit
// bucket counts everything larger (+Inf).
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64   // float64 bits, CAS-updated
	count  atomic.Uint64
}

// NewHistogram builds a histogram over the given sorted upper bounds
// (LatencyBuckets when nil).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value. Cost: two atomic adds plus one CAS loop for
// the sum — callers on per-packet paths should sample (see the switch's
// latency sampling policy) rather than observe every packet.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	h.count.Add(1)
}

// HistogramSnapshot is a monotonic snapshot of a histogram.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds; Counts has one extra +Inf bucket
	Counts []uint64  // per-bucket (non-cumulative) counts
	Count  uint64
	Sum    float64
}

// Mean returns the mean observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0..1) by linear interpolation
// within the bucket holding the target rank — the same estimator
// Prometheus's histogram_quantile uses. Values in the +Inf bucket clamp
// to the largest finite bound. Returns 0 when the histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := uint64(0)
	for i, c := range s.Counts {
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		if i == len(s.Bounds) { // +Inf bucket: clamp to last finite bound
			return s.Bounds[len(s.Bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		upper := s.Bounds[i]
		if c == 0 {
			return upper
		}
		return lower + (upper-lower)*(rank-float64(cum))/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Snapshot reads the histogram. The total count is read before the
// buckets, so sum(Counts) >= Count even under concurrent Observe calls.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// metric is one registered instrument or collector.
type metric struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	labels []Label
	// exactly one of the following is set
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	valueFn func() float64
	collect func(emit func(labels []Label, v float64))
}

// Registry holds named instruments and renders them in Prometheus text
// exposition format. Registration takes a lock; instrument updates do not.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns an owned counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.add(&metric{name: name, help: help, typ: "counter", labels: labels, counter: c})
	return c
}

// Gauge registers and returns an owned gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.add(&metric{name: name, help: help, typ: "gauge", labels: labels, gauge: g})
	return g
}

// Histogram registers and returns an owned histogram over the given
// bounds (LatencyBuckets when nil).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	h := NewHistogram(bounds)
	r.add(&metric{name: name, help: help, typ: "histogram", labels: labels, hist: h})
	return h
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — the pattern for surfacing counters a subsystem
// already maintains as its own atomics.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(&metric{name: name, help: help, typ: "counter", labels: labels, valueFn: fn})
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(&metric{name: name, help: help, typ: "gauge", labels: labels, valueFn: fn})
}

// CollectFunc registers a callback that emits a dynamic sample set under
// one family at exposition time — used for per-table-entry counters whose
// label sets change as tables are reprogrammed. typ must be "counter" or
// "gauge".
func (r *Registry) CollectFunc(name, help, typ string, fn func(emit func(labels []Label, v float64))) {
	r.add(&metric{name: name, help: help, typ: typ, collect: fn})
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format, grouped by family name (HELP/TYPE emitted once per
// family) and sorted for deterministic scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	metrics := make([]*metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()

	sort.SliceStable(metrics, func(i, j int) bool { return metrics[i].name < metrics[j].name })

	var b strings.Builder
	lastFamily := ""
	for _, m := range metrics {
		if m.name != lastFamily {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, escapeHelp(m.help))
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.typ)
			lastFamily = m.name
		}
		switch {
		case m.counter != nil:
			writeSample(&b, m.name, m.labels, float64(m.counter.Value()))
		case m.gauge != nil:
			writeSample(&b, m.name, m.labels, float64(m.gauge.Value()))
		case m.valueFn != nil:
			writeSample(&b, m.name, m.labels, m.valueFn())
		case m.collect != nil:
			m.collect(func(labels []Label, v float64) {
				writeSample(&b, m.name, labels, v)
			})
		case m.hist != nil:
			s := m.hist.Snapshot()
			cum := uint64(0)
			for i, bound := range s.Bounds {
				cum += s.Counts[i]
				writeSample(&b, m.name+"_bucket",
					append(append([]Label{}, m.labels...), Label{"le", formatFloat(bound)}), float64(cum))
			}
			cum += s.Counts[len(s.Counts)-1]
			writeSample(&b, m.name+"_bucket",
				append(append([]Label{}, m.labels...), Label{"le", "+Inf"}), float64(cum))
			writeSample(&b, m.name+"_sum", m.labels, s.Sum)
			writeSample(&b, m.name+"_count", m.labels, float64(s.Count))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSample(b *strings.Builder, name string, labels []Label, v float64) {
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Key)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
