// Package dtrace is the fleet's distributed tracing layer: 64-bit
// trace/span IDs minted from seeded RNGs (deterministic in tests), spans
// timed on per-process monotonic clocks, parent links that stitch one
// trace across the p4rt wire (switch digest-enqueue → controller fan-in
// wait → classify → plan → install → switch apply), a bounded in-memory
// span ring exported into a telemetry.Journal as records of kind "span",
// and the same disarmed-cost contract as explain sampling: when no tracer
// is armed the instrumented paths pay one atomic pointer load and nothing
// else.
//
// The package name avoids internal/trace, which holds dataset traces
// (packet captures), not execution traces.
package dtrace

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"p4guard/internal/telemetry"
)

// TraceID identifies one end-to-end trace; 0 means "no trace".
type TraceID uint64

// SpanID identifies one span within a trace; 0 means "no span".
type SpanID uint64

// Kind partitions spans for critical-path analysis. Stage spans form the
// linear chain whose durations sum to the trace's end-to-end time;
// detail spans are nested work (e.g. the switch-side apply inside the
// controller's install RPC) reported under their parent but excluded
// from the sum — their time is already inside an enclosing stage.
type Kind string

// Span kinds.
const (
	KindStage  Kind = "stage"
	KindDetail Kind = "detail"
)

// Stage and detail names of the digest round trip and the deploy path.
// Constants so the switch, the controller, and the analyzer agree.
const (
	StageDigestWait = "digest_wait"   // switch: pipeline enqueue → pump drain
	StageFanInWait  = "fanin_wait"    // controller: fan-in enqueue → worker pop
	StageClassify   = "classify"      // controller: slow-path model
	StagePlan       = "plan"          // controller: mirror/dedup/shard decision
	StageInstall    = "install"       // controller: reactive WriteEntry RPC
	DetailApply     = "apply"         // switch: table insert inside install
	StageDeploy     = "deploy"        // controller: whole Deploy
	DetailProgram   = "program_apply" // switch: shard program apply
)

// Span is one timed operation. StartNs/EndNs are monotonic offsets from
// the recording tracer's arm time — comparable within one process, not
// across processes (the analyzer never subtracts timestamps taken on
// different procs).
type Span struct {
	Trace   TraceID           `json:"trace_id"`
	ID      SpanID            `json:"span_id"`
	Parent  SpanID            `json:"parent_id,omitempty"`
	Name    string            `json:"name"`
	Kind    Kind              `json:"kind,omitempty"` // empty means stage
	Proc    string            `json:"proc"`
	StartNs int64             `json:"start_ns"`
	EndNs   int64             `json:"end_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Duration returns the span's elapsed time.
func (s Span) Duration() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// IsDetail reports whether the span is nested work excluded from the
// stage chain.
func (s Span) IsDetail() bool { return s.Kind == KindDetail }

// SpanContext is the trace context propagated across the wire: which
// trace, and which span is the parent of whatever the receiver records.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context carries a trace.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 }

// tracerState is the armed configuration behind the tracer's atomic
// pointer; nil pointer means disarmed.
type tracerState struct {
	proc  string
	start time.Time

	mu   sync.Mutex
	rng  *rand.Rand
	ring telemetry.Ring[Span]
}

// now returns the per-process monotonic offset, in nanoseconds.
func (st *tracerState) now() int64 { return time.Since(st.start).Nanoseconds() }

// offset converts an absolute time to the tracer's monotonic clock,
// clamped at zero so an event stamped before arming cannot produce a
// negative (non-monotonic) timestamp.
func (st *tracerState) offset(at time.Time) int64 {
	if at.IsZero() {
		return st.now()
	}
	d := at.Sub(st.start)
	if d < 0 {
		d = 0
	}
	return d.Nanoseconds()
}

// mintLocked draws one nonzero 64-bit ID. Callers hold st.mu.
func (st *tracerState) mintLocked() uint64 {
	for {
		if v := st.rng.Uint64(); v != 0 {
			return v
		}
	}
}

// record appends one finished span to the ring, overwriting the oldest
// when full.
func (st *tracerState) record(sp Span) {
	st.mu.Lock()
	st.ring.Put(sp)
	st.mu.Unlock()
}

// Tracer records spans for one process. The zero-cost contract: a
// disarmed tracer (or a nil *Tracer) makes every Start* call a single
// atomic pointer load returning an inert ActiveSpan whose End is a
// no-op, so tracing can stay compiled into hot-adjacent paths.
type Tracer struct {
	armed atomic.Pointer[tracerState]
}

// NewTracer builds a disarmed tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Arm enables span recording: proc names the process in every span,
// seed drives ID minting (same seed, same ID sequence — the determinism
// tests rely on it), and capacity bounds the span ring (8192 when <= 0).
// Re-arming replaces the state, resetting the clock and the ring.
func (t *Tracer) Arm(proc string, seed int64, capacity int) {
	if capacity <= 0 {
		capacity = 8192
	}
	t.armed.Store(&tracerState{
		proc:  proc,
		start: time.Now(),
		rng:   rand.New(rand.NewSource(seed)),
		ring:  telemetry.NewRing[Span](capacity),
	})
}

// Enabled reports whether the tracer is armed. Safe on a nil receiver.
func (t *Tracer) Enabled() bool { return t != nil && t.armed.Load() != nil }

// StartTrace mints a fresh trace with name as its root stage span,
// starting now.
func (t *Tracer) StartTrace(name string) ActiveSpan {
	return t.StartTraceAt(name, time.Time{})
}

// StartTraceAt mints a fresh trace whose root stage span started at the
// given absolute time (zero means now) — the digest pump uses it to
// account queue wait that began before the span could be minted.
func (t *Tracer) StartTraceAt(name string, at time.Time) ActiveSpan {
	if t == nil {
		return ActiveSpan{}
	}
	st := t.armed.Load()
	if st == nil {
		return ActiveSpan{}
	}
	st.mu.Lock()
	tid := TraceID(st.mintLocked())
	sid := SpanID(st.mintLocked())
	st.mu.Unlock()
	return ActiveSpan{st: st, span: Span{
		Trace: tid, ID: sid, Name: name, Kind: KindStage,
		Proc: st.proc, StartNs: st.offset(at),
	}}
}

// StartSpan opens a stage span continuing an existing trace, starting
// now. An invalid parent context (no trace on the wire) or a disarmed
// tracer yields an inert span.
func (t *Tracer) StartSpan(parent SpanContext, name string) ActiveSpan {
	return t.startSpan(parent, name, KindStage, time.Time{})
}

// StartSpanAt is StartSpan with an explicit start time (zero means now).
func (t *Tracer) StartSpanAt(parent SpanContext, name string, at time.Time) ActiveSpan {
	return t.startSpan(parent, name, KindStage, at)
}

// StartDetail opens a detail span (nested work excluded from the stage
// chain sum) continuing an existing trace, started at the given absolute
// time (zero means now) — a switch starts its apply span when the request
// arrived, so decoding it is inside the span.
func (t *Tracer) StartDetail(parent SpanContext, name string, at time.Time) ActiveSpan {
	return t.startSpan(parent, name, KindDetail, at)
}

func (t *Tracer) startSpan(parent SpanContext, name string, kind Kind, at time.Time) ActiveSpan {
	if t == nil || !parent.Valid() {
		return ActiveSpan{}
	}
	st := t.armed.Load()
	if st == nil {
		return ActiveSpan{}
	}
	st.mu.Lock()
	sid := SpanID(st.mintLocked())
	st.mu.Unlock()
	return ActiveSpan{st: st, span: Span{
		Trace: parent.Trace, ID: sid, Parent: parent.Span, Name: name,
		Kind: kind, Proc: st.proc, StartNs: st.offset(at),
	}}
}

// Total returns the number of spans ever recorded (0 when disarmed).
func (t *Tracer) Total() uint64 {
	var n uint64
	t.locked(func(st *tracerState) { n = st.ring.Total() })
	return n
}

// Spans returns the retained spans oldest-to-newest (nil when disarmed).
func (t *Tracer) Spans() []Span {
	var out []Span
	t.locked(func(st *tracerState) { out = st.ring.Values() })
	return out
}

// locked runs fn on the armed state under its lock; nothing when the
// tracer is nil or disarmed.
func (t *Tracer) locked(fn func(*tracerState)) {
	if t == nil {
		return
	}
	if st := t.armed.Load(); st != nil {
		st.mu.Lock()
		defer st.mu.Unlock()
		fn(st)
	}
}

// SpanRecord is the journal record kind a span is exported as.
const SpanRecord = "span"

// Export writes every retained span into j, one SpanRecord each. The
// journals of several processes, read back together, assemble into the
// cross-process traces.
func (t *Tracer) Export(j *telemetry.Journal) error {
	for _, sp := range t.Spans() {
		if err := j.Event(SpanRecord, sp); err != nil {
			return fmt.Errorf("dtrace: export: %w", err)
		}
	}
	return nil
}

// FromJournal returns the spans among journal records, in record order.
// A span record that does not decode is skipped, and the first such is
// named in the error.
func FromJournal(recs []telemetry.JournalRecord) ([]Span, error) {
	var out []Span
	var first error
	for _, rec := range recs {
		if rec.Kind != SpanRecord {
			continue
		}
		var sp Span
		if err := rec.Decode(&sp); err != nil {
			if first == nil {
				first = fmt.Errorf("dtrace: span record %d of %s: %w", rec.Seq, rec.RunID, err)
			}
			continue
		}
		out = append(out, sp)
	}
	return out, first
}

// ActiveSpan is an open span. The zero value is inert: Context returns
// an invalid context and End does nothing, so callers never branch on
// whether tracing is armed.
type ActiveSpan struct {
	st   *tracerState
	span Span
}

// Active reports whether the span will be recorded.
func (a ActiveSpan) Active() bool { return a.st != nil }

// Context returns the context downstream spans (local or across the
// wire) use as their parent.
func (a ActiveSpan) Context() SpanContext {
	if a.st == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: a.span.Trace, Span: a.span.ID}
}

// SetAttr attaches a key/value annotation (no-op when inert).
func (a *ActiveSpan) SetAttr(k, v string) {
	if a.st == nil {
		return
	}
	if a.span.Attrs == nil {
		a.span.Attrs = make(map[string]string, 2)
	}
	a.span.Attrs[k] = v
}

// End closes the span at the tracer's current monotonic clock and
// records it.
func (a ActiveSpan) End() {
	if a.st == nil {
		return
	}
	a.span.EndNs = a.st.now()
	if a.span.EndNs < a.span.StartNs {
		a.span.EndNs = a.span.StartNs
	}
	a.st.record(a.span)
}
