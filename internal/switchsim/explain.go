package switchsim

import (
	"sync/atomic"

	"p4guard/internal/p4"
	"p4guard/internal/packet"
	"p4guard/internal/telemetry"
)

// Explain is the switch-level explanation of one packet's forwarding
// decision: the parse outcome forwarding counts ParseFailed with, the
// verdict, and the detector table's evidence it was reached from.
//
// The stateful rate guard is deliberately not consulted — observing it
// would advance its window state, and an explanation must never perturb
// what it explains. Explain therefore describes the match–action
// decision; a packet the guard would drop is explained as the table
// alone would treat it.
type Explain struct {
	Switch   string          `json:"switch"`
	ParsedOK bool            `json:"parsed_ok"`
	Verdict  p4.Verdict      `json:"verdict"`
	Table    p4.TableExplain `json:"table"`
}

// Explain reconstructs the forwarding decision for one packet with full
// evidence and no side effects: no counters move, no digests queue, no
// rate-guard state advances. For any packet the rate guard does not
// drop, Explain(pkt).Verdict equals the verdict Process(pkt) returns
// against the same table generation.
func (s *Switch) Explain(pkt *packet.Packet) Explain {
	te := s.det.Explain(pkt.Bytes)
	return Explain{
		Switch:   s.Name,
		ParsedOK: packet.AcceptFrame(s.link, pkt.Bytes),
		Verdict:  te.Verdict,
		Table:    te,
	}
}

// ExplainSample is one sampled live explanation: the reconstruction
// plus the verdict the forwarding engine actually returned, so
// downstream analysis (the p4guard-obs analyzer) can audit
// explain-vs-lookup agreement continuously.
type ExplainSample struct {
	Explain
	// LookupVerdict is the live engine's verdict for the same packet.
	LookupVerdict p4.Verdict `json:"lookup_verdict"`
	// Agrees reports Verdict == LookupVerdict — the invariant the
	// differential suite enforces offline, checked here on real traffic.
	Agrees bool `json:"agrees"`
}

// ExplainRecord is the journal record kind a sample is written as; its
// fields are the whole ExplainSample.
const ExplainRecord = "explain"

// explainSampler is the armed sampling configuration. It lives behind
// an atomic pointer on the switch: when disarmed the hot path pays one
// pointer load per batch and one nil check per packet.
type explainSampler struct {
	every uint64
	n     atomic.Uint64
	j     *telemetry.Journal
	sink  func(ExplainSample)
}

// EnableExplainSampling arms sampled explains: one in every `every`
// forwarded packets (64 when every <= 0) is re-run through Explain, and
// the sample is written to j as one ExplainRecord and/or handed to sink.
// Either may be nil: an operator's daemon passes a journal and no sink, a
// test that wants the samples themselves passes a sink, and perfbench's
// armed-forwarding probe passes a memory-only journal and no sink.
// Rate-guard-dropped packets are not sampled — they never reached the
// match–action pipeline.
func (s *Switch) EnableExplainSampling(every int, j *telemetry.Journal, sink func(ExplainSample)) {
	if every <= 0 {
		every = 64
	}
	s.explain.Store(&explainSampler{every: uint64(every), j: j, sink: sink})
}

// DisableExplainSampling disarms sampled explains.
func (s *Switch) DisableExplainSampling() {
	s.explain.Store(nil)
}

// maybeSample records one explanation per `every` observed packets.
// The counter add only happens on the armed path; the caller has
// already checked the sampler pointer.
func (sp *explainSampler) maybeSample(s *Switch, pkt *packet.Packet, lookup p4.Verdict) {
	if sp.n.Add(1)%sp.every != 0 {
		return
	}
	ex := s.Explain(pkt)
	sample := ExplainSample{
		Explain:       ex,
		LookupVerdict: lookup,
		Agrees:        ex.Verdict == lookup,
	}
	if sp.j != nil {
		_ = sp.j.Event(ExplainRecord, sample)
	}
	if sp.sink != nil {
		sp.sink(sample)
	}
}
