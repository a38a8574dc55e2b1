package p4

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"p4guard/internal/packet"
)

// Verdict is a pipeline's final decision on a packet.
type Verdict struct {
	// Allowed reports whether the packet is forwarded.
	Allowed bool `json:"allowed"`
	// Class is the class an allow or drop action carries; 0 on a digest.
	Class int `json:"class"`
	// Matched reports whether a non-default entry fired.
	Matched bool `json:"matched"`
	// Digested reports whether a digest was queued for the controller.
	Digested bool `json:"digested"`
}

// verdictOf is the one rule from a table's action to a verdict, shared by
// Process, ProcessBatch and Table.Explain. Allow and drop carry their class;
// digest forwards the packet with class 0 and asks for a digest. An action
// the table does not define forwards, as digest does, without one.
func verdictOf(act Action, matched bool) Verdict {
	v := Verdict{Allowed: act.Type != ActionDrop, Matched: matched}
	switch act.Type {
	case ActionAllow, ActionDrop:
		v.Class = act.Class
	case ActionDigest:
		v.Digested = true
	}
	return v
}

// Digest is a table miss queued for the controller: the lookup key, all the
// slow path reads, whose byte i is frame byte Offsets[i] (shared, read-only).
// At is the enqueue time, where the digest_wait trace stage starts.
type Digest struct {
	Key     []byte
	Offsets []int
	At      time.Time
}

// Pipeline is the ingress control block the detector program declares: one
// table applied to every packet, plus a bounded queue of copies of the
// misses' keys, all gathered under the table's current layout.
type Pipeline struct {
	table   *Table
	mu      sync.Mutex  // guards the digest queue
	layout  []FieldSpec // the layout the queued keys were gathered under
	offsets []int       // layout's key bytes as frame offsets (Digest.Offsets, shared with the table)
	keys    []byte      // queued keys back to back, len(offsets) bytes each
	at      []time.Time // enqueue time per queued key
	offered uint64      // digests ever presented to the queue (accepted + dropped)
	drained uint64      // digests handed to DrainDigests callers
	dropped uint64      // digests dropped: queue full, no layout, or layout changed
	maxQ    int
}

// NewPipeline builds the pipeline that applies t, with the given digest
// queue capacity (<=0 means 1024).
func NewPipeline(t *Table, digestCap int) *Pipeline {
	if digestCap <= 0 {
		digestCap = 1024
	}
	return &Pipeline{table: t, maxQ: digestCap}
}

// Table returns the pipeline's table when name is its name.
func (p *Pipeline) Table(name string) (*Table, error) {
	if name != p.table.Name {
		return nil, fmt.Errorf("%q: %w", name, ErrNoSuchTable)
	}
	return p.table, nil
}

// Process runs the packet through the table and returns the verdict,
// queueing the lookup key as a digest when the action asks for one.
func (p *Pipeline) Process(pkt *packet.Packet) Verdict {
	var kb [128]byte // key, then the ternary lane-masking scratch
	act, matched, st, key := p.table.lookup(pkt.Bytes, kb[:])
	v := verdictOf(act, matched)
	if v.Digested {
		p.queueKeys(st.key, key, 1, time.Now())
	}
	return v
}

// queueKeys copies n keys gathered under layout, back to back in keys, into
// the queue's storage, stamped at. Keys past the bound, and all of them when
// layout is not the table's current one or is empty, are dropped, and
// counted: a key means nothing without the offsets it was gathered at.
func (p *Pipeline) queueKeys(layout []FieldSpec, keys []byte, n int, at time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.offered += uint64(n)
	p.relayout()
	take := 0
	if len(p.offsets) > 0 && slices.Equal(layout, p.layout) {
		take = min(n, p.maxQ-len(p.at))
	}
	p.dropped += uint64(n - take)
	p.keys = append(p.keys, keys[:take*len(p.offsets)]...)
	for range take {
		p.at = append(p.at, at)
	}
}

// relayout brings the queue to the table's current key layout, dropping and
// counting what was queued under another one (specs compared whole, names
// too). Callers hold p.mu.
func (p *Pipeline) relayout() {
	st := p.table.state.Load()
	if slices.Equal(st.key, p.layout) {
		p.layout = st.key
		return
	}
	p.dropped += uint64(len(p.at))
	p.keys, p.at = p.keys[:0], p.at[:0]
	p.layout, p.offsets = st.key, st.offs
}

// DrainDigests removes and returns up to max queued digests (all when
// max <= 0), crediting the drained counter so queue accounting balances (see
// DigestQueueStats). The keys are copies, one allocation for the lot, so the
// queue's storage is refilled by the next burst and grows no further.
func (p *Pipeline) DrainDigests(max int) []Digest {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.relayout()
	n := len(p.at)
	if max > 0 && max < n {
		n = max
	}
	w := len(p.offsets)
	keys := append([]byte(nil), p.keys[:n*w]...)
	out := make([]Digest, n)
	for i := range out {
		out[i] = Digest{Key: keys[i*w : (i+1)*w : (i+1)*w], Offsets: p.offsets, At: p.at[i]}
	}
	rest := copy(p.at, p.at[n:])
	p.at = p.at[:rest]
	p.keys = p.keys[:copy(p.keys, p.keys[n*w:])]
	p.drained += uint64(n)
	return out
}

// DigestQueueStats is a snapshot of digest-queue accounting.
type DigestQueueStats struct {
	// Depth is the current queue occupancy; Capacity its bound.
	Depth    int
	Capacity int
	// Offered counts every digest presented to the queue; Drained those
	// handed to the controller side; Dropped those lost: to overflow, to a
	// miss before the table had a key layout, or to a program that changed
	// the layout they were queued under. The invariant always holds:
	//   Offered == Drained + Dropped + Depth
	Offered uint64
	Drained uint64
	Dropped uint64
}

// DigestQueueStats returns a consistent snapshot of the queue counters,
// after dropping what a program that changed the key layout left queued.
func (p *Pipeline) DigestQueueStats() DigestQueueStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.relayout()
	return DigestQueueStats{
		Depth:    len(p.at),
		Capacity: p.maxQ,
		Offered:  p.offered,
		Drained:  p.drained,
		Dropped:  p.dropped,
	}
}
