package p4

import (
	"fmt"
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

// Digest is a packet sample queued for the controller. At is the
// enqueue wall time, stamped so the digest pump can account queue wait
// (the digest_wait trace stage) from the moment the sample was taken.
type Digest struct {
	Pkt *packet.Packet
	At  time.Time
}

// Pipeline is the ingress control block the detector program declares: one
// table applied to every packet, plus a bounded digest queue.
type Pipeline struct {
	table   *Table
	mu      sync.RWMutex // guards the digest queue
	digests []Digest
	offered uint64 // digests ever presented to the queue (accepted + dropped)
	queued  uint64 // digests ever enqueued
	drained uint64 // digests handed to DrainDigests callers
	dropped uint64 // digests dropped due to a full queue
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
// queueing a digest when the action asks for one.
func (p *Pipeline) Process(pkt *packet.Packet) Verdict {
	v := verdictOf(p.table.Lookup(pkt.Bytes))
	if v.Digested {
		p.queueDigest(Digest{Pkt: pkt})
	}
	return v
}

func (p *Pipeline) queueDigest(d Digest) {
	d.At = time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.offered++
	if len(p.digests) >= p.maxQ {
		p.dropped++
		return
	}
	p.queued++
	p.digests = append(p.digests, d)
}

// DrainDigests removes and returns up to max queued digests (all when
// max <= 0), crediting the drained counter so queue accounting balances:
// queued == drained + depth at all times, and dropped records overflow
// loss separately.
func (p *Pipeline) DrainDigests(max int) []Digest {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.digests)
	if max > 0 && max < n {
		n = max
	}
	out := make([]Digest, n)
	copy(out, p.digests[:n])
	// The array outlives the drain. What is left moves to its front, so the
	// next burst fills it again and does not grow another, and the slots
	// behind are cleared: the packets handed out are the caller's alone.
	rest := copy(p.digests, p.digests[n:])
	clear(p.digests[rest:])
	p.digests = p.digests[:rest]
	p.drained += uint64(n)
	return out
}

// DigestQueueStats is a snapshot of digest-queue accounting.
type DigestQueueStats struct {
	// Depth is the current queue occupancy; Capacity its bound.
	Depth    int
	Capacity int
	// Offered counts every digest presented to the queue; Queued those
	// accepted; Drained those handed to the controller side; Dropped those
	// lost to overflow. Two invariants always hold:
	//   Queued  == Drained + Depth
	//   Offered == Drained + Dropped + Depth
	Offered uint64
	Queued  uint64
	Drained uint64
	Dropped uint64
}

// DigestQueueStats returns a consistent snapshot of the queue counters.
func (p *Pipeline) DigestQueueStats() DigestQueueStats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return DigestQueueStats{
		Depth:    len(p.digests),
		Capacity: p.maxQ,
		Offered:  p.offered,
		Queued:   p.queued,
		Drained:  p.drained,
		Dropped:  p.dropped,
	}
}
