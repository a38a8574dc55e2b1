package p4

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"p4guard/internal/packet"
)

// Verdict is a pipeline's final decision on a packet.
type Verdict struct {
	// Allowed reports whether the packet is forwarded.
	Allowed bool `json:"allowed"`
	// Class is the last class metadata written by ActionSetClass, or the
	// class carried by the terminal action.
	Class int `json:"class"`
	// Matched reports whether any non-default entry fired.
	Matched bool `json:"matched"`
	// Digested reports whether a digest was queued for the controller.
	Digested bool `json:"digested"`
}

// Digest is a packet sample queued for the controller. At is the
// enqueue wall time, stamped so the digest pump can account queue wait
// (the digest_wait trace stage) from the moment the sample was taken.
type Digest struct {
	Table string
	Pkt   *packet.Packet
	At    time.Time
}

// Pipeline is an ordered list of tables applied to every packet, plus a
// bounded digest queue. It models a single P4 ingress control block.
type Pipeline struct {
	mu      sync.RWMutex
	tables  []*Table
	byName  map[string]*Table
	snap    atomic.Pointer[[]*Table] // published copy of tables for lock-free reads
	digests []Digest
	offered uint64 // digests ever presented to the queue (accepted + dropped)
	queued  uint64 // digests ever enqueued
	drained uint64 // digests handed to DrainDigests callers
	dropped uint64 // digests dropped due to a full queue
	maxQ    int
}

// NewPipeline builds a pipeline with the given digest queue capacity
// (<=0 means 1024).
func NewPipeline(digestCap int) *Pipeline {
	if digestCap <= 0 {
		digestCap = 1024
	}
	return &Pipeline{byName: make(map[string]*Table), maxQ: digestCap}
}

// AddTable appends a table to the pipeline.
func (p *Pipeline) AddTable(t *Table) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.byName[t.Name]; dup {
		return fmt.Errorf("p4: duplicate table %q", t.Name)
	}
	p.tables = append(p.tables, t)
	p.byName[t.Name] = t
	snap := make([]*Table, len(p.tables))
	copy(snap, p.tables)
	p.snap.Store(&snap)
	return nil
}

// Table returns the named table.
func (p *Pipeline) Table(name string) (*Table, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	t, ok := p.byName[name]
	if !ok {
		return nil, fmt.Errorf("%q: %w", name, ErrNoSuchTable)
	}
	return t, nil
}

// Tables returns the tables in pipeline order.
func (p *Pipeline) Tables() []*Table {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]*Table, len(p.tables))
	copy(out, p.tables)
	return out
}

// Process runs the packet through the pipeline and returns the verdict.
// The default disposition when no terminal action fires is allow (a
// firewall that fails open for unmatched traffic; the detector's default
// action usually overrides this by digesting or dropping).
func (p *Pipeline) Process(pkt *packet.Packet) Verdict {
	return p.RunTables(p.TableSnapshot(), pkt)
}

// TableSnapshot returns the current table list for use with RunTables.
// The snapshot is published atomically by AddTable, so reading it costs
// one atomic load and no lock; the slice must be treated as immutable.
func (p *Pipeline) TableSnapshot() []*Table {
	if snap := p.snap.Load(); snap != nil {
		return *snap
	}
	return nil
}

// RunTables applies a table snapshot (from TableSnapshot) to one packet.
func (p *Pipeline) RunTables(tables []*Table, pkt *packet.Packet) Verdict {
	v := Verdict{Allowed: true}
	for _, t := range tables {
		act, matched := t.Lookup(pkt.Bytes)
		v.Matched = v.Matched || matched
		switch act.Type {
		case ActionAllow:
			v.Allowed = true
			v.Class = act.Class
			return v
		case ActionDrop:
			v.Allowed = false
			v.Class = act.Class
			return v
		case ActionDigest:
			p.queueDigest(Digest{Table: t.Name, Pkt: pkt})
			v.Digested = true
		case ActionSetClass:
			v.Class = act.Class
		case ActionNop:
		}
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

// DroppedDigests reports digests lost to queue overflow.
func (p *Pipeline) DroppedDigests() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.dropped
}
