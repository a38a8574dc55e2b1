// Package netsim emulates the network fabric between the controller and
// a fleet of gateway switches: named nodes joined by point-to-point links
// with configurable latency, loss, connection resets, and bandwidth,
// multi-hop routing over shortest paths, and deterministic (seeded)
// emulation. It is the repo's one fault model: soak tests run the control
// loop over a faulty link, then re-add the link clean and require the
// rule state to converge.
//
// The topology is address-based so it composes with the real p4rt TCP
// transport: a switch attaches its listen address to a node with Bind,
// and the controller dials through Dialer(from), which routes the address
// to its node and returns a connection that applies the path's latency
// jitter, resets and torn writes, loss retransmission penalty, and
// serialization delay to every operation. Each operation reads the path's
// link profiles as they are at that moment, so AddLink on an existing
// link reconfigures — or heals — live connections too.
//
// Determinism: every emulated connection draws its delays, resets and
// losses from a private RNG seeded from (topology seed, connection
// ordinal), so a connection's emulation schedule depends only on the seed,
// the link profiles, and its own operation sequence.
package netsim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrNoRoute reports that no path joins two nodes (or a node or address
// is unknown to the topology).
var ErrNoRoute = errors.New("netsim: no route")

// ErrLinkDown marks an operation failed because the connection was torn
// down: a reset was drawn, or the loss process gave up after exhausting
// retransmissions.
var ErrLinkDown = errors.New("netsim: link down")

// maxRetransmits bounds consecutive per-write loss draws: each loss adds
// one retransmission delay, and a write losing more than this many
// transmissions in a row resets the connection (models a TCP give-up).
const maxRetransmits = 8

// LinkConfig is one point-to-point link's emulation profile. The zero
// value is a perfect link: no delay, no loss, infinite bandwidth.
type LinkConfig struct {
	// LatencyMin/LatencyMax bound the uniform one-way delay injected per
	// I/O operation crossing the link.
	LatencyMin, LatencyMax time.Duration
	// Loss is the per-transmission loss probability. Each lost
	// transmission of a write adds one retransmission delay draw; more
	// than maxRetransmits consecutive losses reset the connection.
	Loss float64
	// Bandwidth, in bytes per second, adds a serialization delay of
	// len/Bandwidth per write. 0 means unlimited.
	Bandwidth int64
	// Reset is the per-operation chance the connection is torn down (a
	// peer RST, a switch reboot). A torn write first delivers a random
	// strict prefix of its buffer, possibly empty, so the peer sees a
	// truncated frame.
	Reset float64
}

// Config tunes a Topology.
type Config struct {
	// Seed drives every emulated connection's RNG. Same seed, same
	// schedule (per connection, for its own operation sequence).
	Seed int64
}

// Stats counts emulation activity across all connections of a topology.
type Stats struct {
	Dials  uint64 // connections opened through the topology
	Delays uint64 // operations that slept (latency, serialization, or retransmit)
	Losses uint64 // lost transmissions (each added a retransmission delay)
	Resets uint64 // connections torn down (reset or loss give-up)
}

// edge is a canonical (sorted) undirected node pair.
type edge struct{ a, b string }

func mkEdge(a, b string) edge {
	if a > b {
		a, b = b, a
	}
	return edge{a, b}
}

type link struct {
	// The profile and the per-link emulation counters: every operation on
	// a connection reads the profile of each link along its path and is
	// attributed to each. Atomics, not t.mu: they are touched from
	// conn.apply on the data path where taking the topology lock would
	// serialize all connections.
	cfg     atomic.Pointer[LinkConfig]
	ops     atomic.Uint64 // operations that crossed this link
	delayed atomic.Uint64 // operations that slept
	losses  atomic.Uint64 // lost transmissions attributed to this link's path
	resets  atomic.Uint64 // connection resets whose path crossed this link
}

// LinkStats is one link's cumulative emulation counters, identified by
// its canonical (sorted) endpoint pair.
type LinkStats struct {
	A, B    string
	Ops     uint64 // operations whose path crossed the link
	Delayed uint64 // of those, operations that slept
	Losses  uint64 // lost transmissions attributed to the link
	Resets  uint64 // connection resets whose path crossed the link
}

// Topology is a mutable fabric graph plus the live connections emulated
// over it.
type Topology struct {
	seed int64

	mu      sync.Mutex
	nodes   map[string]bool
	links   map[edge]*link
	binds   map[string]string // listen address -> owning node
	ordinal uint64

	dials  atomic.Uint64
	delays atomic.Uint64
	losses atomic.Uint64
	resets atomic.Uint64
}

// New builds an empty topology.
func New(cfg Config) *Topology {
	return &Topology{
		seed:  cfg.Seed,
		nodes: make(map[string]bool),
		links: make(map[edge]*link),
		binds: make(map[string]string),
	}
}

// Stats returns cumulative emulation counters.
func (t *Topology) Stats() Stats {
	return Stats{
		Dials:  t.dials.Load(),
		Delays: t.delays.Load(),
		Losses: t.losses.Load(),
		Resets: t.resets.Load(),
	}
}

// LinkStats returns per-link emulation counters, sorted by endpoint
// pair for a stable render order.
func (t *Topology) LinkStats() []LinkStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]LinkStats, 0, len(t.links))
	for e, l := range t.links {
		out = append(out, LinkStats{
			A:       e.a,
			B:       e.b,
			Ops:     l.ops.Load(),
			Delayed: l.delayed.Load(),
			Losses:  l.losses.Load(),
			Resets:  l.resets.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// AddNode registers a node. Adding an existing node is a no-op.
func (t *Topology) AddNode(name string) {
	t.mu.Lock()
	t.nodes[name] = true
	t.mu.Unlock()
}

// AddLink joins two nodes with a point-to-point link (registering the
// nodes if needed). Re-adding an existing link gives it the new profile,
// which live connections across it take from their next operation on; its
// counters carry on.
func (t *Topology) AddLink(a, b string, cfg LinkConfig) error {
	if a == b {
		return fmt.Errorf("netsim: self-link on %q", a)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes[a], t.nodes[b] = true, true
	e := mkEdge(a, b)
	l := t.links[e]
	if l == nil {
		l = &link{}
		t.links[e] = l
	}
	l.cfg.Store(&cfg)
	return nil
}

// Bind attaches a listen address to a node: dials to addr through this
// topology route to node. Rebinding an address moves it (a restarted
// switch re-attaching its port).
func (t *Topology) Bind(node, addr string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.nodes[node] {
		return fmt.Errorf("netsim: bind %s: unknown node %q", addr, node)
	}
	t.binds[addr] = node
	return nil
}

// pathLocked returns the node sequence of the shortest path from one node
// to another, ties broken lexicographically so routing is deterministic.
// t.mu must be held.
func (t *Topology) pathLocked(from, to string) ([]string, error) {
	if !t.nodes[from] || !t.nodes[to] {
		return nil, fmt.Errorf("%w: %s -> %s (unknown node)", ErrNoRoute, from, to)
	}
	if from == to {
		return []string{from}, nil
	}
	// Adjacency, neighbors sorted for deterministic BFS.
	adj := make(map[string][]string, len(t.nodes))
	for e := range t.links {
		adj[e.a] = append(adj[e.a], e.b)
		adj[e.b] = append(adj[e.b], e.a)
	}
	for n := range adj {
		sort.Strings(adj[n])
	}
	prev := map[string]string{from: from}
	queue := []string{from}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == to {
			var path []string
			for at := to; at != from; at = prev[at] {
				path = append(path, at)
			}
			path = append(path, from)
			for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
				path[i], path[j] = path[j], path[i]
			}
			return path, nil
		}
		for _, nb := range adj[n] {
			if _, seen := prev[nb]; !seen {
				prev[nb] = n
				queue = append(queue, nb)
			}
		}
	}
	return nil, fmt.Errorf("%w: %s -> %s", ErrNoRoute, from, to)
}

// PathProfile is the end-to-end emulation profile of a multi-hop path:
// latencies sum, loss and reset compose (1 - Π(1-pᵢ)), bandwidth is the
// narrowest hop.
type PathProfile struct {
	Hops int
	LinkConfig
}

// profileOf aggregates the current profiles of the links along a path.
func profileOf(links []*link) PathProfile {
	p := PathProfile{Hops: len(links)}
	survive, hold := 1.0, 1.0
	for _, l := range links {
		cfg := l.cfg.Load()
		p.LatencyMin += cfg.LatencyMin
		p.LatencyMax += cfg.LatencyMax
		survive *= 1 - cfg.Loss
		hold *= 1 - cfg.Reset
		if cfg.Bandwidth > 0 && (p.Bandwidth == 0 || cfg.Bandwidth < p.Bandwidth) {
			p.Bandwidth = cfg.Bandwidth
		}
	}
	p.Loss, p.Reset = 1-survive, 1-hold
	return p
}

// linksLocked returns the links along a node path.
func (t *Topology) linksLocked(path []string) []*link {
	links := make([]*link, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		links = append(links, t.links[mkEdge(path[i], path[i+1])])
	}
	return links
}

// Dialer returns a dial function that routes every outbound connection
// through the topology from the given node: the target address must be
// bound to a reachable node, and the returned connection applies the
// path's aggregate profile, read afresh on every operation. base (nil
// means plain TCP) opens the underlying transport. The signature matches
// p4rt.Dialer, so the result plugs straight into p4rt.WithDialer /
// controller.WithDialer.
func (t *Topology) Dialer(from string, base func(ctx context.Context, addr string) (net.Conn, error)) func(ctx context.Context, addr string) (net.Conn, error) {
	if base == nil {
		base = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	return func(ctx context.Context, addr string) (net.Conn, error) {
		t.mu.Lock()
		node, bound := t.binds[addr]
		if !bound {
			t.mu.Unlock()
			return nil, fmt.Errorf("%w: address %s not bound to any node", ErrNoRoute, addr)
		}
		path, err := t.pathLocked(from, node)
		if err != nil {
			t.mu.Unlock()
			return nil, err
		}
		links := t.linksLocked(path)
		t.ordinal++
		ord := t.ordinal
		t.mu.Unlock()

		raw, err := base(ctx, addr)
		if err != nil {
			return nil, err
		}
		if len(links) == 0 {
			// Loopback: both endpoints on one node, nothing to emulate.
			t.dials.Add(1)
			return raw, nil
		}
		c := &conn{
			Conn:  raw,
			topo:  t,
			links: links,
			rng:   rand.New(rand.NewSource(t.seed*1000003 + int64(ord))),
		}
		t.dials.Add(1)
		return c, nil
	}
}

// conn emulates one routed connection: every operation pays the path's
// latency draw and may be torn down, writes additionally pay serialization
// and loss retransmission penalties. mu serializes RNG draws so the
// schedule is reproducible for a given per-connection operation order.
type conn struct {
	net.Conn
	topo  *Topology
	links []*link // the path's; profiles and counter attribution
	down  atomic.Bool

	mu  sync.Mutex
	rng *rand.Rand
}

// cut tears the connection down: the emulation drew a reset, or the loss
// process gave up.
func (c *conn) cut() {
	if c.down.CompareAndSwap(false, true) {
		c.topo.resets.Add(1)
		for _, l := range c.links {
			l.resets.Add(1)
		}
		_ = c.Conn.Close()
	}
}

// jitter draws one uniform delay in [min, max) from rng (min, without a
// draw, when the interval is empty).
func jitter(rng *rand.Rand, min, max time.Duration) time.Duration {
	if max > min {
		return min + time.Duration(rng.Int63n(int64(max-min)))
	}
	return min
}

// plan draws one operation's emulation schedule under the connection RNG
// from the path's current profile: total sleep (latency + serialization +
// retransmissions), lost transmissions, and tear — the bytes of an n-byte
// operation to let through before the connection is torn down, or -1 to
// keep it.
func (c *conn) plan(isWrite bool, n int) (sleep time.Duration, losses, tear int) {
	p := profileOf(c.links)
	c.mu.Lock()
	defer c.mu.Unlock()
	sleep = jitter(c.rng, p.LatencyMin, p.LatencyMax)
	if p.Reset > 0 && c.rng.Float64() < p.Reset {
		if isWrite && n > 0 {
			return sleep, 0, c.rng.Intn(n)
		}
		return sleep, 0, 0
	}
	if !isWrite {
		return sleep, 0, -1
	}
	if p.Bandwidth > 0 {
		sleep += time.Duration(int64(n) * int64(time.Second) / p.Bandwidth)
	}
	if p.Loss > 0 {
		for c.rng.Float64() < p.Loss {
			losses++
			if losses > maxRetransmits {
				return sleep, losses, 0
			}
			// Each retransmission rides the path again.
			sleep += jitter(c.rng, p.LatencyMin, p.LatencyMax)
		}
	}
	return sleep, losses, -1
}

// apply runs one operation's emulation — counters, sleep — and returns
// how many of its n bytes go through before the connection is torn down,
// or -1 when it stays up.
func (c *conn) apply(isWrite bool, n int) int {
	if c.down.Load() {
		return 0
	}
	sleep, losses, tear := c.plan(isWrite, n)
	for _, l := range c.links {
		l.ops.Add(1)
		if sleep > 0 {
			l.delayed.Add(1)
		}
		if losses > 0 {
			l.losses.Add(uint64(losses))
		}
	}
	if losses > 0 {
		c.topo.losses.Add(uint64(losses))
	}
	if sleep > 0 {
		c.topo.delays.Add(1)
		time.Sleep(sleep)
	}
	if tear < 0 && c.down.Load() {
		return 0
	}
	return tear
}

func (c *conn) Read(p []byte) (int, error) {
	if c.apply(false, len(p)) >= 0 {
		c.cut()
		return 0, ErrLinkDown
	}
	return c.Conn.Read(p)
}

func (c *conn) Write(p []byte) (int, error) {
	tear := c.apply(true, len(p))
	if tear < 0 {
		return c.Conn.Write(p)
	}
	n := 0
	if tear > 0 && !c.down.Load() {
		n, _ = c.Conn.Write(p[:tear])
	}
	c.cut()
	return n, ErrLinkDown
}
