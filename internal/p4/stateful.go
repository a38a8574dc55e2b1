package p4

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"
)

// CountMinSketch approximates per-key counts in fixed memory — the
// standard data-plane structure for heavy-hitter detection (d hash rows of
// w counters; estimates never undercount).
type CountMinSketch struct {
	mu    sync.Mutex
	depth int
	width int
	rows  [][]uint64
	seeds []uint64
}

// NewCountMinSketch allocates a depth×width sketch.
func NewCountMinSketch(depth, width int) (*CountMinSketch, error) {
	if depth <= 0 || width <= 0 {
		return nil, fmt.Errorf("p4: sketch dims %dx%d", depth, width)
	}
	s := &CountMinSketch{
		depth: depth,
		width: width,
		rows:  make([][]uint64, depth),
		seeds: make([]uint64, depth),
	}
	for i := range s.rows {
		s.rows[i] = make([]uint64, width)
		s.seeds[i] = uint64(i)*0x9e3779b97f4a7c15 + 0x85ebca6b
	}
	return s, nil
}

func (s *CountMinSketch) index(row int, key []byte) int {
	h := fnv.New64a()
	var seed [8]byte
	v := s.seeds[row]
	for i := 0; i < 8; i++ {
		seed[i] = byte(v >> (8 * i))
	}
	_, _ = h.Write(seed[:])
	_, _ = h.Write(key)
	return int(h.Sum64() % uint64(s.width))
}

// Update adds delta to the key and returns the new (over-)estimate.
func (s *CountMinSketch) Update(key []byte, delta uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	est := ^uint64(0)
	for row := 0; row < s.depth; row++ {
		i := s.index(row, key)
		s.rows[row][i] += delta
		if s.rows[row][i] < est {
			est = s.rows[row][i]
		}
	}
	return est
}

// Reset zeroes the sketch.
func (s *CountMinSketch) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, row := range s.rows {
		for i := range row {
			row[i] = 0
		}
	}
}

// RateGuard is a stateful heavy-hitter stage: it counts packets per match
// key in a count-min sketch over sliding windows and reports keys whose
// per-window count exceeds the threshold. It models the stateful half of
// data-plane security programs (rate limiting, scan/flood suppression)
// that complements the learned match–action rules.
type RateGuard struct {
	Key       []FieldSpec
	Threshold uint64
	Window    time.Duration

	mu          sync.Mutex
	sketch      *CountMinSketch
	windowStart time.Duration
	flagged     uint64
}

// NewRateGuard builds a guard with a depth-4, width-1024 sketch.
func NewRateGuard(key []FieldSpec, threshold uint64, window time.Duration) (*RateGuard, error) {
	if threshold == 0 {
		return nil, fmt.Errorf("p4: zero rate threshold")
	}
	if window <= 0 {
		return nil, fmt.Errorf("p4: non-positive window")
	}
	sketch, err := NewCountMinSketch(4, 1024)
	if err != nil {
		return nil, err
	}
	return &RateGuard{Key: key, Threshold: threshold, Window: window, sketch: sketch}, nil
}

// Observe folds one packet (frame bytes + trace timestamp) into the guard
// and reports whether its key is over threshold in the current window.
func (g *RateGuard) Observe(frame []byte, at time.Duration) bool {
	key := ExtractKey(frame, g.Key)
	g.mu.Lock()
	defer g.mu.Unlock()
	if at-g.windowStart >= g.Window {
		g.sketch.Reset()
		g.windowStart = at
	}
	est := g.sketch.Update(key, 1)
	if est > g.Threshold {
		g.flagged++
		return true
	}
	return false
}

// Flagged returns the number of over-threshold observations.
func (g *RateGuard) Flagged() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.flagged
}
