package p4

import (
	"fmt"
	"sync"
	"time"
)

// The guard's count-min sketch: guardDepth hash rows of guardWidth
// counters. Estimates never undercount.
const (
	guardDepth = 4
	guardWidth = 1024
)

// fnvPrime is the 64-bit FNV-1a prime. rowBasis[r] is the FNV-1a state
// after row r's eight little-endian seed bytes, so hashing a key for a
// row starts from it.
const fnvPrime = 1099511628211

var rowBasis = func() (b [guardDepth]uint64) {
	for r := range b {
		h, seed := uint64(14695981039346656037), uint64(r)*0x9e3779b97f4a7c15+0x85ebca6b
		for i := 0; i < 8; i++ {
			h = (h ^ seed>>(8*i)&0xff) * fnvPrime
		}
		b[r] = h
	}
	return b
}()

// RateGuard is a stateful heavy-hitter stage: it counts packets per match
// key in a count-min sketch over sliding windows and reports keys whose
// per-window count exceeds the threshold. It models the stateful half of
// data-plane security programs (rate limiting, scan/flood suppression)
// that complements the learned match–action rules.
//
// Observe hashes the key straight from the frame and allocates nothing.
// It takes one mutex around the window check and the counter updates, so
// each packet's estimate is exact however many goroutines forward at once
// (per-row atomics would let two packets each read the other's lower row;
// TestRateGuardUnderParallelRun pins it).
type RateGuard struct {
	Key       []FieldSpec
	Threshold uint64
	Window    time.Duration

	mu          sync.Mutex
	counts      [guardDepth][guardWidth]uint64
	windowStart time.Duration
}

// NewRateGuard builds a guard with a depth-4, width-1024 sketch.
func NewRateGuard(key []FieldSpec, threshold uint64, window time.Duration) (*RateGuard, error) {
	if threshold == 0 {
		return nil, fmt.Errorf("p4: zero rate threshold")
	}
	if window <= 0 {
		return nil, fmt.Errorf("p4: non-positive window")
	}
	return &RateGuard{Key: key, Threshold: threshold, Window: window}, nil
}

// Observe folds one packet (frame bytes + trace timestamp) into the guard
// and reports whether its key is over threshold in the current window.
// Key bytes past the frame end read as zero, as ExtractKey pads them.
func (g *RateGuard) Observe(frame []byte, at time.Duration) bool {
	h := rowBasis
	for _, s := range g.Key {
		for off := s.Offset; off < s.Offset+s.Width; off++ {
			var b uint64
			if off >= 0 && off < len(frame) {
				b = uint64(frame[off])
			}
			for r := range h {
				h[r] = (h[r] ^ b) * fnvPrime
			}
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if at-g.windowStart >= g.Window {
		g.counts = [guardDepth][guardWidth]uint64{}
		g.windowStart = at
	}
	est := ^uint64(0)
	for r := range h {
		c := &g.counts[r][h[r]%guardWidth]
		*c++
		est = min(est, *c)
	}
	return est > g.Threshold
}
