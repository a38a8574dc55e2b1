package p4

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

// TestSketchNeverUndercounts is the count-min invariant. Update returns
// the estimate after its addition, so adding nothing reads it.
func TestSketchNeverUndercounts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewCountMinSketch(4, 64)
		if err != nil {
			return false
		}
		truth := make(map[string]uint64)
		for i := 0; i < 500; i++ {
			key := []byte("key-" + strconv.Itoa(rng.Intn(40)))
			truth[string(key)]++
			s.Update(key, 1)
		}
		for k, want := range truth {
			if s.Update([]byte(k), 0) < want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSketchAccurateWhenSparse(t *testing.T) {
	s, err := NewCountMinSketch(4, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		key := []byte{byte(i)}
		for j := 0; j <= i; j++ {
			s.Update(key, 1)
		}
	}
	for i := 0; i < 10; i++ {
		if got := s.Update([]byte{byte(i)}, 0); got != uint64(i+1) {
			t.Fatalf("estimate(%d) = %d, want %d", i, got, i+1)
		}
	}
	s.Reset()
	if s.Update([]byte{1}, 0) != 0 {
		t.Fatal("Reset left counts")
	}
}

func TestSketchValidation(t *testing.T) {
	if _, err := NewCountMinSketch(0, 8); err == nil {
		t.Fatal("accepted depth 0")
	}
	if _, err := NewCountMinSketch(2, 0); err == nil {
		t.Fatal("accepted width 0")
	}
}

func TestRateGuardFlagsFloods(t *testing.T) {
	key := []FieldSpec{{Offset: 0, Width: 1}}
	g, err := NewRateGuard(key, 10, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Slow key: 5 packets/window, never flagged.
	for i := 0; i < 5; i++ {
		if g.Observe([]byte{1}, time.Duration(i)*100*time.Millisecond) {
			t.Fatal("slow key flagged")
		}
	}
	// Flood key: 50 packets in one window, flagged after the threshold.
	flagged := 0
	for i := 0; i < 50; i++ {
		if g.Observe([]byte{2}, time.Duration(i)*time.Millisecond) {
			flagged++
		}
	}
	if flagged != 40 {
		t.Fatalf("flagged %d of 50, want 40 (threshold 10)", flagged)
	}
	if g.Flagged() != 40 {
		t.Fatalf("Flagged() = %d", g.Flagged())
	}
}

func TestRateGuardWindowReset(t *testing.T) {
	key := []FieldSpec{{Offset: 0, Width: 1}}
	g, err := NewRateGuard(key, 3, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// 3 packets in window 1, then window rolls: counts must reset.
	for i := 0; i < 3; i++ {
		g.Observe([]byte{7}, time.Duration(i)*time.Millisecond)
	}
	if g.Observe([]byte{7}, 200*time.Millisecond) {
		t.Fatal("count survived window reset")
	}
}

func TestRateGuardValidation(t *testing.T) {
	key := []FieldSpec{{Offset: 0, Width: 1}}
	if _, err := NewRateGuard(key, 0, time.Second); err == nil {
		t.Fatal("accepted zero threshold")
	}
	if _, err := NewRateGuard(key, 1, 0); err == nil {
		t.Fatal("accepted zero window")
	}
}
