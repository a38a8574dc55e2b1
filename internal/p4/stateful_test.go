package p4

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

// TestRateGuardNeverUndercounts is the count-min invariant seen through
// the guard: within one window, every packet whose key's true count so
// far exceeds the threshold is flagged.
func TestRateGuardNeverUndercounts(t *testing.T) {
	key := []FieldSpec{{Offset: 0, Width: 8}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := NewRateGuard(key, 8, time.Hour)
		if err != nil {
			return false
		}
		truth := make(map[string]uint64)
		for i := 0; i < 500; i++ {
			frame := []byte("key-" + strconv.Itoa(rng.Intn(40)))
			truth[string(frame)]++
			if flagged := g.Observe(frame, 0); !flagged && truth[string(frame)] > g.Threshold {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestRateGuardAccurateWhenSparse: with few keys the sketch's estimates
// are exact, so key i is flagged exactly on its packets past the
// threshold, and a new window starts every key from zero.
func TestRateGuardAccurateWhenSparse(t *testing.T) {
	const threshold = 3
	g, err := NewRateGuard([]FieldSpec{{Offset: 0, Width: 1}}, threshold, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		for j := 1; j <= i+1; j++ {
			if got := g.Observe([]byte{byte(i)}, 0); got != (j > threshold) {
				t.Fatalf("key %d packet %d: flagged %v, want %v", i, j, got, j > threshold)
			}
		}
	}
	if g.Observe([]byte{9}, time.Second) {
		t.Fatal("count survived the window")
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
