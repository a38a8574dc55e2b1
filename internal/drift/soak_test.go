package drift

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDriftSoakConcurrent hammers an armed monitor from concurrent
// observers while a scraper reads scores/profiles and a swapper re-arms
// with fresh baselines — the shape of a live controller under scrape
// load during a baseline rollout. Run under -race in CI. Asserts that
// per-armed-state shard observation counts only move forward and that
// every scraped snapshot is internally consistent (feature counts match
// the observation count).
func TestDriftSoakConcurrent(t *testing.T) {
	mkBase := func(seed int64) *Profile {
		b := NewBuilder([]int{0, 1}, 0)
		feedSeeded(b, seed, 500, 0)
		return b.Profile()
	}
	m := NewMonitor()
	m.OnCross(func(CrossEvent) {}) // hook plumbing under race
	if err := m.Arm(MonitorConfig{Baseline: mkBase(1), Shards: 2, ScoreEvery: 16, Window: 128}); err != nil {
		t.Fatal(err)
	}

	const observers = 4
	const perObserver = 2000
	var stop atomic.Bool
	var work sync.WaitGroup // bounded work: observers + swapper

	// Observers: seeded streams onto both shards.
	for g := 0; g < observers; g++ {
		work.Add(1)
		go func(g int) {
			defer work.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < perObserver; i++ {
				da := m.Armed()
				if da == nil {
					continue
				}
				da.Observe(g%2, []byte{byte(rng.Intn(64)), byte(rng.Intn(16))}, rng.Intn(3), float64(rng.Intn(100))/1024)
			}
		}(g)
	}

	// Scraper: every read must be internally consistent and counts must
	// be monotonic per armed state.
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		last := make(map[*Armed][]uint64)
		for !stop.Load() {
			da := m.Armed()
			if da == nil {
				continue
			}
			_ = da.FleetScore()
			_ = da.FleetDetail()
			prev := last[da]
			if prev == nil {
				prev = make([]uint64, da.Shards())
				last[da] = prev
			}
			for s := 0; s < da.Shards(); s++ {
				prof := da.ShardProfile(s)
				for i := range prof.Features {
					if prof.Features[i].Count != prof.Count {
						t.Errorf("torn snapshot: shard %d feature %d count %d != profile count %d",
							s, i, prof.Features[i].Count, prof.Count)
						return
					}
				}
				if prof.Count < prev[s] {
					t.Errorf("shard %d observations went backwards: %d -> %d", s, prev[s], prof.Count)
					return
				}
				prev[s] = prof.Count
			}
			fleet := da.FleetProfile()
			if fleet.Count < prev[0] {
				t.Errorf("fleet count %d below shard 0 count %d", fleet.Count, prev[0])
				return
			}
		}
	}()

	// Swapper: baseline rollouts mid-flight.
	work.Add(1)
	go func() {
		defer work.Done()
		for i := int64(2); i < 6; i++ {
			if err := m.Arm(MonitorConfig{Baseline: mkBase(i), Shards: 2, ScoreEvery: 16, Window: 128}); err != nil {
				t.Errorf("re-arm: %v", err)
				return
			}
		}
	}()

	work.Wait()
	stop.Store(true)
	<-scraperDone
}

// TestDriftSeededRunsByteIdentical replays the same seeded observation
// sequence through two fresh monitors and requires byte-identical fleet
// profiles — the reproducibility contract behind baseline diffing.
func TestDriftSeededRunsByteIdentical(t *testing.T) {
	base := NewBuilder([]int{0, 1}, 0)
	feedSeeded(base, 1, 500, 0)
	run := func() []byte {
		m := NewMonitor()
		if err := m.Arm(MonitorConfig{Baseline: base.Profile(), Shards: 2, ScoreEvery: 32}); err != nil {
			t.Fatal(err)
		}
		da := m.Armed()
		rng := rand.New(rand.NewSource(77))
		for i := 0; i < 3000; i++ {
			da.Observe(i%2, []byte{byte(rng.Intn(64)), byte(rng.Intn(16))}, rng.Intn(3), float64(rng.Intn(100))/1024)
		}
		var buf bytes.Buffer
		if err := WriteProfile(&buf, da.FleetProfile()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("seeded drift runs produced different fleet profiles")
	}
}
