package controller

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"p4guard/internal/switchsim"
	"p4guard/internal/telemetry"
)

// TestFullDeployAllocs gates what one full swap of 8 192 rows to two
// switches allocates end to end — controller, wire and both switches —
// once a first deploy has left its frame buffers behind: the 80-byte rows
// each table stores (5.94 MB in all; 7.3 when a table kept the 160-byte
// exchange struct), the index and the controller's own compile, and nothing
// per row. The cheapest of four deploys is taken, since a collection between
// two of them empties the frame pool.
func TestFullDeployAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c, _ := deployBenchFleet(t, Config{Name: "ctl-alloc"}, 2)
	base, _ := deltaBenchRules(8192, false)
	deploy := func() {
		if err := c.Deploy(context.Background(), base); err != nil {
			t.Fatal(err)
		}
	}
	deploy()
	allocs, bytes := ^uint64(0), ^uint64(0)
	for i := 0; i < 4; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		deploy()
		runtime.ReadMemStats(&after)
		allocs, bytes = min(allocs, after.Mallocs-before.Mallocs), min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if allocs > 150 || bytes > 6_200_000 {
		t.Fatalf("a full deploy of 8192 rows to two switches made %d allocations of %d bytes, want at most 150 and 6.2 MB", allocs, bytes)
	}
}

// TestDeployEncodesEachShardOnce: a Deploy encodes a shard's program when
// the first switch needs it as a full swap and frames those bytes for every
// other switch of the shard; shards nobody needs in full — every switch
// took the delta — are not encoded at all. The bytes are the call's: the
// desired state the supervisors replay from holds programs, no bodies.
func TestDeployEncodesEachShardOnce(t *testing.T) {
	base, churned := deltaBenchRules(600, false)
	for _, tc := range []struct {
		name     string
		cfg      Config
		switches int
		full     int // encodes of a full deploy
	}{
		{"one shard, five replicas", Config{Name: "ctl"}, 5, 1},
		{"two shards by class, three switches each", Config{Name: "ctl", Shards: 2, Policy: ShardByClass}, 6, 2},
	} {
		fr := telemetry.NewFlightRecorder(256)
		c, sws := deployBenchFleet(t, tc.cfg, tc.switches, WithFlightRecorder(fr))
		if err := c.Deploy(context.Background(), base); err != nil {
			t.Fatal(err)
		}
		if got := deployEncodes(fr); got != tc.full {
			t.Fatalf("%s: a full deploy encoded %d programs, want %d", tc.name, got, tc.full)
		}
		if err := c.Deploy(context.Background(), churned, WithDeltaOnly()); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.DeltaApplies != tc.switches || deployEncodes(fr) != tc.full {
			t.Fatalf("%s: the delta deploy made %d delta applies and %d more encodes, want %d and 0",
				tc.name, st.DeltaApplies, deployEncodes(fr)-tc.full, tc.switches)
		}

		c.mu.Lock()
		shards := c.desired.shards
		c.mu.Unlock()
		for i, p := range shards {
			if body := reflect.ValueOf(p).FieldByName("body"); !body.IsValid() || !body.IsNil() {
				t.Fatalf("%s: the desired state keeps shard %d's encoded body", tc.name, i)
			}
		}
		// Every switch holds its shard's program, however it got there.
		for i, sw := range sws {
			det, err := sw.Pipeline().Table(switchsim.DetectorTable)
			if err != nil {
				t.Fatal(err)
			}
			n, h := det.ProgramSignature()
			first, err := sws[i%len(shards)].Pipeline().Table(switchsim.DetectorTable)
			if err != nil {
				t.Fatal(err)
			}
			if fn, fh := first.ProgramSignature(); n != len(shards[i%len(shards)].Entries) || n != fn || h != fh {
				t.Fatalf("%s: switch %d holds (%d, %#x), the first of its shard (%d, %#x), the shard has %d rows",
					tc.name, i, n, h, fn, fh, len(shards[i%len(shards)].Entries))
			}
		}
	}
}
