package controller

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"p4guard/internal/rules"
	"p4guard/internal/switchsim"
	"p4guard/internal/telemetry"
)

// TestFullDeployAllocs gates what one full swap of 8 192 rows to two
// switches allocates end to end — controller, wire and both switches —
// once a first deploy has left its frame buffers behind: the rule set's
// packed rows, which the program's entries view, the 80-byte rows each
// table stores, the indexes with their 16-byte point-hash slots, each
// gathered from 12 bytes a row, and the controller's program — a
// controller without reactive installs builds no mirror — and nothing per
// row (3.25 MB in all; 4.37 while rows were compiled into entries and
// gathered as slice headers, 5.42 while it built a mirror and slots were
// 24 bytes, 5.94 while rows crossed the wire as JSON text, 7.3 when a
// table kept the 160-byte exchange struct). The cheapest of four deploys
// is taken, since a collection between two of them empties the frame pool.
func TestFullDeployAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c, _ := deployBenchFleet(t, Config{Name: "ctl-alloc"}, 2)
	base, _ := deltaBenchRules(8192, false)
	allocs, bytes := cheapestDeploy(t, c, base, base)
	t.Logf("%d allocations of %d bytes a deploy", allocs, bytes)
	if allocs > 140 || bytes > 3_415_000 {
		t.Fatalf("a full deploy of 8192 rows to two switches made %d allocations of %d bytes, want at most 140 and 3.415 MB", allocs, bytes)
	}
}

// TestDeltaDeployAllocs gates a delta deploy as perfbench's cold workload
// makes one: 8 192 rows, 1 % of them replaced, one shard on two switches.
// The controller compiles the rule set into packed rows and a program
// viewing them, and diffs it against the last; each switch applies the
// delta in place. Nothing compiles an index and nothing copies a row into
// a slice header (1.97 MB in all; 2.50 while rows were compiled into
// entries first). The deploys alternate between the two rule sets, so
// each is a delta of the same size; the cheapest of four is taken.
func TestDeltaDeployAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c, _ := deployBenchFleet(t, Config{Name: "ctl-alloc"}, 2)
	base, churned := deltaBenchRules(8192, false)
	allocs, bytes := cheapestDeploy(t, c, base, churned, WithDeltaOnly())
	if st := c.Stats(); st.DeltaApplies != 2*4 || st.DeltaFallbacks != 0 {
		t.Fatalf("4 delta deploys to 2 switches made %d delta applies and %d fallbacks", st.DeltaApplies, st.DeltaFallbacks)
	}
	t.Logf("%d allocations of %d bytes a deploy", allocs, bytes)
	if allocs > 195 || bytes > 2_070_000 {
		t.Fatalf("a delta deploy of 81 of 8192 rows to two switches made %d allocations of %d bytes, want at most 195 and 2.07 MB", allocs, bytes)
	}
}

// cheapestDeploy deploys first, then four times more, alternating second
// and first, and returns the fewest allocations and bytes one of the four
// made.
func cheapestDeploy(t *testing.T, c *Controller, first, second *rules.RuleSet, opts ...DeployOption) (allocs, bytes uint64) {
	t.Helper()
	sets := [2]*rules.RuleSet{first, second}
	if err := c.Deploy(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	allocs, bytes = ^uint64(0), ^uint64(0)
	for i := 1; i <= 4; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.Deploy(context.Background(), sets[i%2], opts...)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		allocs, bytes = min(allocs, after.Mallocs-before.Mallocs), min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return allocs, bytes
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
		c, sws := deployBenchFleet(t, tc.cfg, tc.switches, WithJournal(fr))
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
