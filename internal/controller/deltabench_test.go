package controller

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"p4guard/internal/p4rt"
	"p4guard/internal/packet"
	"p4guard/internal/rules"
	"p4guard/internal/switchsim"
	"p4guard/internal/telemetry"
)

// deltaBenchRules builds a rows-rule set over a six-byte key, point rows
// as reactive installs leave them with the class alternating so a
// two-shard by-class plan splits them evenly, and a successor with 1 % of
// the rows (at least one) replaced: the last ones (tail) or every
// hundredth (scattered).
func deltaBenchRules(rows int, scattered bool) (base, churned *rules.RuleSet) {
	rng := rand.New(rand.NewSource(int64(rows)))
	offs := []int{26, 27, 28, 29, 34, 35}
	point := func(i int) rules.Rule {
		r := rules.Rule{Priority: rows - i, Class: 1 + i%2, Preds: make([]rules.BytePredicate, len(offs))}
		for j, off := range offs {
			b := byte(rng.Intn(256))
			r.Preds[j] = rules.BytePredicate{Offset: off, Lo: b, Hi: b}
		}
		return r
	}
	base, churned = rules.NewRuleSet(offs, 0), rules.NewRuleSet(offs, 0)
	for i := 0; i < rows; i++ {
		base.Rules = append(base.Rules, point(i))
	}
	churned.Rules = append(churned.Rules, base.Rules...)
	churn := max(1, rows/100)
	for c := 0; c < churn; c++ {
		i := rows - 1 - c
		if scattered {
			i = c * rows / churn
		}
		churned.Rules[i] = point(i)
	}
	return base, churned
}

// BenchmarkDeltaDeploy measures one delta deploy end to end — plan,
// compile, diff, frame, and both switches' apply and ack — over loopback
// TCP to two switches, alternating between a rule set and its 1 % churned
// successor so every deploy is a delta of the same size. plan=default is
// the default config, one shard replicated to both switches: the deploy
// `bash perfbench/run.sh --workload cold` records as delta_ms and
// delta_alloc_mb. The churn= arms split the rules over two shards by
// class; the diff pairs rows through a hash table, so where the changed
// rows sit must not matter: scattered within 1.5x of tail.
func BenchmarkDeltaDeploy(b *testing.B) {
	for _, rows := range []int{16, 8192} {
		for _, arm := range []struct {
			name      string
			cfg       Config
			scattered bool
		}{
			{"plan=default", Config{Name: "ctl-bench"}, false},
			{"churn=tail", Config{Name: "ctl-bench", Shards: 2, Policy: ShardByClass}, false},
			{"churn=scattered", Config{Name: "ctl-bench", Shards: 2, Policy: ShardByClass}, true},
		} {
			b.Run(fmt.Sprintf("rows=%d/%s", rows, arm.name), func(b *testing.B) {
				c, _ := deployBenchFleet(b, arm.cfg, 2)
				sets := [2]*rules.RuleSet{}
				sets[0], sets[1] = deltaBenchRules(rows, arm.scattered)
				if err := c.Deploy(context.Background(), sets[0]); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.Deploy(context.Background(), sets[(i+1)%2], WithDeltaOnly()); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if st := c.Stats(); st.DeltaApplies != 2*b.N || st.DeltaFallbacks != 0 {
					b.Fatalf("%d deploys to 2 switches made %d delta applies and %d fallbacks", b.N, st.DeltaApplies, st.DeltaFallbacks)
				}
			})
		}
	}
}

// deployBenchFleet connects a controller to fresh switches over loopback
// TCP, switch i on shard i, all closed when the benchmark ends.
func deployBenchFleet(b testing.TB, cfg Config, switches int, opts ...Option) (*Controller, []*switchsim.Switch) {
	c := New(fleetModel{}, cfg, append(opts, WithRPCTimeout(5*time.Second))...)
	b.Cleanup(func() { _ = c.Close() })
	sws := make([]*switchsim.Switch, switches)
	for i := range sws {
		sw, err := switchsim.New(fmt.Sprintf("gw%d", i), packet.LinkEthernet)
		if err != nil {
			b.Fatal(err)
		}
		srv, err := p4rt.Serve("127.0.0.1:0", sw, time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = srv.Close() })
		if err := c.ConnectShard(context.Background(), srv.Addr(), i); err != nil {
			b.Fatal(err)
		}
		sws[i] = sw
	}
	return c, sws
}

// deployEncodes is the number of program bodies the deploys recorded in fr
// encoded, all told.
func deployEncodes(fr *telemetry.FlightRecorder) (n int) {
	for _, ev := range fr.Events() {
		if ev.Kind == "deploy" {
			n += ev.Fields["encodes"].(int)
		}
	}
	return n
}

// BenchmarkFullDeploy measures one full swap end to end — plan, compile,
// frame, and every switch's read, decode, table swap and ack — over
// loopback TCP to two switches, each sent the whole rule set as perfbench
// does (default single-shard config). The recorded end-to-end numbers for
// this path are deploy_ms and deploy_alloc_mb of
// `bash perfbench/run.sh --workload cold`. The switches=8 arm is one shard
// on eight replicas: the program is encoded once a deploy whatever the
// replicas, which is what encodes/op reads.
func BenchmarkFullDeploy(b *testing.B) {
	for _, arm := range []struct{ rows, switches int }{{16, 2}, {8192, 2}, {8192, 8}} {
		name := fmt.Sprintf("rows=%d", arm.rows)
		if arm.switches != 2 {
			name += fmt.Sprintf("/switches=%d", arm.switches)
		}
		b.Run(name, func(b *testing.B) {
			fr := telemetry.NewFlightRecorder((arm.switches+1)*(b.N+1) + arm.switches) // a deploy's events, and the connects'
			c, _ := deployBenchFleet(b, Config{Name: "ctl-bench"}, arm.switches, WithFlightRecorder(fr))
			base, _ := deltaBenchRules(arm.rows, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Deploy(context.Background(), base); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if st := c.Stats(); st.DeltaApplies != 0 {
				b.Fatalf("%d full deploys made %d delta applies", b.N, st.DeltaApplies)
			}
			b.ReportMetric(float64(deployEncodes(fr))/float64(b.N), "encodes/op")
		})
	}
}
