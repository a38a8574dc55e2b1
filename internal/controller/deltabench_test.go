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
				c := deployBenchFleet(b, arm.cfg)
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

// deployBenchFleet connects a controller to two fresh switches over
// loopback TCP, one per shard, all closed when the benchmark ends.
func deployBenchFleet(b *testing.B, cfg Config) *Controller {
	c := New(fleetModel{}, cfg, WithRPCTimeout(5*time.Second))
	b.Cleanup(func() { _ = c.Close() })
	for i := 0; i < 2; i++ {
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
	}
	return c
}

// BenchmarkFullDeploy measures one full swap end to end — plan, compile,
// frame, and both switches' read, decode, table swap and ack — over
// loopback TCP to two switches, each sent the whole rule set as perfbench
// does (default single-shard config). The recorded end-to-end numbers for
// this path are deploy_ms and deploy_alloc_mb of
// `bash perfbench/run.sh --workload cold`.
func BenchmarkFullDeploy(b *testing.B) {
	for _, rows := range []int{16, 8192} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			c := deployBenchFleet(b, Config{Name: "ctl-bench"})
			base, _ := deltaBenchRules(rows, false)
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
		})
	}
}
