package controller

import (
	"fmt"

	"p4guard/internal/rules"
)

// ShardPolicy selects how a distilled rule set is partitioned across the
// gateway fleet before deployment. Every policy is deterministic: the same
// rule set and shard count always produce the same per-shard sets, so a
// restarted controller reconverges the fabric to byte-identical state.
type ShardPolicy int

const (
	// ShardReplicate gives every shard the full rule set. This is the
	// degenerate (and default) policy: every gateway enforces the whole
	// model, and a one-switch fleet behaves exactly like the pre-fleet
	// controller.
	ShardReplicate ShardPolicy = iota
	// ShardByClass partitions non-default rules by predicted class:
	// rule → shard ((class mod n) + n) mod n. Gateways in front of a
	// device-class/tenant partition carry only the verdicts for the
	// classes routed through them, shrinking per-switch TCAM pressure.
	// Default-class traffic still resolves via the shared miss action.
	ShardByClass
)

// String names the policy (flag-friendly).
func (p ShardPolicy) String() string {
	switch p {
	case ShardReplicate:
		return "replicate"
	case ShardByClass:
		return "by-class"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParseShardPolicy parses a policy name as rendered by String.
func ParseShardPolicy(s string) (ShardPolicy, error) {
	switch s {
	case "replicate", "":
		return ShardReplicate, nil
	case "by-class":
		return ShardByClass, nil
	default:
		return 0, fmt.Errorf("controller: unknown shard policy %q (want replicate or by-class)", s)
	}
}

// PlanShards partitions rs into n per-shard rule sets under policy. All
// shards share the full match-key layout (rs.Offsets) and default class,
// so slow-path key extraction and the miss action stay uniform across
// the fleet; only the entry lists differ. Offsets and predicates are
// copied, once for each shard a rule lands in: a shard's predicates lie
// in one array of its own, each rule's slice capped to its own
// predicates, so mutating or appending to a shard's rule never reaches
// the source set, another shard or a neighbouring rule. n <= 1 returns a
// single full copy regardless of policy.
func PlanShards(rs *rules.RuleSet, n int, policy ShardPolicy) []*rules.RuleSet {
	if n < 1 {
		n = 1
	}
	// span is the range of shards a rule lands in: its class's, or all.
	span := func(r *rules.Rule) (from, to int) {
		if n > 1 && policy == ShardByClass {
			t := ((r.Class % n) + n) % n
			return t, t + 1
		}
		return 0, n
	}
	nRules, nPreds := make([]int, n), make([]int, n)
	for i := range rs.Rules {
		for s, to := span(&rs.Rules[i]); s < to; s++ {
			nRules[s]++
			nPreds[s] += len(rs.Rules[i].Preds)
		}
	}
	shards := make([]*rules.RuleSet, n)
	preds := make([][]rules.BytePredicate, n)
	for s := range shards {
		shards[s] = rules.NewRuleSet(rs.Offsets, rs.DefaultClass)
		shards[s].SetLink(rs.Link())
		if nRules[s] > 0 {
			shards[s].Rules = make([]rules.Rule, 0, nRules[s])
			preds[s] = make([]rules.BytePredicate, 0, nPreds[s])
		}
	}
	for _, r := range rs.Rules {
		src := r.Preds
		for s, to := span(&r); s < to; s++ {
			r.Preds = nil
			if k := len(src); k > 0 {
				at := len(preds[s])
				preds[s] = append(preds[s], src...)
				r.Preds = preds[s][at : at+k : at+k]
			}
			shards[s].Rules = append(shards[s].Rules, r)
		}
	}
	return shards
}
