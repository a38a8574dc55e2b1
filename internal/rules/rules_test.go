package rules

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"p4guard/internal/packet"
)

func TestActionForClass(t *testing.T) {
	if ActionForClass(0) != ActionAllow {
		t.Fatal("benign class should allow")
	}
	if ActionForClass(1) != ActionDrop || ActionForClass(7) != ActionDrop {
		t.Fatal("attack classes should drop")
	}
}

func TestActionString(t *testing.T) {
	for _, a := range []Action{ActionAllow, ActionDrop, ActionToController} {
		if a.String() == "" {
			t.Fatalf("empty name for %d", a)
		}
	}
	if Action(99).String() != "action(99)" {
		t.Fatal("unknown action formatting")
	}
}

func TestBytePredicate(t *testing.T) {
	p := BytePredicate{Offset: 2, Lo: 10, Hi: 20}
	pkt := &packet.Packet{Bytes: []byte{0, 0, 15}}
	if !p.Matches(pkt) {
		t.Fatal("15 should match [10,20]")
	}
	pkt.Bytes[2] = 21
	if p.Matches(pkt) {
		t.Fatal("21 should not match [10,20]")
	}
	// Out-of-range offset reads as 0.
	pShort := BytePredicate{Offset: 9, Lo: 0, Hi: 0}
	if !pShort.Matches(pkt) {
		t.Fatal("missing byte should read as 0")
	}
	if !(BytePredicate{Lo: 0, Hi: 255}).Trivial() {
		t.Fatal("full range should be trivial")
	}
}

// TestRangeToMasksExact is the core invariant: the expansion covers exactly
// [lo,hi] for every possible byte range.
func TestRangeToMasksExact(t *testing.T) {
	f := func(a, b byte) bool {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		vms := RangeToMasks(lo, hi)
		for v := 0; v < 256; v++ {
			inRange := byte(v) >= lo && byte(v) <= hi
			matched := false
			for _, vm := range vms {
				if byte(v)&vm.Mask == vm.Value {
					if matched {
						return false // overlap: a value covered twice
					}
					matched = true
				}
			}
			if matched != inRange {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeToMasksEdgeCases(t *testing.T) {
	if got := RangeToMasks(5, 4); got != nil {
		t.Fatalf("inverted range should be nil, got %v", got)
	}
	if got := RangeToMasks(0, 255); len(got) != 1 || got[0].Mask != 0 {
		t.Fatalf("full range should be single wildcard, got %v", got)
	}
	if got := RangeToMasks(7, 7); len(got) != 1 || got[0].Value != 7 || got[0].Mask != 0xff {
		t.Fatalf("singleton range: %v", got)
	}
	// Worst case [1,254] needs 14 prefixes.
	if got := RangeToMasks(1, 254); len(got) != 14 {
		t.Fatalf("[1,254] expanded to %d prefixes, want 14", len(got))
	}
}

func mkRuleSet() *RuleSet {
	rs := NewRuleSet([]int{0, 1, 2}, 0)
	rs.Add(Rule{Priority: 10, Class: 1, Preds: []BytePredicate{
		{Offset: 0, Lo: 100, Hi: 200},
		{Offset: 2, Lo: 0, Hi: 50},
	}})
	rs.Add(Rule{Priority: 20, Class: 2, Preds: []BytePredicate{
		{Offset: 1, Lo: 7, Hi: 7},
	}})
	return rs
}

func TestRuleSetClassifyPriority(t *testing.T) {
	rs := mkRuleSet()
	// Matches both rules; priority 20 must win.
	pkt := &packet.Packet{Bytes: []byte{150, 7, 10}}
	if got := rs.Classify(pkt); got != 2 {
		t.Fatalf("class = %d, want 2", got)
	}
	// Matches only the priority-10 rule.
	pkt = &packet.Packet{Bytes: []byte{150, 8, 10}}
	if got := rs.Classify(pkt); got != 1 {
		t.Fatalf("class = %d, want 1", got)
	}
	// Miss -> default.
	pkt = &packet.Packet{Bytes: []byte{0, 0, 255}}
	class, matched := rs.ClassifyDetail(pkt)
	if class != 0 || matched {
		t.Fatalf("miss: class=%d matched=%v", class, matched)
	}
}

// TestTernaryEquivalence is the headline property: compiled TCAM entries
// classify identically to the rule list, for random rule sets and packets.
func TestTernaryEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 40; iter++ {
		nOffsets := 1 + rng.Intn(4)
		offsets := rng.Perm(10)[:nOffsets]
		rs := NewRuleSet(offsets, rng.Intn(2))
		nRules := 1 + rng.Intn(6)
		for r := 0; r < nRules; r++ {
			var preds []BytePredicate
			for _, off := range offsets {
				if rng.Float64() < 0.6 {
					a, b := byte(rng.Intn(256)), byte(rng.Intn(256))
					if a > b {
						a, b = b, a
					}
					preds = append(preds, BytePredicate{Offset: off, Lo: a, Hi: b})
				}
			}
			rs.Add(Rule{Priority: rng.Intn(100), Class: rng.Intn(3), Preds: preds})
		}
		entries, err := rs.CompileTernary()
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 200; p++ {
			body := make([]byte, 10)
			rng.Read(body)
			pkt := &packet.Packet{Bytes: body}
			want := rs.Classify(pkt)
			got := ClassifyTernary(entries, rs.DefaultClass, rs.Offsets, pkt)
			if got != want {
				t.Fatalf("iter %d pkt %d: ternary %d vs rules %d", iter, p, got, want)
			}
		}
	}
}

// TestRangeEntriesEquivalence: evaluating the compiled range rows
// (priority order, first match wins) must agree with rule-set semantics —
// the invariant behind installing range entries in the switch.
func TestRangeEntriesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 30; iter++ {
		nOffsets := 1 + rng.Intn(4)
		offsets := rng.Perm(10)[:nOffsets]
		rs := NewRuleSet(offsets, 0)
		for r := 0; r < 1+rng.Intn(6); r++ {
			var preds []BytePredicate
			for _, off := range offsets {
				if rng.Float64() < 0.6 {
					a, b := byte(rng.Intn(256)), byte(rng.Intn(256))
					if a > b {
						a, b = b, a
					}
					preds = append(preds, BytePredicate{Offset: off, Lo: a, Hi: b})
				}
			}
			rs.Add(Rule{Priority: rng.Intn(100), Class: rng.Intn(3), Preds: preds})
		}
		entries, err := rs.RangeEntries()
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(rs.Rules) {
			t.Fatalf("%d entries for %d rules", len(entries), len(rs.Rules))
		}
		classify := func(key []byte) int {
			// Entries carry rule order (priority-descending); first match
			// wins, mirroring the range table.
			for _, e := range entries {
				hit := true
				for i := range key {
					if key[i] < e.Lo[i] || key[i] > e.Hi[i] {
						hit = false
						break
					}
				}
				if hit {
					return e.Class
				}
			}
			return rs.DefaultClass
		}
		for p := 0; p < 200; p++ {
			body := make([]byte, 10)
			rng.Read(body)
			pkt := &packet.Packet{Bytes: body}
			want := rs.Classify(pkt)
			got := classify(ExtractKey(pkt, offsets))
			if got != want {
				t.Fatalf("iter %d: range rows %d vs rules %d", iter, got, want)
			}
		}
	}
}

func TestRangeEntriesRejectsForeignOffset(t *testing.T) {
	rs := NewRuleSet([]int{0}, 0)
	rs.Add(Rule{Priority: 1, Class: 1, Preds: []BytePredicate{{Offset: 5, Lo: 1, Hi: 2}}})
	if _, err := rs.RangeEntries(); err == nil {
		t.Fatal("accepted predicate outside key layout")
	}
}

func TestCompileTernaryRejectsForeignOffset(t *testing.T) {
	rs := NewRuleSet([]int{0}, 0)
	rs.Add(Rule{Priority: 1, Class: 1, Preds: []BytePredicate{{Offset: 5, Lo: 1, Hi: 2}}})
	if _, err := rs.CompileTernary(); err == nil {
		t.Fatal("accepted predicate outside key layout")
	}
}

func TestCost(t *testing.T) {
	rs := NewRuleSet([]int{0, 1}, 0)
	rs.Add(Rule{Priority: 1, Class: 1, Preds: []BytePredicate{
		{Offset: 0, Lo: 1, Hi: 254}, // 14 prefixes
		{Offset: 1, Lo: 0, Hi: 127}, // 1 prefix
	}})
	cost, err := rs.Cost()
	if err != nil {
		t.Fatal(err)
	}
	if cost.Entries != 14 {
		t.Fatalf("entries = %d, want 14", cost.Entries)
	}
	if cost.KeyBytes != 2 || cost.Bits != 14*2*16 {
		t.Fatalf("cost = %+v", cost)
	}
}

func TestExtractKey(t *testing.T) {
	pkt := &packet.Packet{Bytes: []byte{9, 8, 7}}
	key := ExtractKey(pkt, []int{2, 0, 5})
	if key[0] != 7 || key[1] != 9 || key[2] != 0 {
		t.Fatalf("key = %v", key)
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{Priority: 3, Class: 1, Preds: []BytePredicate{{Offset: 1, Lo: 4, Hi: 5}, {Offset: 2, Lo: 0, Hi: 255}}}
	s := r.String()
	if s == "" || s == "prio=3 * -> class 1" {
		t.Fatalf("String = %q", s)
	}
	wild := Rule{Priority: 1, Class: 0}
	if wild.String() != "prio=1 * -> class 0" {
		t.Fatalf("wildcard String = %q", wild.String())
	}
}

func TestDescribeUsesLink(t *testing.T) {
	rs := NewRuleSet([]int{23, 47}, 0)
	rs.SetLink(packet.LinkEthernet)
	if rs.Link() != packet.LinkEthernet {
		t.Fatal("link not recorded")
	}
	if got := rs.Describe(); got != "ip.proto, tcp.flags" {
		t.Fatalf("Describe = %q", got)
	}
}

// TestAddOrderMatchesStableSort pins Add's insertion against the order it
// replaced: append every rule, then sort.SliceStable by descending
// priority. Each rule carries its arrival index as its class, so a tie
// placed out of arrival order fails.
func TestAddOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ties := make([]int, 2000) // heavy ties: 8 priority values
	for i := range ties {
		ties[i] = rng.Intn(8)
	}
	increasing := make([]int, 300) // dtree.CompileRuleSet numbers leaves upward
	for i := range increasing {
		increasing[i] = i + 1
	}
	var learnedThenReactive []int // 16 learned rows, then installs at one high priority
	for i := 0; i < 8192; i++ {
		if i < 16 {
			learnedThenReactive = append(learnedThenReactive, 16-i)
		} else {
			learnedThenReactive = append(learnedThenReactive, 1<<20)
		}
	}
	for _, c := range []struct {
		name  string
		prios []int
	}{{"ties", ties}, {"increasing", increasing}, {"learned-then-reactive", learnedThenReactive}, {"empty", nil}} {
		rs := NewRuleSet([]int{0}, 0)
		want := make([]Rule, 0, len(c.prios))
		for i, p := range c.prios {
			r := Rule{Priority: p, Class: i}
			rs.Add(r)
			want = append(want, r)
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].Priority > want[j].Priority })
		if len(rs.Rules) != len(want) {
			t.Fatalf("%s: %d rules, want %d", c.name, len(rs.Rules), len(want))
		}
		for i := range want {
			if rs.Rules[i].Priority != want[i].Priority || rs.Rules[i].Class != want[i].Class {
				t.Fatalf("%s: rule %d = prio %d arrival %d, stable sort has prio %d arrival %d",
					c.name, i, rs.Rules[i].Priority, rs.Rules[i].Class, want[i].Priority, want[i].Class)
			}
		}
	}
}

// BenchmarkRuleSetAdd builds a rule set one Add at a time in the shape a
// benchmark fleet's table has: 16 learned rows at descending priority,
// then the rest at one reactive priority.
func BenchmarkRuleSetAdd(b *testing.B) {
	b.Run("rows=8192", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			rs := NewRuleSet([]int{0}, 0)
			for i := 0; i < 8192; i++ {
				prio := 1 << 20
				if i < 16 {
					prio = 16 - i
				}
				rs.Add(Rule{Priority: prio, Class: i % 2, Preds: []BytePredicate{{Offset: 0, Lo: byte(i), Hi: byte(i)}}})
			}
		}
	})
}
