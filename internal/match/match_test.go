package match

import (
	"math/rand"
	"testing"

	"p4guard/internal/packet"
	"p4guard/internal/rules"
)

// randomRuleSet builds a rule set of n rules over the offsets, with ~70%
// of offsets constrained per rule.
func randomRuleSet(rng *rand.Rand, offsets []int, n, classes int) *rules.RuleSet {
	rs := rules.NewRuleSet(offsets, 0)
	for i := 0; i < n; i++ {
		var preds []rules.BytePredicate
		for _, off := range offsets {
			if rng.Float64() < 0.7 {
				a, b := byte(rng.Intn(256)), byte(rng.Intn(256))
				if a > b {
					a, b = b, a
				}
				preds = append(preds, rules.BytePredicate{Offset: off, Lo: a, Hi: b})
			}
		}
		// Deliberately include priority ties (i/2) to exercise stable
		// ordering.
		rs.Add(rules.Rule{Priority: i / 2, Class: 1 + rng.Intn(classes), Preds: preds})
	}
	return rs
}

// TestCompiledAgreesWithScanOracle: the compiled matcher must agree with
// the legacy linear scan on random rule sets, including sets larger than
// one 64-bit word.
func TestCompiledAgreesWithScanOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	offsets := []int{0, 2, 5, 9}
	for _, n := range []int{0, 1, 5, 63, 64, 65, 130} {
		rs := randomRuleSet(rng, offsets, n, 3)
		m, err := Compile(rs)
		if err != nil {
			t.Fatal(err)
		}
		if m.NumRules() != n {
			t.Fatalf("n=%d: NumRules = %d", n, m.NumRules())
		}
		for trial := 0; trial < 2000; trial++ {
			body := make([]byte, 12)
			rng.Read(body)
			pkt := &packet.Packet{Bytes: body}
			wantC, wantM := rs.ClassifyDetail(pkt)
			gotC, gotM := m.Classify(pkt)
			if gotC != wantC || gotM != wantM {
				t.Fatalf("n=%d trial %d: compiled (%d,%v) != scan (%d,%v) on %v",
					n, trial, gotC, gotM, wantC, wantM, body)
			}
		}
	}
}

func TestCompiledDefaultClassOnEmptySet(t *testing.T) {
	rs := rules.NewRuleSet([]int{0, 1}, 7)
	m, err := Compile(rs)
	if err != nil {
		t.Fatal(err)
	}
	class, matched := m.Classify(&packet.Packet{Bytes: []byte{1, 2}})
	if class != 7 || matched {
		t.Fatalf("empty set: (%d,%v)", class, matched)
	}
	if m.DefaultClass() != 7 {
		t.Fatalf("DefaultClass = %d", m.DefaultClass())
	}
}

// A rule with no predicates matches everything; ties resolve to the
// earlier-added rule, exactly like the scan.
func TestCompiledWildcardAndTies(t *testing.T) {
	rs := rules.NewRuleSet([]int{3}, 0)
	rs.Add(rules.Rule{Priority: 5, Class: 1})
	rs.Add(rules.Rule{Priority: 5, Class: 2})
	m, err := Compile(rs)
	if err != nil {
		t.Fatal(err)
	}
	pkt := &packet.Packet{Bytes: []byte{0, 0, 0, 42}}
	wantC, _ := rs.ClassifyDetail(pkt)
	gotC, gotM := m.Classify(pkt)
	if !gotM || gotC != wantC || gotC != 1 {
		t.Fatalf("tie: got (%d,%v), scan %d", gotC, gotM, wantC)
	}
}

// Contradictory predicates on one offset yield a dead rule, matching the
// conjunction semantics of the scan.
func TestCompiledContradictoryPredicatesDead(t *testing.T) {
	rs := rules.NewRuleSet([]int{0}, 0)
	rs.Add(rules.Rule{Priority: 2, Class: 1, Preds: []rules.BytePredicate{
		{Offset: 0, Lo: 10, Hi: 20},
		{Offset: 0, Lo: 30, Hi: 40},
	}})
	rs.Add(rules.Rule{Priority: 1, Class: 2, Preds: []rules.BytePredicate{
		{Offset: 0, Lo: 0, Hi: 255},
	}})
	m, err := Compile(rs)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 256; v++ {
		pkt := &packet.Packet{Bytes: []byte{byte(v)}}
		wantC, wantM := rs.ClassifyDetail(pkt)
		gotC, gotM := m.Classify(pkt)
		if gotC != wantC || gotM != wantM {
			t.Fatalf("byte %d: compiled (%d,%v) != scan (%d,%v)", v, gotC, gotM, wantC, wantM)
		}
		if gotC == 1 {
			t.Fatalf("byte %d matched the dead rule", v)
		}
	}
}

func TestCompileRejectsOffsetOutsideLayout(t *testing.T) {
	rs := rules.NewRuleSet([]int{0}, 0)
	rs.Add(rules.Rule{Priority: 1, Class: 1, Preds: []rules.BytePredicate{{Offset: 9, Lo: 0, Hi: 1}}})
	if _, err := Compile(rs); err == nil {
		t.Fatal("compiled a predicate outside the key layout")
	}
}

// Packets shorter than the layout read as zero bytes, like ByteAt.
func TestCompiledShortPacketReadsZero(t *testing.T) {
	rs := rules.NewRuleSet([]int{0, 10}, 0)
	rs.Add(rules.Rule{Priority: 1, Class: 1, Preds: []rules.BytePredicate{{Offset: 10, Lo: 0, Hi: 0}}})
	m, err := Compile(rs)
	if err != nil {
		t.Fatal(err)
	}
	if class, matched := m.Classify(&packet.Packet{Bytes: []byte{1}}); !matched || class != 1 {
		t.Fatalf("short packet: (%d,%v)", class, matched)
	}
}

func TestKeyIndexFirstMatchWinsAndWidthChecks(t *testing.T) {
	rows := []RangeRow{
		{Lo: []byte{50, 0}, Hi: []byte{100, 255}},
		{Lo: []byte{0, 0}, Hi: []byte{255, 255}},
	}
	ix, err := CompileRanges(2, rows)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Rows() != 2 || ix.Width() != 2 {
		t.Fatalf("rows=%d width=%d", ix.Rows(), ix.Width())
	}
	if r, ok := ix.Find([]byte{60, 9}); !ok || r != 0 {
		t.Fatalf("overlap: row %d ok=%v, want 0", r, ok)
	}
	if r, ok := ix.Find([]byte{10, 9}); !ok || r != 1 {
		t.Fatalf("fallthrough: row %d ok=%v, want 1", r, ok)
	}
	if _, ok := ix.Find([]byte{10}); ok {
		t.Fatal("wrong-width key matched")
	}
	if _, err := CompileRanges(2, []RangeRow{{Lo: []byte{0}, Hi: []byte{1, 2}}}); err == nil {
		t.Fatal("row width mismatch accepted")
	}
}

func TestKeyIndexZeroWidth(t *testing.T) {
	ix, err := CompileRanges(0, []RangeRow{{Lo: nil, Hi: nil}})
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := ix.Find(nil); !ok || r != 0 {
		t.Fatalf("zero-width: row %d ok=%v", r, ok)
	}
}

// TestClassifyKeyWrongWidth: a key of the wrong width is a miss, not a
// partial match.
func TestClassifyKeyWrongWidth(t *testing.T) {
	rs := rules.NewRuleSet([]int{0, 2, 5}, 7)
	rs.Add(rules.Rule{Priority: 1, Class: 3})
	m, err := Compile(rs)
	if err != nil {
		t.Fatal(err)
	}
	if class, matched := m.ClassifyKey([]byte{1, 2, 3}); !matched || class != 3 {
		t.Fatalf("full key: (%d,%v)", class, matched)
	}
	if class, matched := m.ClassifyKey([]byte{1, 2}); matched || class != 7 {
		t.Fatalf("short key: (%d,%v), want the default class", class, matched)
	}
}

func BenchmarkKeyIndexFind(b *testing.B) {
	offsets := []int{0, 1, 2, 3, 4, 5}
	key := []byte{9, 80, 3, 200, 17, 64}
	ranges := randomRuleSet(rand.New(rand.NewSource(1)), offsets, 48, 2)
	// The same ranges under 8k reactive point rows, one of them on key.
	rng := rand.New(rand.NewSource(1))
	mixed := randomRuleSet(rng, offsets, 48, 2)
	for i := 0; i < 8192; i++ {
		k := make([]byte, len(offsets))
		rng.Read(k)
		if i == 0 {
			copy(k, key)
		}
		preds := make([]rules.BytePredicate, len(offsets))
		for j, off := range offsets {
			preds[j] = rules.BytePredicate{Offset: off, Lo: k[j], Hi: k[j]}
		}
		mixed.Add(rules.Rule{Priority: 1 << 20, Class: 1, Preds: preds})
	}
	for _, bc := range []struct {
		name string
		rs   *rules.RuleSet
		key  []byte
	}{
		{"ranges", ranges, key},
		{"points+ranges/point-hit", mixed, key},
		{"points+ranges/range-probe", mixed, []byte{9, 80, 3, 200, 17, 65}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m, err := Compile(bc.rs)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ClassifyKey(bc.key)
			}
		})
	}
}
