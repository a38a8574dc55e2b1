package dtree

import (
	"bytes"
	"math/rand"
	"testing"

	"p4guard/internal/packet"
	"p4guard/internal/rules"
)

// synthData builds a dataset with a crisp 2-byte rule structure:
// class 1 iff x[0] > 100 && x[1] <= 50, else 0.
func synthData(rng *rand.Rand, n int) ([][]byte, []int) {
	xs := make([][]byte, n)
	ys := make([]int, n)
	for i := range xs {
		x := []byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
		xs[i] = x
		if x[0] > 100 && x[1] <= 50 {
			ys[i] = 1
		}
	}
	return xs, ys
}

func TestTrainLearnsRule(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs, ys := synthData(rng, 2000)
	tree, err := Train(xs, ys, 2, Config{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	testX, testY := synthData(rng, 500)
	correct := 0
	for i, x := range testX {
		if tree.Predict(x) == testY[i] {
			correct++
		}
	}
	if acc := float64(correct) / 500; acc < 0.98 {
		t.Fatalf("accuracy %.3f < 0.98", acc)
	}
	if d := depth(tree.Root); d > 4 {
		t.Fatalf("depth %d > 4", d)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, nil, 2, Config{}); err == nil {
		t.Fatal("accepted empty set")
	}
	if _, err := Train([][]byte{{1}}, []int{0, 1}, 2, Config{}); err == nil {
		t.Fatal("accepted mismatched lengths")
	}
	if _, err := Train([][]byte{{1}, {1, 2}}, []int{0, 0}, 2, Config{}); err == nil {
		t.Fatal("accepted ragged rows")
	}
	if _, err := Train([][]byte{{1}}, []int{5}, 2, Config{}); err == nil {
		t.Fatal("accepted out-of-range label")
	}
}

func TestPureLeafShortCircuit(t *testing.T) {
	xs := [][]byte{{1}, {2}, {3}}
	ys := []int{1, 1, 1}
	tree, err := Train(xs, ys, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Root.Leaf || tree.Root.Class != 1 {
		t.Fatalf("pure data should give a single leaf, got %+v", tree.Root)
	}
}

func TestMinSamplesLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs, ys := synthData(rng, 100)
	tree, err := Train(xs, ys, 2, Config{MaxDepth: 10, MinSamplesLeaf: 40})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Leaves() > 3 {
		t.Fatalf("MinSamplesLeaf=40 gave %d leaves", tree.Leaves())
	}
}

func TestFeaturesUsed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs, ys := synthData(rng, 2000)
	tree, err := Train(xs, ys, 2, Config{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	used := tree.FeaturesUsed()
	for _, f := range used {
		if f == 2 {
			t.Fatal("tree split on irrelevant feature 2")
		}
	}
	if len(used) != 2 {
		t.Fatalf("features used = %v, want {0,1}", used)
	}
}

func TestPredictShortKey(t *testing.T) {
	tree := &Tree{NumFeatures: 3, NumClasses: 2, Root: &Node{
		Feature: 2, Threshold: 10,
		Left:  &Node{Leaf: true, Class: 0},
		Right: &Node{Leaf: true, Class: 1},
	}}
	// Key shorter than feature index reads 0 -> left branch.
	if got := tree.Predict([]byte{5}); got != 0 {
		t.Fatalf("short key class %d", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs, ys := synthData(rng, 500)
	tree, err := Train(xs, ys, 2, Config{MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		x := []byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
		if tree.Predict(x) != loaded.Predict(x) {
			t.Fatal("loaded tree disagrees with original")
		}
	}
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("accepted garbage")
	}
}

func TestDistillFidelity(t *testing.T) {
	teacher := func(key []byte) int {
		if key[0]^key[1] > 128 { // non-axis-aligned-ish concept
			return 1
		}
		return 0
	}
	rng := rand.New(rand.NewSource(5))
	seeds := make([][]byte, 800)
	for i := range seeds {
		seeds[i] = []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
	}
	student, err := Distill(teacher, seeds, 2, DistillConfig{
		Tree:              Config{MaxDepth: 10},
		BoundaryPerSample: 4,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	probe := make([][]byte, 1000)
	for i := range probe {
		probe[i] = []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
	}
	if fid := Fidelity(student, teacher, probe); fid < 0.75 {
		t.Fatalf("fidelity %.3f < 0.75", fid)
	}
}

func TestPruneCollapsesNoiseSplits(t *testing.T) {
	// A tree with a useless split under a useful one.
	tree := &Tree{NumFeatures: 2, NumClasses: 2, Root: &Node{
		Feature: 0, Threshold: 100,
		Left: &Node{ // x0 <= 100: all class 0, but split on noise byte 1
			Feature: 1, Threshold: 50,
			Left:  &Node{Leaf: true, Class: 0},
			Right: &Node{Leaf: true, Class: 0},
		},
		Right: &Node{Leaf: true, Class: 1},
	}}
	var xs [][]byte
	var ys []int
	for i := 0; i < 100; i++ {
		x := []byte{byte(i * 2), byte(i)}
		y := 0
		if x[0] > 100 {
			y = 1
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	tree.Prune(xs, ys)
	if tree.Leaves() != 2 {
		t.Fatalf("pruned tree has %d leaves, want 2", tree.Leaves())
	}
	// Semantics on the data must be intact.
	for i, x := range xs {
		if tree.Predict(x) != ys[i] {
			t.Fatalf("pruning changed prediction for %v", x)
		}
	}
}

func TestPruneKeepsUsefulSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	xs, ys := synthData(rng, 1500)
	tree, err := Train(xs, ys, 2, Config{MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	before := 0
	for i, x := range xs {
		if tree.Predict(x) == ys[i] {
			before++
		}
	}
	tree.Prune(xs, ys)
	after := 0
	for i, x := range xs {
		if tree.Predict(x) == ys[i] {
			after++
		}
	}
	if after < before {
		t.Fatalf("pruning reduced training accuracy: %d -> %d", before, after)
	}
}

func TestDistillErrors(t *testing.T) {
	if _, err := Distill(func([]byte) int { return 0 }, nil, 2, DistillConfig{}); err == nil {
		t.Fatal("accepted empty seeds")
	}
}

func TestFidelityEmpty(t *testing.T) {
	if got := Fidelity(&Tree{Root: &Node{Leaf: true}}, func([]byte) int { return 0 }, nil); got != 0 {
		t.Fatalf("empty fidelity = %v", got)
	}
}

// TestCompileEquivalence is the stage-2 invariant: the compiled rule set
// classifies every packet exactly as the tree does.
func TestCompileEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for iter := 0; iter < 25; iter++ {
		nFeat := 1 + rng.Intn(4)
		n := 300 + rng.Intn(500)
		xs := make([][]byte, n)
		ys := make([]int, n)
		for i := range xs {
			x := make([]byte, nFeat)
			rng.Read(x)
			xs[i] = x
			// Random-ish structured labels over 3 classes.
			ys[i] = int(x[0]/100) % 3
			if nFeat > 1 && x[1] > 200 {
				ys[i] = 2
			}
		}
		tree, err := Train(xs, ys, 3, Config{MaxDepth: 6})
		if err != nil {
			t.Fatal(err)
		}
		offsets := rng.Perm(16)[:nFeat]
		rs, err := tree.CompileRuleSet(offsets, 0)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 300; p++ {
			body := make([]byte, 16)
			rng.Read(body)
			pkt := &packet.Packet{Bytes: body}
			key := rules.ExtractKey(pkt, offsets)
			want := tree.Predict(key)
			got := rs.Classify(pkt)
			if got != want {
				t.Fatalf("iter %d: rules %d vs tree %d (key %v)", iter, got, want, key)
			}
		}
		// Ternary compilation must agree as well (end-to-end invariant).
		entries, err := rs.CompileTernary()
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 100; p++ {
			body := make([]byte, 16)
			rng.Read(body)
			pkt := &packet.Packet{Bytes: body}
			want := tree.Predict(rules.ExtractKey(pkt, offsets))
			got := rules.ClassifyTernary(entries, rs.DefaultClass, offsets, pkt)
			if got != want {
				t.Fatalf("iter %d: ternary %d vs tree %d", iter, got, want)
			}
		}
	}
}

func TestCompileRejectsBadOffsets(t *testing.T) {
	tree := &Tree{NumFeatures: 2, NumClasses: 2, Root: &Node{Leaf: true, Class: 0}}
	if _, err := tree.CompileRuleSet([]int{1}, 0); err == nil {
		t.Fatal("accepted offsets/features mismatch")
	}
}

func TestCompileElidesDefaultLeaves(t *testing.T) {
	// Tree: x[0] <= 100 -> class 0 (default), else class 1.
	tree := &Tree{NumFeatures: 1, NumClasses: 2, Root: &Node{
		Feature: 0, Threshold: 100,
		Left:  &Node{Leaf: true, Class: 0},
		Right: &Node{Leaf: true, Class: 1},
	}}
	rs, err := tree.CompileRuleSet([]int{23}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rules) != 1 {
		t.Fatalf("%d rules, want 1 (default leaf elided)", len(rs.Rules))
	}
	if rs.Rules[0].Class != 1 {
		t.Fatalf("rule class %d", rs.Rules[0].Class)
	}
	p := rs.Rules[0].Preds[0]
	if p.Offset != 23 || p.Lo != 101 || p.Hi != 255 {
		t.Fatalf("predicate %+v", p)
	}
}

// depth returns the maximum root→leaf depth under n.
func depth(n *Node) int {
	if n == nil || n.Leaf {
		return 0
	}
	return 1 + max(depth(n.Left), depth(n.Right))
}
