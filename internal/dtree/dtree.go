// Package dtree implements CART decision trees over raw header-byte
// features, teacher–student distillation from a neural classifier, and
// compilation of trees into match–action rule sets (stage 2 of the paper's
// pipeline: classifier → switch-installable rules).
package dtree

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
)

// Config controls tree induction.
type Config struct {
	// MaxDepth bounds the tree (and therefore rule-path length). <=0
	// means 8.
	MaxDepth int
	// MinSamplesLeaf is the minimum samples a leaf may hold. <=0 means 1.
	MinSamplesLeaf int
	// MinGain is the minimum Gini impurity decrease to accept a split.
	MinGain float64
}

func (c Config) withDefaults() Config {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 8
	}
	if c.MinSamplesLeaf <= 0 {
		c.MinSamplesLeaf = 1
	}
	return c
}

// Node is one tree node. Internal nodes route key[Feature] <= Threshold to
// Left, otherwise Right. Leaves carry the predicted class.
type Node struct {
	Leaf      bool
	Class     int
	Feature   int
	Threshold byte
	Left      *Node
	Right     *Node
}

// Tree is a trained CART classifier over fixed-width byte keys.
type Tree struct {
	Root        *Node
	NumFeatures int
	NumClasses  int
}

// Train fits a CART tree on byte-vector features and integer class labels.
func Train(xs [][]byte, ys []int, numClasses int, cfg Config) (*Tree, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("dtree: empty training set")
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("dtree: %d samples vs %d labels", len(xs), len(ys))
	}
	width := len(xs[0])
	for i, x := range xs {
		if len(x) != width {
			return nil, fmt.Errorf("dtree: sample %d width %d != %d", i, len(x), width)
		}
	}
	for i, y := range ys {
		if y < 0 || y >= numClasses {
			return nil, fmt.Errorf("dtree: label %d out of range [0,%d) at %d", y, numClasses, i)
		}
	}
	cfg = cfg.withDefaults()
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	b := &builder{xs: xs, ys: ys, classes: numClasses, cfg: cfg}
	root := b.build(idx, 0)
	return &Tree{Root: root, NumFeatures: width, NumClasses: numClasses}, nil
}

type builder struct {
	xs      [][]byte
	ys      []int
	classes int
	cfg     Config
}

// counts tallies labels for the index subset.
func (b *builder) counts(idx []int) []int {
	c := make([]int, b.classes)
	for _, i := range idx {
		c[b.ys[i]]++
	}
	return c
}

// gini computes Gini impurity from class counts.
func gini(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	imp := 1.0
	for _, c := range counts {
		p := float64(c) / float64(total)
		imp -= p * p
	}
	return imp
}

// majority returns the most frequent class (lowest index on ties).
func majority(counts []int) int {
	best := 0
	for i, c := range counts {
		if c > counts[best] {
			best = i
		}
	}
	return best
}

func pure(counts []int) bool {
	nonzero := 0
	for _, c := range counts {
		if c > 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

func (b *builder) build(idx []int, depth int) *Node {
	counts := b.counts(idx)
	if depth >= b.cfg.MaxDepth || pure(counts) || len(idx) < 2*b.cfg.MinSamplesLeaf {
		return &Node{Leaf: true, Class: majority(counts)}
	}
	feat, thr, gain := b.bestSplit(idx, counts)
	if feat < 0 || gain <= b.cfg.MinGain {
		return &Node{Leaf: true, Class: majority(counts)}
	}
	var left, right []int
	for _, i := range idx {
		if b.xs[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.cfg.MinSamplesLeaf || len(right) < b.cfg.MinSamplesLeaf {
		return &Node{Leaf: true, Class: majority(counts)}
	}
	return &Node{
		Feature:   feat,
		Threshold: thr,
		Left:      b.build(left, depth+1),
		Right:     b.build(right, depth+1),
	}
}

// bestSplit scans every feature's value histogram for the threshold with
// the largest Gini gain. Among near-tied candidates (within 2% relative
// gain) it prefers the TCAM-cheapest threshold: one whose two half-ranges
// expand into the fewest value/mask prefixes. Arbitrary cut points in
// high-entropy bytes (sequence numbers, checksums) otherwise balloon the
// compiled rule table without improving accuracy.
func (b *builder) bestSplit(idx []int, parentCounts []int) (feature int, threshold byte, gain float64) {
	// Pass 1: find the maximum achievable gain.
	var maxGain float64
	b.forEachSplit(idx, parentCounts, func(_ int, _ byte, g float64) {
		if g > maxGain {
			maxGain = g
		}
	})
	if maxGain <= 0 {
		return -1, 0, 0
	}
	// Pass 2: among candidates within 2% of the maximum, pick the
	// TCAM-cheapest threshold (highest gain breaks cost ties).
	feature = -1
	bestCost := 1 << 30
	b.forEachSplit(idx, parentCounts, func(f int, t byte, g float64) {
		if g < 0.98*maxGain {
			return
		}
		cost := thresholdPrefixCost(t)
		if feature < 0 || cost < bestCost || (cost == bestCost && g > gain) {
			feature = f
			threshold = t
			gain = g
			bestCost = cost
		}
	})
	return feature, threshold, gain
}

// forEachSplit enumerates every candidate (feature, threshold) with its
// Gini gain.
func (b *builder) forEachSplit(idx []int, parentCounts []int, visit func(feature int, threshold byte, gain float64)) {
	total := len(idx)
	parentImp := gini(parentCounts, total)
	width := len(b.xs[idx[0]])

	for f := 0; f < width; f++ {
		// hist[v][c] = count of samples with byte value v and class c.
		var present [256]bool
		hist := make(map[byte][]int, 32)
		for _, i := range idx {
			v := b.xs[i][f]
			h := hist[v]
			if h == nil {
				h = make([]int, b.classes)
				hist[v] = h
				present[v] = true
			}
			h[b.ys[i]]++
		}
		if len(hist) < 2 {
			continue
		}
		values := make([]int, 0, len(hist))
		for v := 0; v < 256; v++ {
			if present[v] {
				values = append(values, v)
			}
		}
		leftCounts := make([]int, b.classes)
		leftTotal := 0
		// Candidate thresholds are each distinct value except the last.
		for vi := 0; vi < len(values)-1; vi++ {
			h := hist[byte(values[vi])]
			for c, n := range h {
				leftCounts[c] += n
			}
			leftTotal += sum(h)
			rightTotal := total - leftTotal
			rightCounts := make([]int, b.classes)
			for c := range rightCounts {
				rightCounts[c] = parentCounts[c] - leftCounts[c]
			}
			g := parentImp -
				(float64(leftTotal)/float64(total))*gini(leftCounts, leftTotal) -
				(float64(rightTotal)/float64(total))*gini(rightCounts, rightTotal)
			visit(f, byte(values[vi]), g)
		}
	}
}

// thresholdPrefixCost counts the prefix patterns needed to express the two
// half-ranges [0,t] and [t+1,255]: the TCAM price of splitting at t.
func thresholdPrefixCost(t byte) int {
	return prefixCount(0, int(t)) + prefixCount(int(t)+1, 255)
}

// prefixCount returns the number of value/mask prefixes covering [lo,hi].
func prefixCount(lo, hi int) int {
	if lo > hi {
		return 0
	}
	n := 0
	for lo <= hi {
		size := 1
		for {
			next := size * 2
			if lo%next != 0 || lo+next-1 > hi {
				break
			}
			size = next
		}
		n++
		lo += size
	}
	return n
}

func sum(xs []int) int {
	var s int
	for _, x := range xs {
		s += x
	}
	return s
}

// Prune applies reduced-error pruning against (xs, ys): bottom-up, any
// subtree whose replacement by a majority leaf classifies the samples
// reaching it no worse is collapsed. Distillation uses it to strip splits
// on augmentation noise, which cost TCAM entries without accuracy.
func (t *Tree) Prune(xs [][]byte, ys []int) {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	t.Root = pruneNode(t.Root, xs, ys, idx, t.NumClasses)
}

func pruneNode(n *Node, xs [][]byte, ys []int, idx []int, classes int) *Node {
	if n == nil || n.Leaf {
		return n
	}
	var left, right []int
	for _, i := range idx {
		var v byte
		if n.Feature < len(xs[i]) {
			v = xs[i][n.Feature]
		}
		if v <= n.Threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	n.Left = pruneNode(n.Left, xs, ys, left, classes)
	n.Right = pruneNode(n.Right, xs, ys, right, classes)

	// Majority class over the samples reaching this node.
	counts := make([]int, classes)
	for _, i := range idx {
		counts[ys[i]]++
	}
	maj := majority(counts)

	// Accuracy of the subtree vs a collapsed majority leaf.
	subCorrect := 0
	for _, i := range idx {
		if predictFrom(n, xs[i]) == ys[i] {
			subCorrect++
		}
	}
	if counts[maj] >= subCorrect {
		return &Node{Leaf: true, Class: maj}
	}
	return n
}

func predictFrom(n *Node, key []byte) int {
	for !n.Leaf {
		var v byte
		if n.Feature < len(key) {
			v = key[n.Feature]
		}
		if v <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Class
}

// Predict returns the class for a key.
func (t *Tree) Predict(key []byte) int {
	n := t.Root
	for !n.Leaf {
		var v byte
		if n.Feature < len(key) {
			v = key[n.Feature]
		}
		if v <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Class
}

// Leaves returns the leaf count.
func (t *Tree) Leaves() int { return leaves(t.Root) }

func leaves(n *Node) int {
	if n == nil {
		return 0
	}
	if n.Leaf {
		return 1
	}
	return leaves(n.Left) + leaves(n.Right)
}

// FeaturesUsed returns the sorted distinct feature indices tested by any
// internal node.
func (t *Tree) FeaturesUsed() []int {
	seen := make(map[int]bool)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil || n.Leaf {
			return
		}
		seen[n.Feature] = true
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
	out := make([]int, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Ints(out)
	return out
}

// Save gob-encodes the tree.
func (t *Tree) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(t); err != nil {
		return fmt.Errorf("dtree: encode: %w", err)
	}
	return nil
}

// Load reads a tree saved by Save.
func Load(r io.Reader) (*Tree, error) {
	var t Tree
	if err := gob.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("dtree: decode: %w", err)
	}
	if t.Root == nil {
		return nil, fmt.Errorf("dtree: decoded tree has no root")
	}
	return &t, nil
}
