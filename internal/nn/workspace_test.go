package nn

import (
	"math"
	"math/rand"
	"testing"

	"p4guard/internal/tensor"
)

func TestWorkspaceTakeReuseAndNil(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Take(4, 5)
	if a.Rows != 4 || a.Cols != 5 || len(a.Data) != 20 {
		t.Fatalf("Take shape %dx%d len %d", a.Rows, a.Cols, len(a.Data))
	}
	ws.Reset()
	b := ws.Take(2, 3)
	if &b.Data[0] != &a.Data[0] {
		t.Fatal("Reset did not recycle the buffer")
	}
	if b.Rows != 2 || b.Cols != 3 || len(b.Data) != 6 {
		t.Fatalf("recycled shape %dx%d len %d", b.Rows, b.Cols, len(b.Data))
	}
	// A second Take in the same cycle must not alias the first.
	c := ws.Take(2, 3)
	if &c.Data[0] == &b.Data[0] {
		t.Fatal("live buffers alias")
	}
	var nilWS *Workspace
	d := nilWS.Take(3, 3)
	if d.Rows != 3 || d.Cols != 3 {
		t.Fatal("nil workspace Take failed")
	}
	nilWS.Reset() // must not panic
}

func TestWorkspaceBestFit(t *testing.T) {
	ws := NewWorkspace()
	big := ws.Take(10, 10)
	small := ws.Take(2, 2)
	ws.Reset()
	// A small request must pick the small recycled buffer, leaving the big
	// one for a big request.
	got := ws.Take(2, 2)
	if &got.Data[0] != &small.Data[0] {
		t.Fatal("best-fit picked the wrong buffer")
	}
	got = ws.Take(10, 10)
	if &got.Data[0] != &big.Data[0] {
		t.Fatal("large request did not reuse the large buffer")
	}
}

// TestDenseAliasRegression pins the lastIn aliasing fix: mutating the input
// batch between Forward and Backward must not change the weight gradient.
func TestDenseAliasRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ws := NewWorkspace()

	run := func(corrupt bool) *tensor.Matrix {
		d := NewDense(rand.New(rand.NewSource(22)), 3, 2)
		x := tensor.New(4, 3)
		x.Randomize(rng, 1)
		ws.Reset()
		out, err := d.Forward(ws, x, true)
		if err != nil {
			t.Fatal(err)
		}
		if corrupt {
			x.Fill(123)
		}
		grad := ws.Take(out.Rows, out.Cols)
		grad.Fill(0.5)
		if _, err := d.Backward(ws, grad); err != nil {
			t.Fatal(err)
		}
		return d.dW.Clone()
	}

	rng = rand.New(rand.NewSource(23))
	clean := run(false)
	rng = rand.New(rand.NewSource(23))
	corrupted := run(true)
	for i := range clean.Data {
		if clean.Data[i] != corrupted.Data[i] {
			t.Fatalf("dW element %d changed when the input batch was mutated after Forward: %v vs %v",
				i, clean.Data[i], corrupted.Data[i])
		}
	}
}

// TestTrainStepZeroAlloc is the ISSUE's zero-allocation gate: after warmup,
// a full forward/backward/update step must not touch the heap.
func TestTrainStepZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	net := NewMLP(rng, 32, []int{24, 16}, 4)
	opt := NewAdam(0.01)
	x := tensor.New(16, 32)
	x.Randomize(rng, 1)
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = i % 4
	}
	target, err := OneHot(labels, 4)
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if _, err := net.Step(x, target); err != nil {
			t.Fatal(err)
		}
		if err := opt.Update(net.Params(), net.Grads()); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up the workspace high-water mark and optimizer state.
	for i := 0; i < 3; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("training step allocates %v objects/op, want 0", allocs)
	}
}

// TestPredictChunkedMatchesWholeBatch pins chunked evaluation to one
// whole-batch forward pass, on a batch spanning several chunks and a
// ragged tail.
func TestPredictChunkedMatchesWholeBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	net := NewMLP(rng, 8, []int{6}, 3)
	x := tensor.New(3*predictChunk+17, 8)
	x.Randomize(rng, 1)

	got, err := net.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	out, err := net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if want := tensor.Argmax(out.Row(i)); got[i] != want {
			t.Fatalf("pred[%d] = %d, whole-batch %d", i, got[i], want)
		}
	}
}

// TestInferConcurrentMatchesForward drives concurrent inference with
// per-goroutine workspaces through one shared network.
func TestInferConcurrentMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	net := NewMLP(rng, 6, []int{5}, 3)
	x := tensor.New(12, 6)
	x.Randomize(rng, 1)
	want, err := net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	want = want.Clone()

	const goroutines = 6
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			ws := NewWorkspace()
			for iter := 0; iter < 25; iter++ {
				out, err := net.Infer(ws, x)
				if err != nil {
					done <- err
					return
				}
				for i := range want.Data {
					if out.Data[i] != want.Data[i] {
						done <- errInferMismatch
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errInferMismatch = &inferMismatchError{}

type inferMismatchError struct{}

func (*inferMismatchError) Error() string { return "concurrent Infer diverged from Forward" }

// TestInputGradientDetached pins that InputGradient results survive later
// passes on the same network (they are copied out of the workspace).
func TestInputGradientDetached(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	net := NewMLP(rng, 4, []int{4}, 2)
	x := tensor.New(2, 4)
	x.Randomize(rng, 1)
	target, _ := OneHot([]int{0, 1}, 2)

	gradIn, err := net.InputGradient(x, target)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := gradIn.Clone()
	// Churn the workspace with further passes.
	if _, err := net.Forward(x, false); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Step(x, target); err != nil {
		t.Fatal(err)
	}
	for i := range snapshot.Data {
		if gradIn.Data[i] != snapshot.Data[i] {
			t.Fatal("InputGradient buffer was clobbered by a later pass")
		}
	}
}

// TestTrainMatchesPrevWorkspaceRefactor sanity-checks that training still
// converges with reused batch buffers and workspace-backed layers.
func TestTrainLearnsWithReusedBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	net := NewMLP(rng, 2, []int{8}, 2)
	x := &tensor.Matrix{Rows: 4, Cols: 2, Data: []float64{0, 0, 0, 1, 1, 0, 1, 1}}
	target, _ := OneHot([]int{0, 1, 1, 0}, 2)
	// Odd batch size forces the partial-batch reslice path every epoch.
	loss, err := Train(net, NewAdam(0.05), x, target, TrainConfig{Epochs: 400, BatchSize: 3,
		Shuffle: rand.New(rand.NewSource(82))})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.1 {
		t.Fatalf("XOR with batch reuse: final loss %v too high", loss)
	}
	if math.IsNaN(loss) {
		t.Fatal("loss is NaN")
	}
}

// TestReleaseDropsArenaKeepsModel: a released network points at no buffer of
// its past passes — workspace, detached input gradient, any layer's cache —
// and is the same model: it goes on training bit for bit like a twin that
// was never released, every layer kind included.
func TestReleaseDropsArenaKeepsModel(t *testing.T) {
	build := func() *Network {
		rng := rand.New(rand.NewSource(91))
		return NewNetwork(SoftmaxCE{},
			NewDense(rng, 6, 8), &ReLU{}, NewDense(rng, 8, 4), &Sigmoid{}, NewDense(rng, 4, 3))
	}
	rng := rand.New(rand.NewSource(92))
	x := tensor.New(64, 6)
	x.Randomize(rng, 1)
	labels := make([]int, x.Rows)
	for i := range labels {
		labels[i] = rng.Intn(3)
	}
	target, _ := OneHot(labels, 3)

	net, twin := build(), build()
	steps := func(n *Network, opt *Adam) {
		for i := 0; i < 5; i++ {
			if _, err := n.Step(x, target); err != nil {
				t.Fatal(err)
			}
			if err := opt.Update(n.Params(), n.Grads()); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := n.InputGradient(x, target); err != nil {
			t.Fatal(err)
		}
	}
	opt, twinOpt := NewAdam(0.01), NewAdam(0.01)
	steps(net, opt)
	steps(twin, twinOpt)

	net.Release()
	if net.ws != nil || net.inGrad != nil {
		t.Fatal("a released network still holds its workspace or input gradient")
	}
	for i, l := range net.Layers {
		var cache *tensor.Matrix
		switch l := l.(type) {
		case *Dense:
			cache = l.lastIn
		case *ReLU:
			cache = l.mask
		case *Sigmoid:
			cache = l.lastOut
		default:
			t.Fatalf("layer %d (%T): the test does not know its cache", i, l)
		}
		if cache != nil {
			t.Fatalf("layer %d (%T) still holds its cache", i, l)
		}
	}
	one := x.RowView(0, 1)
	got, err := net.Predict(one)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := twin.Predict(one); got[0] != want[0] {
		t.Fatalf("released network predicts %d, its twin %d", got[0], want[0])
	}
	steps(net, opt)
	steps(twin, twinOpt)
	for i, p := range net.Params() {
		for j, v := range p.Data {
			if math.Float64bits(v) != math.Float64bits(twin.Params()[i].Data[j]) {
				t.Fatalf("parameter %d[%d]: %v after a release, %v without", i, j, v, twin.Params()[i].Data[j])
			}
		}
	}
}
