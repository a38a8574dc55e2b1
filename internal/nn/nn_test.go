package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"p4guard/internal/tensor"
)

// numericalGrad approximates dLoss/dTheta for parameter element (pi, j) via
// central differences.
func numericalGrad(t *testing.T, net *Network, x, target *tensor.Matrix, pi, j int) float64 {
	t.Helper()
	const h = 1e-5
	p := net.Params()[pi]
	orig := p.Data[j]

	lossAt := func(v float64) float64 {
		p.Data[j] = v
		out, err := net.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Loss.Value(nil, out, target)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	plus := lossAt(orig + h)
	minus := lossAt(orig - h)
	p.Data[j] = orig
	return (plus - minus) / (2 * h)
}

func TestDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewMLP(rng, 4, []int{5}, 3)
	x := tensor.New(6, 4)
	x.Randomize(rng, 1)
	labels := []int{0, 1, 2, 0, 1, 2}
	target, err := OneHot(labels, 3)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := net.Step(x, target); err != nil {
		t.Fatal(err)
	}
	grads := net.Grads()
	for pi, g := range grads {
		checks := 0
		for j := 0; j < len(g.Data) && checks < 8; j += 1 + len(g.Data)/8 {
			want := numericalGrad(t, net, x, target, pi, j)
			// Re-run step since numericalGrad perturbed forward caches.
			if _, err := net.Step(x, target); err != nil {
				t.Fatal(err)
			}
			got := net.Grads()[pi].Data[j]
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Errorf("param %d elem %d: analytic %v vs numeric %v", pi, j, got, want)
			}
			checks++
		}
	}
}

func TestMSEGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewNetwork(MSE{},
		NewDense(rng, 3, 4), &Sigmoid{},
		NewDense(rng, 4, 3), &Sigmoid{},
	)
	x := tensor.New(5, 3)
	x.Randomize(rng, 1)
	target := tensor.New(5, 3)
	target.Randomize(rng, 1)

	if _, err := net.Step(x, target); err != nil {
		t.Fatal(err)
	}
	for pi, g := range net.Grads() {
		for j := 0; j < len(g.Data); j += 1 + len(g.Data)/6 {
			want := numericalGrad(t, net, x, target, pi, j)
			if _, err := net.Step(x, target); err != nil {
				t.Fatal(err)
			}
			got := net.Grads()[pi].Data[j]
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Errorf("param %d elem %d: analytic %v vs numeric %v", pi, j, got, want)
			}
		}
	}
}

func TestInputGradientMatchesNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewMLP(rng, 3, []int{4}, 2)
	x := tensor.New(2, 3)
	x.Randomize(rng, 1)
	target, _ := OneHot([]int{0, 1}, 2)

	gradIn, err := net.InputGradient(x, target)
	if err != nil {
		t.Fatal(err)
	}
	const h = 1e-5
	for j := range x.Data {
		orig := x.Data[j]
		x.Data[j] = orig + h
		out, _ := net.Forward(x, false)
		plus, _ := net.Loss.Value(nil, out, target)
		x.Data[j] = orig - h
		out, _ = net.Forward(x, false)
		minus, _ := net.Loss.Value(nil, out, target)
		x.Data[j] = orig
		want := (plus - minus) / (2 * h)
		if math.Abs(gradIn.Data[j]-want) > 1e-4*(1+math.Abs(want)) {
			t.Errorf("input grad %d: analytic %v vs numeric %v", j, gradIn.Data[j], want)
		}
	}
}

// TestXORLearning is an end-to-end sanity check: the MLP must learn XOR.
func TestXORLearning(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := NewMLP(rng, 2, []int{8}, 2)
	x := &tensor.Matrix{Rows: 4, Cols: 2, Data: []float64{0, 0, 0, 1, 1, 0, 1, 1}}
	labels := []int{0, 1, 1, 0}
	target, _ := OneHot(labels, 2)

	loss, err := Train(net, NewAdam(0.05), x, target, TrainConfig{Epochs: 300})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.1 {
		t.Fatalf("XOR final loss %v too high", loss)
	}
	preds, err := net.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range labels {
		if preds[i] != want {
			t.Errorf("XOR pred[%d] = %d, want %d", i, preds[i], want)
		}
	}
}

func TestOneHotErrors(t *testing.T) {
	if _, err := OneHot([]int{0, 3}, 3); err == nil {
		t.Fatal("OneHot accepted out-of-range label")
	}
	if _, err := OneHot([]int{-1}, 3); err == nil {
		t.Fatal("OneHot accepted negative label")
	}
}

func TestTrainEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := NewMLP(rng, 2, nil, 2)
	x := &tensor.Matrix{Rows: 2, Cols: 2, Data: []float64{0, 0, 1, 1}}
	target, _ := OneHot([]int{0, 1}, 2)
	var epochs int
	_, err := Train(net, NewAdam(0.01), x, target, TrainConfig{
		Epochs: 100,
		OnEpoch: func(e int, _ float64) bool {
			epochs = e + 1
			return e < 4
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if epochs != 5 {
		t.Fatalf("early stop ran %d epochs, want 5", epochs)
	}
}

func TestTrainEmptySetError(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := NewMLP(rng, 2, nil, 2)
	if _, err := Train(net, NewAdam(0.01), tensor.New(0, 2), tensor.New(0, 2), TrainConfig{}); err == nil {
		t.Fatal("Train accepted empty set")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	net := NewNetwork(SoftmaxCE{},
		NewDense(rng, 4, 6), &ReLU{},
		NewDense(rng, 6, 3), &Sigmoid{},
	)
	var buf bytes.Buffer
	if err := Save(&buf, net); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(5, 4)
	x.Randomize(rng, 1)
	want, err := net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(want.Data[i]-got.Data[i]) > 1e-12 {
			t.Fatalf("output mismatch at %d: %v vs %v", i, want.Data[i], got.Data[i])
		}
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not gob"))); err == nil {
		t.Fatal("Load accepted garbage")
	}
}

// TestLoadRefusesRetiredKinds: layer kinds 4 and 5 named layers since
// removed. A snapshot naming either must fail Load with an error that
// names the kind.
func TestLoadRefusesRetiredKinds(t *testing.T) {
	for _, kind := range []layerKind{4, 5} {
		snap := netSnap{Loss: lossSoftmaxCE, Layers: []layerSnap{
			{Kind: kindDense, In: 2, Out: 2, W: make([]float64, 4), B: make([]float64, 2)},
			{Kind: kind, Rate: 0.5},
		}}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatal(err)
		}
		net, err := Load(&buf)
		if err == nil {
			t.Fatalf("kind %d loaded as %T", kind, net.Layers[1])
		}
		if want := fmt.Sprintf("layer 1: unknown kind %d", kind); !strings.Contains(err.Error(), want) {
			t.Fatalf("kind %d: Load error %q does not say %q", kind, err, want)
		}
	}
}

// TestLoadRefusesMalformedDense: a dense layer with a dimension below 1,
// one whose In*Out wraps to the length of its weights, and two dense
// layers that do not chain each fail Load with an error naming the layer,
// instead of a panic inside Load or a shape error at the first Predict.
func TestLoadRefusesMalformedDense(t *testing.T) {
	dense := func(in, out, w int) layerSnap {
		return layerSnap{Kind: kindDense, In: in, Out: out, W: make([]float64, w), B: make([]float64, max(out, 0))}
	}
	for name, tc := range map[string]struct {
		layers []layerSnap
		want   string
	}{
		"negative":     {[]layerSnap{dense(-5, 0, 0)}, "layer 0: corrupt dense -5x0"},
		"wrapping":     {[]layerSnap{dense(1<<62, 4, 0)}, "layer 0: corrupt dense 4611686018427387904x4"},
		"not chaining": {[]layerSnap{dense(2, 3, 6), {Kind: kindReLU}, dense(5, 2, 10)}, "layer 2: dense takes 5 inputs, the layer before gives 3"},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(netSnap{Loss: lossSoftmaxCE, Layers: tc.layers}); err != nil {
			t.Fatal(err)
		}
		net, err := Load(&buf)
		if err == nil {
			t.Fatalf("%s: loaded %d layers", name, len(net.Layers))
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Load error %q does not say %q", name, err, tc.want)
		}
	}
}

// fullPass is the pass Step and InputGradient are cut from: forward, the
// loss, then both backward halves of every layer. It leaves dL/dParams in
// Grads and returns the loss and dL/dInput.
func fullPass(t *testing.T, net *Network, x, target *tensor.Matrix) (float64, *tensor.Matrix) {
	t.Helper()
	out, err := net.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	loss, err := net.Loss.Value(nil, out, target)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := net.Loss.Grad(nil, out, target)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(net.Layers) - 1; i >= 0; i-- {
		if err := net.Layers[i].ParamGrads(cur); err != nil {
			t.Fatal(err)
		}
		if cur, err = net.Layers[i].Backward(nil, cur); err != nil {
			t.Fatal(err)
		}
	}
	return loss, cur
}

// TestShortPassesMatchFullPass: a training step computes no input
// gradient of the first layer and an attribution pass no parameter
// gradient, and neither is allowed to show. Two equal networks take the
// same Adam steps, one through Step and one through the full pass: loss
// and every parameter stay bit-equal. Then InputGradient returns the full
// pass's dL/dInput bit for bit and leaves the parameter gradients of the
// last step where they were.
func TestShortPassesMatchFullPass(t *testing.T) {
	build := func() *Network {
		rng := rand.New(rand.NewSource(97))
		return NewNetwork(SoftmaxCE{},
			NewDense(rng, 6, 8), &ReLU{}, NewDense(rng, 8, 5), &Sigmoid{}, NewDense(rng, 5, 4), &Sigmoid{}, NewDense(rng, 4, 3))
	}
	short, full := build(), build()
	shortOpt, fullOpt := NewAdam(0.01), NewAdam(0.01)
	rng := rand.New(rand.NewSource(98))
	x := tensor.New(16, 6)
	labels := make([]int, x.Rows)
	equal := func(what string, got, want []*tensor.Matrix) {
		t.Helper()
		for p := range want {
			for j, w := range want[p].Data {
				if math.Float64bits(got[p].Data[j]) != math.Float64bits(w) {
					t.Fatalf("%s %d[%d]: %v, full pass %v", what, p, j, got[p].Data[j], w)
				}
			}
		}
	}
	for step := 0; step < 25; step++ {
		x.Randomize(rng, 1)
		for i := range labels {
			labels[i] = rng.Intn(3)
		}
		target, _ := OneHot(labels, 3)
		got, err := short.Step(x, target)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := fullPass(t, full, x, target)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: loss %v, full pass %v", step, got, want)
		}
		equal("gradient", short.Grads(), full.Grads())
		if err := shortOpt.Update(short.Params(), short.Grads()); err != nil {
			t.Fatal(err)
		}
		if err := fullOpt.Update(full.Params(), full.Grads()); err != nil {
			t.Fatal(err)
		}
		equal("parameter", short.Params(), full.Params())
	}

	target, _ := OneHot(labels, 3)
	var before []*tensor.Matrix
	for _, g := range short.Grads() {
		before = append(before, g.Clone())
	}
	got, err := short.InputGradient(x, target)
	if err != nil {
		t.Fatal(err)
	}
	_, want := fullPass(t, full, x, target)
	equal("input gradient", []*tensor.Matrix{got}, []*tensor.Matrix{want})
	equal("gradient after attribution", short.Grads(), before)
}
