package gnn

import (
	"math"
	"math/rand"
	"testing"
)

func TestMatMulBasics(t *testing.T) {
	a := NewMat(2, 3)
	copy(a.A, []float64{1, 2, 3, 4, 5, 6})
	b := NewMat(3, 2)
	copy(b.A, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.A[i] != v {
			t.Fatalf("matmul = %v, want %v", c.A, want)
		}
	}
}

func TestMatMulTransposes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMat(4, 3)
	b := NewMat(4, 5)
	for i := range a.A {
		a.A[i] = rng.NormFloat64()
	}
	for i := range b.A {
		b.A[i] = rng.NormFloat64()
	}
	// aᵀ b via explicit transpose.
	at := NewMat(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	want := MatMul(at, b)
	got := MatMulT1(a, b)
	for i := range want.A {
		if math.Abs(got.A[i]-want.A[i]) > 1e-12 {
			t.Fatal("MatMulT1 mismatch")
		}
	}
	// a bᵀ with compatible shapes.
	c := NewMat(2, 3)
	d := NewMat(4, 3)
	for i := range c.A {
		c.A[i] = rng.NormFloat64()
	}
	for i := range d.A {
		d.A[i] = rng.NormFloat64()
	}
	dt := NewMat(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			dt.Set(j, i, d.At(i, j))
		}
	}
	want2 := MatMul(c, dt)
	got2 := MatMulT2(c, d)
	for i := range want2.A {
		if math.Abs(got2.A[i]-want2.A[i]) > 1e-12 {
			t.Fatal("MatMulT2 mismatch")
		}
	}
}

func TestSoftmax(t *testing.T) {
	p := Softmax([]float64{1, 2, 3})
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sum = %g", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Errorf("softmax not monotone: %v", p)
	}
	// Large logits must not overflow.
	p = Softmax([]float64{1000, 1001})
	if math.IsNaN(p[0]) || math.IsNaN(p[1]) {
		t.Error("softmax overflow")
	}
}

func TestAdjNormalization(t *testing.T) {
	// Path graph 0-1-2.
	adj := NewAdj(3, [][2]int{{0, 1}, {1, 2}})
	x := NewMat(3, 1)
	x.Set(0, 0, 1)
	x.Set(1, 0, 1)
	x.Set(2, 0, 1)
	y := adj.Apply(x)
	// Row sums of Â for a path graph are < 1.5 and > 0.5; mostly just
	// check symmetry-ish behavior and mass conservation direction.
	for i := 0; i < 3; i++ {
		if y.At(i, 0) <= 0 {
			t.Errorf("node %d aggregated to %g", i, y.At(i, 0))
		}
	}
	if math.Abs(y.At(0, 0)-y.At(2, 0)) > 1e-12 {
		t.Error("symmetric endpoints should aggregate equally")
	}
}

// makeToyGraph builds a trivially classifiable graph: class 0 graphs have
// feature-0-heavy nodes, class 1 graphs feature-1-heavy nodes.
func makeToyGraph(rng *rand.Rand, class int) *Graph {
	n := 5 + rng.Intn(5)
	x := NewMat(n, 4)
	var edges [][2]int
	for i := 0; i < n; i++ {
		f := class
		if rng.Float64() < 0.2 {
			f = rng.Intn(2)
		}
		x.Set(i, f, 1)
		x.Set(i, 2+rng.Intn(2), 0.5)
		if i > 0 {
			edges = append(edges, [2]int{i - 1, i})
		}
	}
	return &Graph{X: x, Adj: NewAdj(n, edges), Label: class}
}

func TestGCNLearnsToyProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var train, test []*Graph
	for i := 0; i < 40; i++ {
		train = append(train, makeToyGraph(rng, i%2))
	}
	for i := 0; i < 20; i++ {
		test = append(test, makeToyGraph(rng, i%2))
	}
	model := Fit(train, 2, TrainConfig{Hidden: 8, MaxEpochs: 60, Seed: 5})
	if acc := Accuracy(model, test); acc < 0.9 {
		t.Errorf("toy accuracy = %.2f, want >= 0.9", acc)
	}
}

func TestGradientsNumerically(t *testing.T) {
	// Finite-difference check of backward() on a tiny model.
	rng := rand.New(rand.NewSource(7))
	g := makeToyGraph(rng, 1)
	model := NewGCN(4, 3, 2, rng)

	gs := model.newGrads()
	model.backward(g, gs)

	check := func(w *Mat, gw *Mat, name string) {
		for _, idx := range []int{0, len(w.A) / 2, len(w.A) - 1} {
			const eps = 1e-6
			orig := w.A[idx]
			w.A[idx] = orig + eps
			lossP := lossOf(model, g)
			w.A[idx] = orig - eps
			lossM := lossOf(model, g)
			w.A[idx] = orig
			numeric := (lossP - lossM) / (2 * eps)
			if math.Abs(numeric-gw.A[idx]) > 1e-4*(1+math.Abs(numeric)) {
				t.Errorf("%s[%d]: analytic %g vs numeric %g", name, idx, gw.A[idx], numeric)
			}
		}
	}
	check(model.W0, gs.w0, "W0")
	check(model.W1, gs.w1, "W1")
	check(model.W2, gs.w2, "W2")
}

func lossOf(m *GCN, g *Graph) float64 {
	p := m.Predict(g)
	return -math.Log(math.Max(p[g.Label], 1e-12))
}

func TestTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	model := NewGCN(4, 3, 5, rng)
	g := makeToyGraph(rng, 0)
	// Pad features to in-dim 4 (already 4). TopK sizes.
	top3 := model.TopK(g, 3)
	if len(top3) != 3 {
		t.Fatalf("top3 size = %d", len(top3))
	}
	p := model.Predict(g)
	if p[top3[0]] < p[top3[1]] || p[top3[1]] < p[top3[2]] {
		t.Error("topk not sorted by probability")
	}
	if len(model.TopK(g, 99)) != 5 {
		t.Error("topk should clamp to class count")
	}
}

func TestMetricsHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var graphs []*Graph
	for i := 0; i < 30; i++ {
		graphs = append(graphs, makeToyGraph(rng, i%2))
	}
	model := Fit(graphs, 2, TrainConfig{Hidden: 8, MaxEpochs: 40, Seed: 2})
	if r := RecallForClass(model, graphs, 1, 2); r != 1.0 {
		// top-2 of a 2-class model always contains every class
		t.Errorf("top-2 recall should be 1.0, got %g", r)
	}
	if a := TopKAccuracy(model, graphs, 2); a != 1.0 {
		t.Errorf("top-2 accuracy with 2 classes = %g", a)
	}
}
