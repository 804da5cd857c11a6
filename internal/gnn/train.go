package gnn

import (
	"math"
	"math/rand"
)

// Adam is the optimizer the paper trains with (plus weight decay).
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	t int
	m map[*Mat]*Mat
	v map[*Mat]*Mat
	// bias moments
	mb, vb []float64
}

// NewAdam returns an optimizer with conventional defaults.
func NewAdam(lr, weightDecay float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		WeightDecay: weightDecay,
		m:           map[*Mat]*Mat{}, v: map[*Mat]*Mat{},
	}
}

func (a *Adam) stepMat(w, g *Mat) {
	if a.m[w] == nil {
		a.m[w] = NewMat(w.R, w.C)
		a.v[w] = NewMat(w.R, w.C)
	}
	m, v := a.m[w], a.v[w]
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i := range w.A {
		grad := g.A[i] + a.WeightDecay*w.A[i]
		m.A[i] = a.Beta1*m.A[i] + (1-a.Beta1)*grad
		v.A[i] = a.Beta2*v.A[i] + (1-a.Beta2)*grad*grad
		mh := m.A[i] / bc1
		vh := v.A[i] / bc2
		w.A[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
	}
}

// Step applies one update from accumulated gradients.
func (a *Adam) Step(model *GCN, gs *grads) {
	a.t++
	a.stepMat(model.W0, gs.w0)
	a.stepMat(model.W1, gs.w1)
	a.stepMat(model.W2, gs.w2)
	if a.mb == nil {
		a.mb = make([]float64, len(model.B))
		a.vb = make([]float64, len(model.B))
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i := range model.B {
		grad := gs.b[i]
		a.mb[i] = a.Beta1*a.mb[i] + (1-a.Beta1)*grad
		a.vb[i] = a.Beta2*a.vb[i] + (1-a.Beta2)*grad*grad
		model.B[i] -= a.LR * (a.mb[i] / bc1) / (math.Sqrt(a.vb[i]/bc2) + a.Eps)
	}
}

// TrainConfig tunes Fit; the zero value gets the paper-style defaults.
type TrainConfig struct {
	Hidden      int     // default 16
	LR          float64 // default 0.01
	WeightDecay float64 // default 5e-4
	MaxEpochs   int     // default 100
	Patience    int     // early stopping patience, default 10
	BatchSize   int     // default 32
	Seed        int64
	ValFraction float64 // held out from train for early stopping, default 0.15
}

func (c *TrainConfig) defaults() {
	if c.Hidden == 0 {
		c.Hidden = 16
	}
	if c.LR == 0 {
		c.LR = 0.01
	}
	if c.WeightDecay == 0 {
		c.WeightDecay = 5e-4
	}
	if c.MaxEpochs == 0 {
		c.MaxEpochs = 100
	}
	if c.Patience == 0 {
		c.Patience = 10
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.ValFraction == 0 {
		c.ValFraction = 0.15
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Fit trains a GCN on the graphs with mini-batch Adam and early stopping.
func Fit(graphs []*Graph, classes int, cfg TrainConfig) *GCN {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	if len(graphs) == 0 {
		return NewGCN(1, cfg.Hidden, classes, rng)
	}
	inDim := graphs[0].X.C
	model := NewGCN(inDim, cfg.Hidden, classes, rng)
	opt := NewAdam(cfg.LR, cfg.WeightDecay)

	// Split off a validation set for early stopping. Tiny training sets
	// (≲2 instances per class) cannot spare any: early-stop on train loss.
	idx := rng.Perm(len(graphs))
	nVal := int(float64(len(graphs)) * cfg.ValFraction)
	if nVal == 0 && len(graphs) > 4 {
		nVal = 1
	}
	if len(graphs) <= 3*classes {
		nVal = 0
	}
	val := make([]*Graph, 0, nVal)
	train := make([]*Graph, 0, len(graphs)-nVal)
	for i, g := range idx {
		if i < nVal {
			val = append(val, graphs[g])
		} else {
			train = append(train, graphs[g])
		}
	}
	if len(train) == 0 {
		train = graphs
		val = nil
	}

	bestVal := math.Inf(1)
	sinceBest := 0
	var best *GCN
	snapshot := func() *GCN {
		return &GCN{
			W0: model.W0.Clone(), W1: model.W1.Clone(), W2: model.W2.Clone(),
			B:     append([]float64{}, model.B...),
			InDim: model.InDim, Hidden: model.Hidden, Classes: model.Classes,
		}
	}

	for epoch := 0; epoch < cfg.MaxEpochs; epoch++ {
		perm := rng.Perm(len(train))
		for start := 0; start < len(perm); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(perm) {
				end = len(perm)
			}
			gs := model.newGrads()
			for _, gi := range perm[start:end] {
				model.backward(train[gi], gs)
			}
			scale := 1.0 / float64(end-start)
			for _, m := range []*Mat{gs.w0, gs.w1, gs.w2} {
				for i := range m.A {
					m.A[i] *= scale
				}
			}
			for i := range gs.b {
				gs.b[i] *= scale
			}
			opt.Step(model, gs)
		}
		// Early stopping on validation loss (train loss if no val set).
		eval := val
		if len(eval) == 0 {
			eval = train
		}
		loss := 0.0
		for _, g := range eval {
			p := model.Predict(g)
			loss += -math.Log(math.Max(p[g.Label], 1e-12))
		}
		loss /= float64(len(eval))
		if loss < bestVal-1e-4 {
			bestVal = loss
			sinceBest = 0
			best = snapshot()
		} else {
			sinceBest++
			if sinceBest >= cfg.Patience {
				break
			}
		}
	}
	if best != nil {
		return best
	}
	return model
}

// Accuracy computes top-1 accuracy on a set.
func Accuracy(model *GCN, graphs []*Graph) float64 {
	if len(graphs) == 0 {
		return 0
	}
	hits := 0
	for _, g := range graphs {
		if model.PredictClass(g) == g.Label {
			hits++
		}
	}
	return float64(hits) / float64(len(graphs))
}

// TopKAccuracy computes top-k accuracy on a set.
func TopKAccuracy(model *GCN, graphs []*Graph, k int) float64 {
	if len(graphs) == 0 {
		return 0
	}
	hits := 0
	for _, g := range graphs {
		for _, c := range model.TopK(g, k) {
			if c == g.Label {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(len(graphs))
}

// RecallForClass computes top-k recall of one class (the paper's FFT
// recall: of the true-FFT graphs, how many have FFT in their top-k).
func RecallForClass(model *GCN, graphs []*Graph, class, k int) float64 {
	total, hits := 0, 0
	for _, g := range graphs {
		if g.Label != class {
			continue
		}
		total++
		for _, c := range model.TopK(g, k) {
			if c == class {
				hits++
				break
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
