// Package mlp implements the "simple MLP" classifier of the MARIOH paper
// from scratch: fully-connected layers with ReLU hidden activations, a
// sigmoid output for binary classification, binary cross-entropy loss, and
// the Adam optimizer. Training is deterministic for a fixed seed.
package mlp

import (
	"math"
	"math/rand"
)

// Net is a feed-forward binary classifier. Fields are exported so a trained
// network can be serialized with encoding/json and reloaded.
type Net struct {
	Sizes []int       // layer widths: input, hidden..., 1
	W     [][]float64 // W[l] is Sizes[l+1]×Sizes[l], row-major
	B     [][]float64 // B[l] has Sizes[l+1] entries
}

// New creates a network with the given input width and hidden layer widths;
// the output layer always has a single sigmoid unit. Weights use He
// initialization from the provided seed.
func New(inputDim int, hidden []int, seed int64) *Net {
	sizes := append([]int{inputDim}, hidden...)
	sizes = append(sizes, 1)
	n := &Net{Sizes: sizes}
	rng := rand.New(rand.NewSource(seed))
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		w := make([]float64, in*out)
		std := math.Sqrt(2 / float64(in))
		for i := range w {
			w[i] = rng.NormFloat64() * std
		}
		n.W = append(n.W, w)
		n.B = append(n.B, make([]float64, out))
	}
	return n
}

// Forward returns the sigmoid output probability for a single input vector:
// ForwardScratch over a fresh Scratch. Hot paths should call ForwardScratch,
// which reuses the activation buffers.
func (n *Net) Forward(x []float64) float64 {
	var s Scratch
	return n.ForwardScratch(x, &s)
}

// Scratch holds the reusable activation buffers of ForwardScratch. It must
// not be shared between goroutines. The zero value is ready to use.
type Scratch struct {
	a, b []float64
}

// ForwardScratch returns the sigmoid output probability for x with
// caller-owned activation buffers: in the steady state it performs zero heap
// allocations.
func (n *Net) ForwardScratch(x []float64, s *Scratch) float64 {
	a := x
	cur, next := &s.a, &s.b
	for l := 0; l < len(n.W); l++ {
		out := n.Sizes[l+1]
		if cap(*cur) < out {
			*cur = make([]float64, out)
		}
		z := (*cur)[:out]
		n.layerInto(z, l, a, l < len(n.W)-1)
		a = z
		cur, next = next, cur
	}
	return sigmoid(a[0])
}

// layerInto computes W[l]·a + B[l] into z (len n.Sizes[l+1]), applying ReLU
// (reluGate, branch-free) when relu is true. z must not alias a.
//
// It computes four neurons per pass over a, with a one-neuron tail for the
// rest, so four independent sums are in flight instead of one chain of
// dependent adds. Each neuron still sums its bias first, then its inputs in
// index order, each step written s += w*a, so every float operation, fused
// or not, is the one a neuron-at-a-time loop performs.
func (n *Net) layerInto(z []float64, l int, a []float64, relu bool) {
	in, out := n.Sizes[l], n.Sizes[l+1]
	w, b := n.W[l], n.B[l]
	a, z = a[:in], z[:out]
	o := 0
	for ; o+4 <= out; o += 4 {
		z[o], z[o+1], z[o+2], z[o+3] = dot4(w[o*in:(o+4)*in], a, b[o], b[o+1], b[o+2], b[o+3])
	}
	for ; o < out; o++ {
		r := w[o*in:][:len(a)]
		s := b[o]
		for i, x := range a {
			s += r[i] * x
		}
		z[o] = s
	}
	if relu {
		reluGate(z)
	}
}

// reluGate sets every negative entry of z to +0 and leaves the rest, −0
// and NaN included, bit for bit: exactly `if v < 0 { z[i] = 0 }`. It is
// branch-free: about half the units are negative, so a branch
// mispredicts on about half of them. The mask comes from one comparison
// (compiled to a conditional move), and max(v, 0) would not do, as it
// turns −0 into +0.
func reluGate(z []float64) {
	for i, v := range z {
		var m uint64
		if !(v < 0) {
			m = ^uint64(0)
		}
		z[i] = math.Float64frombits(math.Float64bits(v) & m)
	}
}

// reluGateGrad sets d[i] to +0 wherever a[i] <= 0, the gradient gate of
// a ReLU whose outputs are a, and leaves the other entries bit for bit:
// exactly `if a[i] <= 0 { d[i] = 0 }`, branch-free as reluGate is.
func reluGateGrad(d, a []float64) {
	a = a[:len(d)]
	for i, v := range a {
		var m uint64
		if !(v <= 0) {
			m = ^uint64(0)
		}
		d[i] = math.Float64frombits(math.Float64bits(d[i]) & m)
	}
}

// dot4 adds to s0, s1, s2 and s3 the dot products of a with the four
// consecutive rows of rows (len 4·len(a)), each in index order. It is a
// function of its own so that its loop keeps its pointers and index in
// registers: inside layerInto's block loop too many values are live, and
// the compiler spills the index to the stack on every input.
func dot4(rows, a []float64, s0, s1, s2, s3 float64) (float64, float64, float64, float64) {
	n := len(a)
	r0, r1, r2, r3 := rows[:n], rows[n:][:n], rows[2*n:][:n], rows[3*n:][:n]
	for i, x := range a {
		s0 += r0[i] * x
		s1 += r1[i] * x
		s2 += r2[i] * x
		s3 += r3[i] * x
	}
	return s0, s1, s2, s3
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// TrainOptions configure Train.
type TrainOptions struct {
	Epochs    int     // full passes over the data (default 60)
	BatchSize int     // minibatch size (default 32)
	LR        float64 // Adam step size (default 1e-3)
	L2        float64 // weight decay (default 1e-5)
	Seed      int64   // shuffling seed
	// Stop is polled before every epoch; returning true aborts training,
	// keeping the weights of the epochs completed so far. Used to thread
	// context cancellation down without importing context here.
	Stop func() bool
}

func (o *TrainOptions) defaults() {
	if o.Epochs <= 0 {
		o.Epochs = 60
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 32
	}
	if o.LR <= 0 {
		o.LR = 1e-3
	}
	if o.L2 < 0 {
		o.L2 = 0
	}
}

// Train fits the network on (X, y) with y ∈ {0,1}, minimizing binary
// cross-entropy with Adam. It returns the final mean training loss.
//
// Its working memory (each layer's activations and deltas, and one
// gradient set cleared per minibatch) is allocated once per call, so the
// allocations do not grow with the epochs or the samples.
func (n *Net) Train(X [][]float64, y []float64, opts TrainOptions) float64 {
	opts.defaults()
	if len(X) == 0 {
		return 0
	}
	if len(X) != len(y) {
		panic("mlp: X and y length mismatch")
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	ad := newAdam(n, opts.LR)
	bp := n.newBackprop()
	order := make([]int, len(X))
	for i := range order {
		order[i] = i
	}
	lastLoss := 0.0
	for ep := 0; ep < opts.Epochs; ep++ {
		if opts.Stop != nil && opts.Stop() {
			break
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		total := 0.0
		for start := 0; start < len(order); start += opts.BatchSize {
			end := start + opts.BatchSize
			if end > len(order) {
				end = len(order)
			}
			gw, gb := bp.gw, bp.gb
			for l := range gw {
				clear(gw[l])
				clear(gb[l])
			}
			for _, idx := range order[start:end] {
				total += n.backprop(X[idx], y[idx], bp)
			}
			inv := 1 / float64(end-start)
			for l := range gw {
				for i := range gw[l] {
					gw[l][i] = gw[l][i]*inv + opts.L2*n.W[l][i]
				}
				for i := range gb[l] {
					gb[l][i] *= inv
				}
			}
			ad.step(n, gw, gb)
		}
		lastLoss = total / float64(len(order))
	}
	return lastLoss
}

// backpropBuffers is Train's working memory: acts[l+1] is layer l's output
// (acts[0] is the sample), deltas[l] is the loss gradient at layer l's
// pre-activation, and gw, gb accumulate a minibatch's gradient.
type backpropBuffers struct {
	acts, deltas [][]float64
	gw, gb       [][]float64
}

func (n *Net) newBackprop() *backpropBuffers {
	bp := &backpropBuffers{acts: make([][]float64, len(n.W)+1)}
	for l := range n.W {
		bp.acts[l+1] = make([]float64, n.Sizes[l+1])
		bp.deltas = append(bp.deltas, make([]float64, n.Sizes[l+1]))
		bp.gw = append(bp.gw, make([]float64, len(n.W[l])))
		bp.gb = append(bp.gb, make([]float64, len(n.B[l])))
	}
	return bp
}

// backprop accumulates the gradient of BCE(Forward(x), y) into bp.gw and
// bp.gb and returns the sample loss. Each gradient entry gains one term
// per sample, and each delta sums its terms in neuron order, so the
// gradient is the same, bit for bit, as one computed a neuron at a time.
func (n *Net) backprop(x []float64, y float64, bp *backpropBuffers) float64 {
	L := len(n.W)
	acts := bp.acts
	acts[0] = x
	for l := 0; l < L; l++ {
		n.layerInto(acts[l+1], l, acts[l], l < L-1)
	}
	p := sigmoid(acts[L][0])
	const eps = 1e-12
	loss := -(y*math.Log(p+eps) + (1-y)*math.Log(1-p+eps))
	// δ for the output pre-activation of the sigmoid+BCE pair is (p − y).
	bp.deltas[L-1][0] = p - y
	for l := L - 1; l >= 0; l-- {
		delta := bp.deltas[l]
		addOuter(bp.gw[l], bp.gb[l], delta, acts[l][:n.Sizes[l]])
		if l == 0 {
			break
		}
		prev := bp.deltas[l-1]
		n.propagate(prev, l, delta)
		reluGateGrad(prev, acts[l]) // the previous hidden layer's ReLU
	}
	return loss
}

// addOuter adds delta ⊗ a to the gradient of one layer: gb[o] += delta[o],
// and row o of gw gains delta[o]*a[i] at each i. It takes four rows per
// pass over a (axpy4), with a one-row tail; every entry still gains one
// term per call, written g += d*a.
func addOuter(gw, gb, delta, a []float64) {
	for o, d := range delta {
		gb[o] += d
	}
	in := len(a)
	o := 0
	for ; o+4 <= len(delta); o += 4 {
		axpy4(gw[o*in:(o+4)*in], a, delta[o], delta[o+1], delta[o+2], delta[o+3])
	}
	for ; o < len(delta); o++ {
		d, r := delta[o], gw[o*in:][:in]
		for i, x := range a {
			r[i] += d * x
		}
	}
}

// axpy4 adds d0·a, d1·a, d2·a and d3·a to the four consecutive rows of
// rows (len 4·len(a)).
func axpy4(rows, a []float64, d0, d1, d2, d3 float64) {
	n := len(a)
	r0, r1, r2, r3 := rows[:n], rows[n:][:n], rows[2*n:][:n], rows[3*n:][:n]
	for i, x := range a {
		r0[i] += d0 * x
		r1[i] += d1 * x
		r2[i] += d2 * x
		r3[i] += d3 * x
	}
}

// propagate sets prev to W[l]ᵀ·delta, the gradient at layer l's input
// before the ReLU gate: prev[i] sums delta[o]*W[l][o][i] from zero, in
// ascending o. It takes four rows per pass over prev, with a one-row tail,
// and keeps that order, each step written p += d*w.
func (n *Net) propagate(prev []float64, l int, delta []float64) {
	in := n.Sizes[l]
	w := n.W[l]
	prev = prev[:in]
	clear(prev)
	o := 0
	for ; o+4 <= len(delta); o += 4 {
		d0, d1, d2, d3 := delta[o], delta[o+1], delta[o+2], delta[o+3]
		r0 := w[o*in:][:len(prev)]
		r1 := w[(o+1)*in:][:len(prev)]
		r2 := w[(o+2)*in:][:len(prev)]
		r3 := w[(o+3)*in:][:len(prev)]
		for i, p := range prev {
			p += d0 * r0[i]
			p += d1 * r1[i]
			p += d2 * r2[i]
			p += d3 * r3[i]
			prev[i] = p
		}
	}
	for ; o < len(delta); o++ {
		d := delta[o]
		r := w[o*in:][:len(prev)]
		for i := range prev {
			prev[i] += d * r[i]
		}
	}
}

// adam holds Adam optimizer state.
type adam struct {
	lr, b1, b2, eps float64
	t               int
	mw, vw, mb, vb  [][]float64
}

func newAdam(n *Net, lr float64) *adam {
	a := &adam{lr: lr, b1: 0.9, b2: 0.999, eps: 1e-8}
	for l := range n.W {
		a.mw = append(a.mw, make([]float64, len(n.W[l])))
		a.vw = append(a.vw, make([]float64, len(n.W[l])))
		a.mb = append(a.mb, make([]float64, len(n.B[l])))
		a.vb = append(a.vb, make([]float64, len(n.B[l])))
	}
	return a
}

func (a *adam) step(n *Net, gw, gb [][]float64) {
	a.t++
	c1 := 1 - math.Pow(a.b1, float64(a.t))
	c2 := 1 - math.Pow(a.b2, float64(a.t))
	upd := func(p, g, m, v []float64) {
		for i := range p {
			m[i] = a.b1*m[i] + (1-a.b1)*g[i]
			v[i] = a.b2*v[i] + (1-a.b2)*g[i]*g[i]
			p[i] -= a.lr * (m[i] / c1) / (math.Sqrt(v[i]/c2) + a.eps)
		}
	}
	for l := range n.W {
		upd(n.W[l], gw[l], a.mw[l], a.vw[l])
		upd(n.B[l], gb[l], a.mb[l], a.vb[l])
	}
}
