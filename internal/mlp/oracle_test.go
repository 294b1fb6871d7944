package mlp

import (
	"math"
	"math/rand"
	"testing"
)

// The oracle: the one-neuron-at-a-time forward layer and the allocating
// backprop and Train that the blocked kernels replaced, copied verbatim
// (as functions of n rather than methods). The kernels must match them bit
// for bit: same float operations, in the same order.

func oracleLayer(n *Net, l int, a []float64, relu bool) []float64 {
	z := make([]float64, n.Sizes[l+1])
	in, out := n.Sizes[l], n.Sizes[l+1]
	w := n.W[l]
	for o := 0; o < out; o++ {
		s := n.B[l][o]
		row := w[o*in : (o+1)*in]
		for i, v := range row {
			s += v * a[i]
		}
		z[o] = s
	}
	if relu {
		for i, v := range z {
			if v < 0 {
				z[i] = 0
			}
		}
	}
	return z
}

func oracleForward(n *Net, x []float64) float64 {
	a := x
	for l := 0; l < len(n.W); l++ {
		a = oracleLayer(n, l, a, l < len(n.W)-1)
	}
	return sigmoid(a[0])
}

func oracleTrain(n *Net, X [][]float64, y []float64, opts TrainOptions) float64 {
	opts.defaults()
	if len(X) == 0 {
		return 0
	}
	if len(X) != len(y) {
		panic("mlp: X and y length mismatch")
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	ad := newAdam(n, opts.LR)
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
			gw, gb := oracleZeroGrads(n)
			for _, idx := range order[start:end] {
				total += oracleBackprop(n, X[idx], y[idx], gw, gb)
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

func oracleZeroGrads(n *Net) (gw, gb [][]float64) {
	for l := range n.W {
		gw = append(gw, make([]float64, len(n.W[l])))
		gb = append(gb, make([]float64, len(n.B[l])))
	}
	return gw, gb
}

func oracleBackprop(n *Net, x []float64, y float64, gw, gb [][]float64) float64 {
	L := len(n.W)
	acts := make([][]float64, L+1) // acts[0] = x, acts[l] = post-activation
	acts[0] = x
	for l := 0; l < L; l++ {
		acts[l+1] = oracleLayer(n, l, acts[l], l < L-1)
	}
	p := sigmoid(acts[L][0])
	const eps = 1e-12
	loss := -(y*math.Log(p+eps) + (1-y)*math.Log(1-p+eps))
	// δ for the output pre-activation of the sigmoid+BCE pair is (p − y).
	delta := []float64{p - y}
	for l := L - 1; l >= 0; l-- {
		in := n.Sizes[l]
		a := acts[l]
		w := n.W[l]
		for o, d := range delta {
			gb[l][o] += d
			row := gw[l][o*in : (o+1)*in]
			for i := range row {
				row[i] += d * a[i]
			}
		}
		if l == 0 {
			break
		}
		prev := make([]float64, in)
		for o, d := range delta {
			row := w[o*in : (o+1)*in]
			for i := range row {
				prev[i] += d * row[i]
			}
		}
		// ReLU gate of the previous hidden layer.
		for i := range prev {
			if acts[l][i] <= 0 {
				prev[i] = 0
			}
		}
		delta = prev
	}
	return loss
}

// oracleShapes are the hidden-layer shapes the kernels are checked over:
// no hidden layer, widths below, at and above the four-neuron block, a
// tail after blocks, and the default 32-16.
var oracleShapes = [][]int{{}, {1}, {5}, {8}, {7, 5, 3}, {32, 16}}

func normals(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// sameBits reports whether a and b hold bit-identical floats.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestLayerMatchesOracle: every layer's output, and the forward pass
// through a reused Scratch and through Forward, are bit-equal to the
// one-neuron kernel's over every shape and input widths 1–23.
func TestLayerMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for si, hidden := range oracleShapes {
		for in := 1; in <= 23; in++ {
			n := New(in, hidden, int64(100*si+in))
			for _, b := range n.B { // nonzero biases, so the bias-first order shows
				copy(b, normals(rng, len(b)))
			}
			var s Scratch
			for trial := 0; trial < 8; trial++ {
				x := normals(rng, in)
				a := x
				for l := range n.W {
					relu := l < len(n.W)-1
					want := oracleLayer(n, l, a, relu)
					got := make([]float64, n.Sizes[l+1])
					n.layerInto(got, l, a, relu)
					if !sameBits(got, want) {
						t.Fatalf("hidden %v, in %d, layer %d: %v, want %v", hidden, in, l, got, want)
					}
					a = want
				}
				want := oracleForward(n, x)
				if got := n.ForwardScratch(x, &s); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("hidden %v, in %d: ForwardScratch %v, want %v", hidden, in, got, want)
				}
				if got := n.Forward(x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("hidden %v, in %d: Forward %v, want %v", hidden, in, got, want)
				}
			}
		}
	}
}

// TestTrainMatchesOracle: Train leaves weights, biases and loss bit-equal
// to the allocating one-neuron Train's, over every shape and batch sizes 1,
// 3 and 32, with a sample count no batch size above 1 divides.
func TestTrainMatchesOracle(t *testing.T) {
	const samples, in = 101, 7
	rng := rand.New(rand.NewSource(23))
	X := make([][]float64, samples)
	y := make([]float64, samples)
	for i := range X {
		X[i] = normals(rng, in)
		if X[i][0]+X[i][1]*X[i][2] > 0 {
			y[i] = 1
		}
	}
	for si, hidden := range oracleShapes {
		for _, batch := range []int{1, 3, 32} {
			opts := TrainOptions{Epochs: 4, BatchSize: batch, LR: 1e-2, L2: 1e-4, Seed: int64(si)}
			want := New(in, hidden, int64(si+1))
			got := New(in, hidden, int64(si+1))
			wantLoss := oracleTrain(want, X, y, opts)
			gotLoss := got.Train(X, y, opts)
			if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
				t.Fatalf("hidden %v, batch %d: loss %v, want %v", hidden, batch, gotLoss, wantLoss)
			}
			for l := range want.W {
				if !sameBits(got.W[l], want.W[l]) || !sameBits(got.B[l], want.B[l]) {
					t.Fatalf("hidden %v, batch %d: layer %d weights differ from the oracle", hidden, batch, l)
				}
			}
		}
	}
}

// TestTrainAllocationsBounded: Train allocates its working memory once per
// call, so its allocation count does not grow with epochs or samples (the
// allocating backprop made about six per sample).
func TestTrainAllocationsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	data := func(samples int) ([][]float64, []float64) {
		X := make([][]float64, samples)
		y := make([]float64, samples)
		for i := range X {
			X[i] = normals(rng, 23)
			y[i] = float64(i % 2)
		}
		return X, y
	}
	allocs := func(samples, epochs int) float64 {
		X, y := data(samples)
		n := New(23, []int{32, 16}, 1)
		return testing.AllocsPerRun(3, func() {
			n.Train(X, y, TrainOptions{Epochs: epochs, Seed: 1})
		})
	}
	small, large := allocs(40, 1), allocs(400, 5)
	if large != small || small > 100 {
		t.Fatalf("Train allocates %.0f times for 40 samples × 1 epoch and %.0f for 400 × 5; want the same count, at most 100",
			small, large)
	}
}
