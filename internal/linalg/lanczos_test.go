package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// denseOp wraps a dense matrix as a MatVecFunc.
func denseOp(a *Matrix) MatVecFunc {
	return func(x, y []float64) {
		r := MatVec(a, x)
		copy(y, r)
	}
}

func TestLanczosMatchesJacobiOnRandomSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(12)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		wantVals, _ := SymEigen(a)
		k := 3
		gotVals, gotVecs := LanczosSmallest(n, k, n, denseOp(a), 1)
		for c := 0; c < k; c++ {
			if math.Abs(gotVals[c]-wantVals[c]) > 1e-6 {
				t.Fatalf("trial %d: eigenvalue %d = %v, want %v", trial, c, gotVals[c], wantVals[c])
			}
			// Verify A·v = λ·v.
			col := make([]float64, n)
			for r := 0; r < n; r++ {
				col[r] = gotVecs.At(r, c)
			}
			av := MatVec(a, col)
			for r := 0; r < n; r++ {
				if math.Abs(av[r]-gotVals[c]*col[r]) > 1e-5 {
					t.Fatalf("trial %d: eigenpair %d residual too large", trial, c)
				}
			}
		}
	}
}

func TestLanczosDiagonal(t *testing.T) {
	n := 50
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, float64(i+1))
	}
	vals, _ := LanczosSmallest(n, 4, 0, denseOp(a), 2)
	for c, want := range []float64{1, 2, 3, 4} {
		if math.Abs(vals[c]-want) > 1e-6 {
			t.Fatalf("vals = %v", vals)
		}
	}
}

func TestLanczosDegenerate(t *testing.T) {
	vals, vecs := LanczosSmallest(5, 0, 0, denseOp(NewMatrix(5, 5)), 1)
	if len(vals) != 0 || vecs.Cols != 0 {
		t.Fatal("k=0 should return nothing")
	}
	// k > n clamps.
	a := Identity(3)
	vals, _ = LanczosSmallest(3, 10, 0, denseOp(a), 1)
	if len(vals) > 3 {
		t.Fatalf("too many eigenvalues: %v", vals)
	}
}
