package linalg

import "math/rand"

// MatVecFunc applies an implicit symmetric linear operator: y = A·x.
// The callee must fill y completely (it may not rely on y's prior value).
type MatVecFunc func(x, y []float64)

// LanczosSmallest computes the k smallest eigenpairs of an implicit
// symmetric n×n operator using the Lanczos iteration with full
// reorthogonalization, making spectral embeddings practical for graphs far
// beyond the O(n³) Jacobi solver's reach. It returns the eigenvalues in
// ascending order and a matrix whose columns are the eigenvectors.
//
// m is the Krylov subspace dimension (m ≥ k; 0 picks min(n, max(2k+20,
// 40))). The operator is only touched through matvec, so callers can run
// it on sparse Laplacians in O(|E|) per step.
func LanczosSmallest(n, k, m int, matvec MatVecFunc, seed int64) ([]float64, *Matrix) {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil, NewMatrix(n, 0)
	}
	if m <= 0 {
		m = 2*k + 20
		if m < 40 {
			m = 40
		}
	}
	if m > n {
		m = n
	}
	if m < k {
		m = k
	}

	rng := rand.New(rand.NewSource(seed))
	// Lanczos basis vectors (kept for full reorthogonalization).
	v := make([][]float64, 0, m+1)
	alpha := make([]float64, 0, m)
	beta := make([]float64, 0, m) // beta[j] couples v[j] and v[j+1]

	q := make([]float64, n)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	normalize(q)
	v = append(v, append([]float64(nil), q...))

	w := make([]float64, n)
	for j := 0; j < m; j++ {
		matvec(v[j], w)
		a := Dot(v[j], w)
		alpha = append(alpha, a)
		// w ← w − a·v_j − b_{j−1}·v_{j−1}, then full reorthogonalization.
		for i := range w {
			w[i] -= a * v[j][i]
		}
		if j > 0 {
			b := beta[j-1]
			for i := range w {
				w[i] -= b * v[j-1][i]
			}
		}
		for _, u := range v { // full reorthogonalization (twice for safety)
			d := Dot(w, u)
			for i := range w {
				w[i] -= d * u[i]
			}
		}
		b := Norm2(w)
		if b < 1e-12 {
			break // invariant subspace found
		}
		beta = append(beta, b)
		next := make([]float64, n)
		for i := range w {
			next[i] = w[i] / b
		}
		v = append(v, next)
	}

	// Solve the tridiagonal eigenproblem with the dense Jacobi solver (the
	// subspace is small).
	dim := len(alpha)
	tri := NewMatrix(dim, dim)
	for i := 0; i < dim; i++ {
		tri.Set(i, i, alpha[i])
		if i+1 < dim && i < len(beta) {
			tri.Set(i, i+1, beta[i])
			tri.Set(i+1, i, beta[i])
		}
	}
	vals, vecs := SymEigen(tri)

	if k > dim {
		k = dim
	}
	outVals := make([]float64, k)
	outVecs := NewMatrix(n, k)
	for c := 0; c < k; c++ {
		outVals[c] = vals[c]
		for r := 0; r < n; r++ {
			s := 0.0
			for j := 0; j < dim; j++ {
				s += v[j][r] * vecs.At(j, c)
			}
			outVecs.Set(r, c, s)
		}
	}
	return outVals, outVecs
}

func normalize(x []float64) {
	n := Norm2(x)
	if n == 0 {
		return
	}
	inv := 1 / n
	for i := range x {
		x[i] *= inv
	}
}
