package graph

// PairScratch holds the reusable state of CliquePairStats. One scratch per
// worker; not safe for concurrent use. The zero value is ready to use.
type PairScratch struct {
	// Node-indexed working arrays, grown to the graph size on demand and
	// cleaned up after every call via the touched/member lists.
	cnt       []int32 // entries per common-neighbor candidate z
	off       []int32 // CSR offsets per z during the fill pass
	memberIdx []int32 // node id → clique index, -1 otherwise
	touched   []int32 // z's seen this call, for O(touched) cleanup

	members []int32 // CSR payload: clique index of each (member, z) entry
	weights []int32 // CSR payload: ω(member, z)
	acc     []int   // |Q|×|Q| upper-triangle MHH accumulator

	omega, mhh []int // result buffers handed to the caller
}

// grow ensures the node-indexed arrays cover n nodes.
func (s *PairScratch) grow(n int) {
	if len(s.cnt) < n {
		s.cnt = make([]int32, n)
		s.off = make([]int32, n)
		s.memberIdx = make([]int32, n)
		for i := range s.memberIdx {
			s.memberIdx[i] = -1
		}
	}
}

// PairIndex returns the position of pair (i, j), 0 ≤ i < j < m, in the
// tables CliquePairStats returns for an m-node clique.
func PairIndex(m, i, j int) int {
	return i*(2*m-i-1)/2 + j - i - 1
}

// CliquePairStats returns, for every pair (q[i], q[j]) with i < j in the
// order (0,1), (0,2), …, (1,2), …, the edge multiplicity ω and the MHH
// bound SumMinCommonWeight — the two edge-level quantities of the MARIOH
// featurizer — computed for all pairs in a single sweep over the members'
// neighbor lists instead of one sorted merge per pair.
//
// The sweep is common-neighbor-centric: every node z adjacent to ≥ 2 clique
// members contributes min(ω(u,z), ω(v,z)) to each such pair (u,v), so the
// work is proportional to Σ_u deg(u) plus the actual intersection mass,
// not to |Q|² merges of full hub adjacency lists. Results are identical to
// calling Weight and SumMinCommonWeight per pair.
//
// Both returned slices are owned by the scratch and valid until the next
// call.
func (g *Graph) CliquePairStats(q []int, s *PairScratch) (omega, mhh []int) {
	m := len(q)
	nPairs := m * (m - 1) / 2
	if cap(s.omega) < nPairs {
		s.omega = make([]int, 0, nPairs)
		s.mhh = make([]int, 0, nPairs)
	}
	s.omega, s.mhh = s.omega[:0], s.mhh[:0]
	if m < 2 {
		return s.omega, s.mhh
	}
	// Tiny cliques: two sorted merges beat setting up the sweep.
	if m == 2 {
		s.omega = append(s.omega, g.Weight(q[0], q[1]))
		s.mhh = append(s.mhh, g.SumMinCommonWeight(q[0], q[1]))
		return s.omega, s.mhh
	}
	for _, u := range q {
		g.check(u)
	}
	s.grow(len(g.nbrs))

	if cap(s.acc) < m*m {
		s.acc = make([]int, m*m)
	}
	acc := s.acc[:m*m]
	for i := range acc {
		acc[i] = 0
	}
	for i, u := range q {
		s.memberIdx[u] = int32(i)
	}
	// Pass 1: count, per candidate z, how many clique members it neighbors.
	s.touched = s.touched[:0]
	total := 0
	for _, u := range q {
		for _, z := range g.nbrs[u] {
			if s.cnt[z] == 0 {
				s.touched = append(s.touched, z)
			}
			s.cnt[z]++
			total++
		}
	}
	// Prefix offsets over touched candidates.
	sum := int32(0)
	for _, z := range s.touched {
		s.off[z] = sum
		sum += s.cnt[z]
	}
	if cap(s.members) < total {
		s.members = make([]int32, total)
		s.weights = make([]int32, total)
	}
	members, weights := s.members[:total], s.weights[:total]
	// Pass 2: fill the CSR blocks and capture pair multiplicities ω when a
	// neighbor is itself a clique member.
	omegaAcc := acc // reuse layout: ω goes to [j][i] (lower triangle), MHH to [i][j]
	for i, u := range q {
		ws := g.wts[u]
		for k, z := range g.nbrs[u] {
			idx := s.off[z]
			members[idx] = int32(i)
			weights[idx] = ws[k]
			s.off[z] = idx + 1
			if j := s.memberIdx[z]; j > int32(i) {
				omegaAcc[int(j)*m+i] = int(ws[k])
			}
		}
	}
	// Accumulate min-weight contributions per candidate block. Entries in a
	// block are in ascending member order because pass 2 walks members in
	// order, so a < b below indexes the upper triangle directly.
	end := int32(0)
	for _, z := range s.touched {
		start := end
		end = s.off[z]
		if end-start < 2 {
			continue
		}
		blockM := members[start:end]
		blockW := weights[start:end]
		for a := 0; a < len(blockM); a++ {
			ia := int(blockM[a]) * m
			wa := blockW[a]
			for b := a + 1; b < len(blockM); b++ {
				wmin := wa
				if blockW[b] < wmin {
					wmin = blockW[b]
				}
				acc[ia+int(blockM[b])] += int(wmin)
			}
		}
	}
	// Emit in pair order and clean up the node-indexed arrays.
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			s.omega = append(s.omega, omegaAcc[j*m+i])
			s.mhh = append(s.mhh, acc[i*m+j])
		}
	}
	for _, z := range s.touched {
		s.cnt[z] = 0
	}
	for _, u := range q {
		s.memberIdx[u] = -1
	}
	return s.omega, s.mhh
}
