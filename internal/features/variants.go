package features

import "marioh/internal/graph"

// MariohNoMHH is an ablation featurizer for the paper's Sect. IV-E study
// of alternative clique representations: MARIOH's features with the two
// MHH-derived families (MHH and MHH/ω) removed, leaving node weighted
// degrees, raw edge multiplicities, and the clique-level scalars
// (13 dimensions). Comparing it against the full set isolates how much of
// MARIOH's accuracy comes from the higher-order bound rather than from
// raw multiplicities.
type MariohNoMHH struct{}

// Name implements Featurizer.
func (MariohNoMHH) Name() string { return "marioh-nomhh" }

// Dim implements Featurizer.
func (MariohNoMHH) Dim() int { return 13 }

// AppendFeatures implements Featurizer.
func (MariohNoMHH) AppendFeatures(dst []float64, s *Scratch, g *graph.Graph, q []int, maximal bool) []float64 {
	nodeVals := stage(&s.node, len(q))
	sumWDeg := 0.0
	for _, u := range q {
		wd := float64(g.WeightedDegree(u))
		nodeVals = append(nodeVals, wd)
		sumWDeg += wd
	}
	dst = aggStats(dst, nodeVals)
	omega := stage(&s.edge1, len(q)*(len(q)-1)/2)
	internal := 0.0
	for i := 0; i < len(q); i++ {
		for j := i + 1; j < len(q); j++ {
			w := float64(g.Weight(q[i], q[j]))
			omega = append(omega, w)
			internal += w
		}
	}
	dst = aggStats(dst, omega)
	dst = append(dst, float64(len(q)), cutRatio(internal, sumWDeg))
	if maximal {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return dst
}
