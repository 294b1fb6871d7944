package features

import (
	"math"
	"testing"

	"marioh/internal/corpus"
	"marioh/internal/datasets"
	"marioh/internal/graph"
)

// TestBuiltinsAreComponentLocal: every built-in featurizer gives every
// maximal clique of eu and of each corpus family the bit-identical vector
// in its component's Graph.Subgraph as in the whole graph, maximal or
// not. The round cache, the parallel component search and sessions all
// score a component apart from the rest of the graph and rely on it. The whole-graph reads go through a pair table over all of
// g, as a round's do; the subgraph reads build one per clique.
func TestBuiltinsAreComponentLocal(t *testing.T) {
	type input struct {
		name string
		g    *graph.Graph
	}
	inputs := []input{{"eu", datasets.MustByName("eu", 1).Source.Reduced().Project()}}
	for _, f := range corpus.Families {
		inputs = append(inputs, input{f.Name, f.Gen(1)})
	}
	for _, in := range inputs {
		g := in.g
		comps := g.ConnectedComponents()
		comp := make([]int, g.NumNodes())  // node → its component's index
		local := make([]int, g.NumNodes()) // node → its id in that subgraph
		subs := make([]*graph.Graph, len(comps))
		for i, c := range comps {
			subs[i], _ = g.Subgraph(c)
			for j, u := range c {
				comp[u], local[u] = i, j
			}
		}
		cliques := g.MaximalCliques(2)
		var tab graph.PairTable
		tab.Build(g, nil)
		for _, name := range Names() {
			f, _ := ByName(name)
			var whole, part Scratch
			whole.UseTable(&tab)
			lq := make([]int, 0, 16)
			for _, q := range cliques {
				lq = lq[:0]
				for _, u := range q {
					lq = append(lq, local[u])
				}
				for _, maximal := range []bool{true, false} {
					want := Compute(f, &whole, g, q, maximal)
					got := Compute(f, &part, subs[comp[q[0]]], lq, maximal)
					for d := range want {
						if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
							t.Fatalf("%s: %s on %v (maximal=%v): dim %d is %v in its component, %v in the whole graph",
								in.name, name, q, maximal, d, got[d], want[d])
						}
					}
				}
			}
		}
	}
}
