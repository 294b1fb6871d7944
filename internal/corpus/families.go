package corpus

import (
	"math/rand"

	"marioh/internal/graph"
)

// The family definitions. Sizes are tuned so every family reconstructs in
// well under a second serially — small enough for per-batch -verify
// rebuilds in the gates, large enough to exercise the pressure point
// (powerlaw-hubs and hub-thrash cross the dense-bitset promote threshold,
// bridge-chain falls apart into many components after filtering,
// archipelago has enough components for the incremental cache to matter).
//
// Generators are named functions (not closures over the Family vars) so
// the delta generators can rebuild their base graph without creating an
// initialization cycle.

// genPowerlawHubs: a power-law degree sequence over ~200 nodes. The top
// hubs sit above the adjacency engine's dense-bitset promote threshold
// (max(64, n/64) = 64 here), so hub rows are built, intersected via
// popcount, and — under the delta stream — repeatedly demoted and
// rebuilt. Preferential attachment plus triadic closure gives the
// triangle mass clique scoring needs.
func genPowerlawHubs(seed int64) *graph.Graph {
	const n = 200
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	// Three engineered hubs above the bitset threshold.
	hubs := []struct{ node, deg int }{{0, 96}, {1, 80}, {2, 68}}
	for _, h := range hubs {
		for _, v := range rng.Perm(n)[:h.deg] {
			if v != h.node {
				g.AddWeight(h.node, v, 1+rng.Intn(3))
			}
		}
	}
	// Preferential-attachment tail: each new node attaches to 2 nodes
	// biased toward earlier (already popular) ids, then closes the
	// triangle half the time so cliques exist beyond stars.
	for u := 3; u < n; u++ {
		a := rng.Intn(u)
		if p := rng.Intn(u); p < a {
			a = p // bias toward low ids, the popular end
		}
		b := rng.Intn(u)
		if a != b {
			g.AddWeight(u, a, 1+rng.Intn(2))
			g.AddWeight(u, b, 1)
			if rng.Intn(2) == 0 && !g.HasEdge(a, b) {
				g.AddWeight(a, b, 1)
			}
		}
	}
	return g
}

var powerlawHubs = Family{
	Name: "powerlaw-hubs",
	Desc: "power-law hub graph crossing the dense-bitset promote threshold",
	Tags: []string{"hubs", "bitset"},
	Gen:  genPowerlawHubs,
	Deltas: func(seed int64, n int) []graph.DeltaOp {
		w := newWalker(genPowerlawHubs(seed), deltaSeed(seed))
		for len(w.ops) < n {
			hub := w.rng.Intn(3)
			switch w.rng.Intn(5) {
			case 0, 1: // strip spokes off a hub (demote pressure)
				var spokes []int
				w.g.NeighborWeights(hub, func(v, _ int) { spokes = append(spokes, v) })
				for i := 0; i < 8 && len(spokes) > 4; i++ {
					j := w.rng.Intn(len(spokes))
					w.remove(hub, spokes[j])
					spokes = append(spokes[:j], spokes[j+1:]...)
				}
			case 2, 3: // regrow spokes (promote pressure)
				for i := 0; i < 8; i++ {
					v := 3 + w.rng.Intn(w.g.NumNodes()-3)
					w.add(hub, v, 1)
				}
			default: // tail noise
				if e, ok := w.liveEdge(); ok {
					w.set(e.U, e.V, 1+w.rng.Intn(3))
				}
			}
		}
		return w.take(n)
	},
}

// genHubThrash: one hub engineered to sit just above the promote
// threshold, plus a ballast community that keeps the component
// non-trivial even when the hub is stripped bare.
func genHubThrash(seed int64) *graph.Graph {
	const n = 160
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	// The hub: degree 72, just above the promote threshold of 64.
	for _, v := range rng.Perm(n - 1)[:72] {
		g.AddWeight(0, v+1, 1+rng.Intn(2))
	}
	for i := 1; i <= 12; i++ {
		for j := i + 1; j <= 12; j++ {
			if rng.Intn(3) > 0 {
				g.AddWeight(i, j, 1)
			}
		}
	}
	return g
}

var hubThrash = Family{
	Name: "hub-thrash",
	Desc: "one hub's degree oscillates across the bitset promote/demote band",
	Tags: []string{"hubs", "bitset", "churn"},
	Gen:  genHubThrash,
	Deltas: func(seed int64, n int) []graph.DeltaOp {
		w := newWalker(genHubThrash(seed), deltaSeed(seed))
		for len(w.ops) < n {
			// Strip the hub to ~24 spokes (below the demote bound of 32),
			// then regrow past 64: each cycle drops and rebuilds the row.
			var spokes []int
			w.g.NeighborWeights(0, func(v, _ int) { spokes = append(spokes, v) })
			for len(spokes) > 24 && len(w.ops) < n {
				j := w.rng.Intn(len(spokes))
				w.remove(0, spokes[j])
				spokes = append(spokes[:j], spokes[j+1:]...)
			}
			for len(spokes) < 70 && len(w.ops) < n {
				v := 1 + w.rng.Intn(w.g.NumNodes()-1)
				if !w.g.HasEdge(0, v) {
					w.add(0, v, 1)
					spokes = append(spokes, v)
				}
			}
		}
		return w.take(n)
	},
}

// genBridgeChain: a long chain of small 2-edge-connected blocks joined by
// ω=1 bridges. A bridge shares no neighbour, so filtering consumes every
// one and the single component splits into many residual components.
func genBridgeChain(seed int64) *graph.Graph {
	const blocks = 28
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(4 * blocks)
	prev := -1
	next := 0
	for b := 0; b < blocks; b++ {
		var members []int
		if rng.Intn(2) == 0 { // triangle block
			members = []int{next, next + 1, next + 2}
		} else { // K4 block
			members = []int{next, next + 1, next + 2, next + 3}
		}
		next = members[len(members)-1] + 1
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				g.AddWeight(members[i], members[j], 1+rng.Intn(2))
			}
		}
		if prev >= 0 {
			g.AddWeight(prev, members[0], 1) // the bridge
		}
		prev = members[len(members)-1]
	}
	return g
}

var bridgeChain = Family{
	Name: "bridge-chain",
	Desc: "long chain of triangle/K4 blocks joined by cut bridges",
	Tags: []string{"bridges", "chain"},
	Gen:  genBridgeChain,
	Deltas: func(seed int64, n int) []graph.DeltaOp {
		w := newWalker(genBridgeChain(seed), deltaSeed(seed))
		for len(w.ops) < n {
			if e, ok := w.liveEdge(); ok {
				switch {
				case e.W == 1 && w.rng.Intn(2) == 0:
					// Likely a bridge: cut it (chain splits), then half the
					// time restore it immediately.
					w.remove(e.U, e.V)
					if w.rng.Intn(2) == 0 {
						w.add(e.U, e.V, 1)
					}
				default:
					w.set(e.U, e.V, 1+w.rng.Intn(2))
				}
			}
			// Occasionally bridge two random chain positions, creating a
			// cycle through many blocks, then cut it again.
			if w.rng.Intn(4) == 0 {
				u, v := w.rng.Intn(w.g.NumNodes()), w.rng.Intn(w.g.NumNodes())
				if u != v && !w.g.HasEdge(u, v) {
					w.add(u, v, 1)
					if w.rng.Intn(2) == 0 {
						w.remove(u, v)
					}
				}
			}
		}
		return w.take(n)
	},
}

// genCliqueCores: dense overlapping cliques sharing boundary nodes — the
// Bron–Kerbosch and clique-pair-stats stress shape. Overlaps mean maximal
// cliques share nodes without sharing edges, the case the partitioner's
// never-split-a-clique property is about.
func genCliqueCores(seed int64) *graph.Graph {
	const cores, size, overlap = 7, 8, 3
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(cores*(size-overlap) + overlap)
	for c := 0; c < cores; c++ {
		base := c * (size - overlap)
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				g.AddWeight(base+i, base+j, 1+rng.Intn(3))
			}
		}
	}
	return g
}

var cliqueCores = Family{
	Name: "clique-cores",
	Desc: "dense overlapping clique cores sharing boundary nodes",
	Tags: []string{"cliques", "dense"},
	Gen:  genCliqueCores,
	Deltas: func(seed int64, n int) []graph.DeltaOp {
		w := newWalker(genCliqueCores(seed), deltaSeed(seed))
		for len(w.ops) < n {
			e, ok := w.liveEdge()
			if !ok {
				break
			}
			switch w.rng.Intn(4) {
			case 0: // thin a core edge out entirely, breaking a clique
				w.remove(e.U, e.V)
			case 1: // restore or thicken
				w.add(e.U, e.V, 1+w.rng.Intn(2))
			default: // multiplicity churn without structural change
				w.set(e.U, e.V, 1+w.rng.Intn(3))
			}
		}
		return w.take(n)
	},
}

// genStarClique: hub-and-spoke stars whose centers form a clique — the
// hybrid where a dense core meets degree-1 fringe.
func genStarClique(seed int64) *graph.Graph {
	const centers, leaves = 6, 20
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(centers + centers*leaves)
	for i := 0; i < centers; i++ {
		for j := i + 1; j < centers; j++ {
			g.AddWeight(i, j, 2+rng.Intn(2))
		}
	}
	for i := 0; i < centers; i++ {
		for l := 0; l < leaves; l++ {
			g.AddWeight(i, centers+i*leaves+l, 1+rng.Intn(2))
		}
	}
	return g
}

var starClique = Family{
	Name: "star-clique",
	Desc: "star centers forming a clique, leaves migrating between stars",
	Tags: []string{"hubs", "cliques"},
	Gen:  genStarClique,
	Deltas: func(seed int64, n int) []graph.DeltaOp {
		const centers, leaves = 6, 20
		w := newWalker(genStarClique(seed), deltaSeed(seed))
		for len(w.ops) < n {
			leaf := centers + w.rng.Intn(centers*leaves)
			from := (leaf - centers) / leaves
			to := w.rng.Intn(centers)
			switch {
			case w.g.HasEdge(from, leaf) && from != to:
				// Migrate the leaf to another star: it briefly becomes a
				// singleton component between the two ops.
				w.remove(from, leaf)
				w.add(to, leaf, 1)
			case w.rng.Intn(3) == 0:
				w.set(to, leaf, 1+w.rng.Intn(2))
			default:
				if e, ok := w.liveEdge(); ok {
					w.add(e.U, e.V, 1)
				}
			}
		}
		return w.take(n)
	},
}

// genArchipelago: many disjoint island communities — the multi-component
// shape the incremental cache and the parallel component search live on.
func genArchipelago(seed int64) *graph.Graph {
	const islands = 12
	rng := rand.New(rand.NewSource(seed))
	sizes := make([]int, islands)
	total := 0
	for i := range sizes {
		sizes[i] = 5 + rng.Intn(5)
		total += sizes[i]
	}
	g := graph.New(total)
	base := 0
	for _, size := range sizes {
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				if rng.Float64() < 0.65 {
					g.AddWeight(base+i, base+j, 1+rng.Intn(3))
				}
			}
		}
		// Guarantee connectivity within the island.
		for i := 1; i < size; i++ {
			if g.Weight(base+i-1, base+i) == 0 {
				g.AddWeight(base+i-1, base+i, 1)
			}
		}
		base += size
	}
	return g
}

var archipelago = Family{
	Name: "archipelago",
	Desc: "many disjoint island communities; deltas stay local to a few",
	Tags: []string{"multi-component"},
	Gen:  genArchipelago,
	Deltas: func(seed int64, n int) []graph.DeltaOp {
		w := newWalker(genArchipelago(seed), deltaSeed(seed))
		// Confine edits to the islands containing two anchor nodes, so the
		// other ~10 components stay untouched across the whole stream.
		anchors := []int{0, w.g.NumNodes() - 1}
		for len(w.ops) < n {
			comp := componentOf(w.g, anchors[w.rng.Intn(len(anchors))])
			u := comp[w.rng.Intn(len(comp))]
			v := comp[w.rng.Intn(len(comp))]
			if u == v {
				continue
			}
			switch w.rng.Intn(4) {
			case 0:
				if w.g.HasEdge(u, v) {
					w.remove(u, v)
				} else {
					w.add(u, v, 1)
				}
			default:
				w.set(u, v, 1+w.rng.Intn(3))
			}
		}
		return w.take(n)
	},
}

// genMergeSplitChurn: a set of islands the delta stream keeps bridging
// and re-severing, so the tracker's union/rescan paths and the engine's
// cache eviction run constantly — the adversarial case for incremental
// component maintenance.
func genMergeSplitChurn(seed int64) *graph.Graph {
	const islands, size = 9, 6
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(islands * size)
	for c := 0; c < islands; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				if rng.Float64() < 0.7 || j == i+1 {
					g.AddWeight(base+i, base+j, 1+rng.Intn(2))
				}
			}
		}
	}
	return g
}

var mergeSplitChurn = Family{
	Name: "merge-split-churn",
	Desc: "islands repeatedly bridged and re-severed: component merge/split storm",
	Tags: []string{"multi-component", "churn"},
	Gen:  genMergeSplitChurn,
	Deltas: func(seed int64, n int) []graph.DeltaOp {
		const islands, size = 9, 6
		w := newWalker(genMergeSplitChurn(seed), deltaSeed(seed))
		var bridges [][2]int
		for len(w.ops) < n {
			switch {
			case len(bridges) > 2 || (len(bridges) > 0 && w.rng.Intn(2) == 0):
				// Sever a live bridge: the merged component splits back.
				j := w.rng.Intn(len(bridges))
				b := bridges[j]
				w.remove(b[0], b[1])
				bridges = append(bridges[:j], bridges[j+1:]...)
			default:
				// Bridge two random islands (possibly chaining several into
				// one mega-component).
				a, b := w.rng.Intn(islands), w.rng.Intn(islands)
				if a == b {
					continue
				}
				u := a*size + w.rng.Intn(size)
				v := b*size + w.rng.Intn(size)
				if !w.g.HasEdge(u, v) {
					w.add(u, v, 1)
					bridges = append(bridges, [2]int{u, v})
				}
			}
		}
		return w.take(n)
	},
}

var revertCycles = Family{
	Name: "revert-cycles",
	Desc: "mutation bursts followed by exact structural reverts",
	Tags: []string{"revert", "churn"},
	// Reuse the clique-core shape: reverts are most punishing where
	// re-enumeration is most expensive.
	Gen: genCliqueCores,
	Deltas: func(seed int64, n int) []graph.DeltaOp {
		w := newWalker(genCliqueCores(seed), deltaSeed(seed))
		for len(w.ops) < n {
			// One cycle: 3-6 forward ops with their inverses pushed on a
			// stack, then the inverses replayed in reverse order. After the
			// cycle the edge set is exactly the pre-burst one, so a correct
			// incremental engine lands back on full cache hits — and a
			// wrong one resurfaces stale bytes, which the oracle catches.
			type undo struct{ u, v, prev int }
			var undos []undo
			burst := 3 + w.rng.Intn(4)
			for i := 0; i < burst; i++ {
				e, ok := w.liveEdge()
				if !ok {
					break
				}
				u, v := e.U, e.V
				if w.rng.Intn(3) == 0 { // sometimes target a non-edge
					a, b := w.rng.Intn(w.g.NumNodes()), w.rng.Intn(w.g.NumNodes())
					if a != b {
						u, v = a, b
					}
				}
				undos = append(undos, undo{u, v, w.g.Weight(u, v)})
				switch r := w.rng.Intn(3); {
				case r == 0 && w.g.HasEdge(u, v):
					w.remove(u, v)
				case r == 1:
					w.add(u, v, 1+w.rng.Intn(2))
				default:
					w.set(u, v, w.rng.Intn(4))
				}
			}
			for i := len(undos) - 1; i >= 0; i-- {
				w.set(undos[i].u, undos[i].v, undos[i].prev)
			}
		}
		return w.take(n)
	},
}
