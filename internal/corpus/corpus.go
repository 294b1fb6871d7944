// Package corpus is the scenario corpus behind the repo's equivalence
// gates: a table-driven registry of graph families, each pairing a
// deterministic generator of a projected graph with a generator of an
// adversarial edge-delta stream valid against it.
//
// The byte-identical output contract (serial == parallel == incremental ==
// recovered-after-crash) is only as strong as the graph shapes it is
// proven on. Each Family in Families is engineered to stress one part of
// the stack: dense bitset promote/demote churn, bridges that filtering
// consumes whole, overlapping-clique enumeration, component merge/split
// storms, exact structural reverts. The golden-output tests pin every family's
// reconstruction bytes, the engine-vs-rebuild property tests and
// FuzzDeltaSequence replay the delta streams through the incremental
// engine with a from-scratch rebuild as oracle, and `datagen -family`
// emits any family to disk so the shell-level gates (parallel-check,
// incr-check, crash-check) run the same shapes end to end.
//
// Everything here is a pure function of (family, seed): both generators
// draw from seeded rand.Rand streams only, so a family row in a CI matrix
// reproduces bit for bit on any machine.
package corpus

import (
	"fmt"
	"math/rand"
	"sort"

	"marioh/internal/graph"
)

// Family is one scenario: a named graph shape plus a delta stream that
// stresses it. Gen and Deltas must be deterministic in their seeds.
type Family struct {
	// Name identifies the family in test tables, CI matrices and
	// `datagen -family`.
	Name string
	// Desc is a one-line description of the pressure the family applies.
	Desc string
	// Tags classify that pressure ("hubs", "bridges", "cliques",
	// "multi-component", "churn", "revert").
	Tags []string
	// Gen builds the family's base projected graph for a seed. Every call
	// with the same seed yields an identical graph.
	Gen func(seed int64) *graph.Graph
	// Deltas derives an adversarial delta stream of n ops, valid op by op
	// against the running state of Gen(seed): deletes name live edges,
	// weights never go negative, and the stream replays cleanly from the
	// base graph. The stream's randomness is derived from the same seed,
	// so (family, seed, n) fully determines it.
	Deltas func(seed int64, n int) []graph.DeltaOp
}

// Families is the scenario corpus, ordered by name. Gates that iterate it
// inherit every future family for free.
var Families = []Family{
	archipelago,
	bridgeChain,
	cliqueCores,
	hubThrash,
	mergeSplitChurn,
	powerlawHubs,
	revertCycles,
	starClique,
}

// Names lists the family names in registry order.
func Names() []string {
	out := make([]string, len(Families))
	for i, f := range Families {
		out[i] = f.Name
	}
	return out
}

// ByName resolves a family.
func ByName(name string) (Family, bool) {
	for _, f := range Families {
		if f.Name == name {
			return f, true
		}
	}
	return Family{}, false
}

// MustByName resolves a family or panics with the valid names — the
// command-line entry points turn this into a usage error.
func MustByName(name string) Family {
	f, ok := ByName(name)
	if !ok {
		panic(fmt.Sprintf("corpus: unknown family %q (have %v)", name, Names()))
	}
	return f
}

// walker mutates a working copy of a family's base graph while recording
// the ops, so every generated delta is valid against the running state —
// the same discipline datagen's dataset streams follow.
type walker struct {
	g   *graph.Graph
	rng *rand.Rand
	ops []graph.DeltaOp
}

func newWalker(base *graph.Graph, seed int64) *walker {
	return &walker{g: base.Clone(), rng: rand.New(rand.NewSource(seed))}
}

func (w *walker) record(op graph.DeltaOp) {
	top := op.U
	if op.V > top {
		top = op.V
	}
	w.g.EnsureNodes(top + 1)
	switch op.Kind {
	case graph.DeltaAdd:
		w.g.AddWeight(op.U, op.V, op.W)
	case graph.DeltaRemove:
		w.g.RemoveEdge(op.U, op.V)
	case graph.DeltaSet:
		w.g.SetWeight(op.U, op.V, op.W)
	}
	w.ops = append(w.ops, op)
}

func (w *walker) add(u, v, wt int) { w.record(graph.DeltaOp{Kind: graph.DeltaAdd, U: u, V: v, W: wt}) }
func (w *walker) remove(u, v int)  { w.record(graph.DeltaOp{Kind: graph.DeltaRemove, U: u, V: v}) }
func (w *walker) set(u, v, wt int) { w.record(graph.DeltaOp{Kind: graph.DeltaSet, U: u, V: v, W: wt}) }
func (w *walker) liveEdge() (graph.Edge, bool) {
	edges := w.g.Edges()
	if len(edges) == 0 {
		return graph.Edge{}, false
	}
	return edges[w.rng.Intn(len(edges))], true
}

// take returns the recorded stream truncated (or padded by weight bumps
// on live edges) to exactly n ops.
func (w *walker) take(n int) []graph.DeltaOp {
	for len(w.ops) < n {
		if e, ok := w.liveEdge(); ok {
			w.add(e.U, e.V, 1)
		} else {
			w.add(0, 1, 1)
		}
	}
	return w.ops[:n:n]
}

// deltaSeed derives the delta stream's rng seed from the family seed, so
// Gen(seed) and Deltas(seed, n) share one knob without sharing a stream.
func deltaSeed(seed int64) int64 {
	return int64(splitmix64(uint64(seed) ^ 0xc0_4c0_4c0_4c0_4))
}

// splitmix64 is the SplitMix64 finalizer (shared idiom with the engine's
// fingerprints and core's component sampling seeds).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// componentOf returns the sorted component containing u, a convenience
// for delta generators that target whole components.
func componentOf(g *graph.Graph, u int) []int {
	for _, comp := range g.ConnectedComponents() {
		i := sort.SearchInts(comp, u)
		if i < len(comp) && comp[i] == u {
			return comp
		}
	}
	return []int{u}
}
