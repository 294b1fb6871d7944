// Command datagen writes every synthetic dataset analog to disk in the
// line-oriented hypergraph/graph text formats, for use outside this
// module. With -deltas N it additionally emits, per dataset, the target
// half's projected graph plus a reproducible edge-delta stream of N ops
// (inserts, deletes, weight changes) valid against that graph — the
// inputs of the incremental-reconstruction tests and benchmarks.
//
// With -family it instead (or additionally, when -dataset is also given)
// emits scenario-corpus families from internal/corpus: per family the base
// projected graph as <name>.target.graph and, with -deltas N, the family's
// adversarial delta stream as <name>.target.deltas. These are the graphs
// the shell-level equivalence gates (parallel-check, incr-check,
// crash-check) replay end to end.
//
// Usage:
//
//	datagen -out ./data -seed 1
//	datagen -out ./data -dataset hosts,pschool -reduced -deltas 60
//	datagen -out ./data -family powerlaw-hubs,bridge-chain -deltas 60
//	datagen -out ./data -family all
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"marioh"
	"marioh/internal/corpus"
)

func main() {
	out := flag.String("out", "data", "output directory")
	seed := flag.Int64("seed", 1, "generation seed")
	datasetFlag := flag.String("dataset", "", "comma-separated dataset names (empty = all)")
	reduced := flag.Bool("reduced", false, "reduce hyperedge multiplicities to 1 (mariohctl gen's default view)")
	deltas := flag.Int("deltas", 0, "also emit <name>.target.graph and a delta stream of this many ops")
	deltaSeed := flag.Int64("delta-seed", 1, "seed of the delta stream (datasets only; corpus families derive theirs from -seed)")
	familyFlag := flag.String("family", "", "comma-separated scenario-corpus family names, or \"all\"")
	flag.Parse()

	names := marioh.DatasetNames()
	if *datasetFlag != "" {
		names = strings.Split(*datasetFlag, ",")
	}
	if *familyFlag != "" && *datasetFlag == "" {
		names = nil // -family alone emits only corpus families
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		ds, err := marioh.GenerateDataset(name, *seed)
		if err != nil {
			fail(err)
		}
		full, src, tgt := ds.Full, ds.Source, ds.Target
		if *reduced {
			full, src, tgt = full.Reduced(), src.Reduced(), tgt.Reduced()
		}
		for suffix, h := range map[string]*marioh.Hypergraph{
			".full.hg":   full,
			".source.hg": src,
			".target.hg": tgt,
		} {
			writeFile(filepath.Join(*out, name+suffix), func(f *os.File) error { return h.Write(f) })
		}
		if *deltas > 0 {
			g := tgt.Project()
			writeFile(filepath.Join(*out, name+".target.graph"), func(f *os.File) error { return g.Write(f) })
			ops := deltaStream(g, *deltas, *deltaSeed)
			writeFile(filepath.Join(*out, name+".target.deltas"), func(f *os.File) error {
				return marioh.WriteDeltas(f, ops)
			})
		}
		fmt.Printf("%s: |V|=%d |E_H|=%d (source %d / target %d)\n",
			name, full.NumNodes(), full.NumUnique(),
			src.NumUnique(), tgt.NumUnique())
	}

	if *familyFlag != "" {
		famNames := corpus.Names()
		if *familyFlag != "all" {
			famNames = strings.Split(*familyFlag, ",")
		}
		for _, name := range famNames {
			name = strings.TrimSpace(name)
			f, ok := corpus.ByName(name)
			if !ok {
				fail(fmt.Errorf("unknown family %q (have %s)", name, strings.Join(corpus.Names(), ", ")))
			}
			g := f.Gen(*seed)
			writeFile(filepath.Join(*out, name+".target.graph"), func(w *os.File) error { return g.Write(w) })
			if *deltas > 0 {
				ops := f.Deltas(*seed, *deltas)
				writeFile(filepath.Join(*out, name+".target.deltas"), func(w *os.File) error {
					return marioh.WriteDeltas(w, ops)
				})
			}
			fmt.Printf("%s: |V|=%d |E|=%d (corpus family: %s)\n",
				name, g.NumNodes(), g.NumEdges(), f.Desc)
		}
	}
}

// deltaStream derives a reproducible op stream valid against g: every op
// is generated against the running state of a working copy, so deletes
// always name live edges and the stream replays cleanly from the base
// graph. The mix — weight bumps, fresh inserts (which can merge
// components), deletes (which can split them), absolute sets — is chosen
// to churn component structure, not just weights.
func deltaStream(g *marioh.Graph, n int, seed int64) []marioh.DeltaOp {
	work := g.Clone()
	rng := rand.New(rand.NewSource(seed))
	ops := make([]marioh.DeltaOp, 0, n)
	apply := func(op marioh.DeltaOp) {
		switch op.Kind {
		case marioh.DeltaAdd:
			work.AddWeight(op.U, op.V, op.W)
		case marioh.DeltaRemove:
			work.RemoveEdge(op.U, op.V)
		case marioh.DeltaSet:
			work.SetWeight(op.U, op.V, op.W)
		}
		ops = append(ops, op)
	}
	for len(ops) < n {
		edges := work.Edges()
		r := rng.Intn(10)
		switch {
		case r < 3 && len(edges) > 0: // bump an existing edge's weight
			e := edges[rng.Intn(len(edges))]
			apply(marioh.DeltaOp{Kind: marioh.DeltaAdd, U: e.U, V: e.V, W: 1 + rng.Intn(2)})
		case r < 6: // insert (or thicken) a random pair
			u, v := rng.Intn(work.NumNodes()), rng.Intn(work.NumNodes())
			if u == v {
				continue
			}
			apply(marioh.DeltaOp{Kind: marioh.DeltaAdd, U: u, V: v, W: 1 + rng.Intn(3)})
		case r < 8 && len(edges) > 0: // delete a live edge
			e := edges[rng.Intn(len(edges))]
			apply(marioh.DeltaOp{Kind: marioh.DeltaRemove, U: e.U, V: e.V})
		case len(edges) > 0: // set an absolute weight (0 deletes)
			e := edges[rng.Intn(len(edges))]
			apply(marioh.DeltaOp{Kind: marioh.DeltaSet, U: e.U, V: e.V, W: rng.Intn(4)})
		}
	}
	return ops
}

func writeFile(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := write(f); err != nil {
		f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
