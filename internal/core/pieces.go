package core

import (
	"context"
	"sync"

	"marioh/internal/graph"
	"marioh/internal/hypergraph"
)

// ReconstructPiece runs the round engine on one piece of a larger graph:
// g is the piece's subgraph and origID maps its node ids back to the
// original graph (nil when g is the original, which makes it
// ReconstructContext). Components are keyed by original node ids, so
// piece outputs merge bit-for-bit into the serial pipeline's. The result
// keeps g's piece-local node ids; RunPieces relabels them.
func ReconstructPiece(ctx context.Context, g *graph.Graph, m *Model, opts Options, origID []int) (*Result, error) {
	return reconstructGraph(ctx, g, m, opts, origID)
}

// RunPieces is the library's one runner for many reconstructions, behind
// session applies and marioh's batches: it reconstructs pieces 0..n−1
// through the round engine on a Fanout over workers (≤ 0 = GOMAXPROCS).
// piece(i) returns piece i as its subgraph, relabeled
// 0..len(nodes)−1, and the sorted original ids of its nodes, which
// RunPieces relabels the piece's result to. A whole-graph piece has nil
// nodes, the nil ReconstructPiece takes for the original graph, and keeps
// its ids. piece runs on the worker that reconstructs the piece, so
// building a piece's subgraph there fans out too.
//
// Progress events are delivered one at a time, each with Target set to
// its piece's index. The first piece to fail cancels the pieces still to
// run. results[i] is piece i's result: complete when it finished, partial
// when it failed or was cancelled, and nil when it never started. err is
// the first error, or else ctx's.
func RunPieces(ctx context.Context, n int, piece func(i int) (g *graph.Graph, nodes []int), m *Model, opts Options, workers int) (results []*Result, err error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var mu sync.Mutex // guards err and the delivery of progress events
	progress := opts.Progress
	results = make([]*Result, n)
	Fanout{Workers: workers}.Run(runCtx, n, func(_, i int) {
		popts := opts
		if progress != nil {
			popts.Progress = func(p Progress) {
				p.Target = i
				mu.Lock()
				defer mu.Unlock()
				progress(p)
			}
		}
		g, nodes := piece(i)
		res, perr := ReconstructPiece(runCtx, g, m, popts, nodes)
		if nodes != nil {
			rec := hypergraph.New(0)
			buf := make([]int, 0, 16)
			res.Hypergraph.Each(func(local []int, mult int) {
				buf = buf[:0]
				for _, u := range local {
					buf = append(buf, nodes[u])
				}
				rec.AddMult(buf, mult)
			})
			res.Hypergraph = rec
		}
		results[i] = res
		if perr != nil {
			mu.Lock()
			if err == nil {
				err = perr
			}
			mu.Unlock()
			cancel()
		}
	})
	if err == nil {
		err = ctx.Err()
	}
	return results, err
}

// MergeResults unions the hypergraphs of results, all in one graph's node
// ids, into one Result over n nodes, in slice order: FilteredSize2 and
// the step durations add up, and Rounds is the maximum. nil entries are
// skipped. The union (hypergraph.Union) reuses each result's keys and
// node slices rather than re-inserting every hyperedge, and leaves the
// insertion order, keys and multiplicities that AddMult would.
func MergeResults(n int, results []*Result) *Result {
	merged := &Result{}
	hs := make([]*hypergraph.Hypergraph, 0, len(results))
	for _, res := range results {
		if res == nil {
			continue
		}
		hs = append(hs, res.Hypergraph)
		merged.FilteredSize2 += res.FilteredSize2
		merged.Times.Filtering += res.Times.Filtering
		merged.Times.Bidirectional += res.Times.Bidirectional
		merged.Times.Rounds = max(merged.Times.Rounds, res.Times.Rounds)
	}
	merged.Hypergraph = hypergraph.Union(n, hs)
	return merged
}
