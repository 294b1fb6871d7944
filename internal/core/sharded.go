package core

import (
	"context"
	"runtime"
	"sync"

	"marioh/internal/graph"
	"marioh/internal/hypergraph"
	"marioh/internal/shard"
)

// ShardOptions configure ReconstructSharded.
type ShardOptions struct {
	// Shards is the shard count handed to the partitioner; 0 resolves to
	// GOMAXPROCS. The output is byte-identical for every shard count (see
	// ReconstructSharded), so this is purely a throughput knob. The shards
	// fan out over Options.Parallelism workers.
	Shards int
}

// ReconstructPiece runs the round engine on one piece of a larger graph:
// g is the piece's subgraph and origID maps its node ids back to the
// original graph (nil when g is the original, which makes it
// ReconstructContext). Components are keyed by original node ids, so
// piece outputs merge bit-for-bit into the serial pipeline's. The result
// keeps g's piece-local node ids; RunPieces relabels them.
func ReconstructPiece(ctx context.Context, g *graph.Graph, m *Model, opts Options, origID []int) (*Result, error) {
	return reconstructGraph(ctx, g, m, opts, origID)
}

// ReconstructSharded runs MARIOH on g by partitioning it into shards,
// reconstructing the shards concurrently through RunPieces, and merging
// the per-shard hypergraphs. The output is byte-identical to
// ReconstructContext on the same inputs, for any shard count: hyperedges
// never span connected components, the partitioner cuts only edges whose
// endpoints share no neighbour (which filtering consumes before anything
// is scored), and the round engine keys all per-round randomness and
// fallbacks by component — so each shard reproduces exactly the slice of
// the serial run its components would have produced. The clique budget
// (Options.MaxCliqueLimit) is per component too, so a shard fails with
// ErrCliqueBudget exactly when the serial run would.
//
// Progress events carry the shard index and shard-local rounds and edge
// counts. Result.Times aggregates the per-shard breakdowns (durations
// summed, Rounds the maximum); Result.Shards records the shard count.
// On error or cancellation the merge of the shards that finished is
// returned with the first error, matching ReconstructContext's contract.
func ReconstructSharded(ctx context.Context, g *graph.Graph, m *Model, opts Options, so ShardOptions) (*Result, error) {
	if so.Shards < 1 {
		so.Shards = runtime.GOMAXPROCS(0)
	}
	plan := shard.Partition(g, shard.Options{
		Shards: so.Shards,
		// Cuts are only output-exact because filtering consumes every cut
		// edge before scoring; without filtering (MARIOH-F) the
		// partitioner must stay at component granularity.
		DisableSplit: opts.DisableFiltering,
	})

	if len(plan.Pieces) <= 1 {
		res, err := ReconstructContext(ctx, g, m, opts)
		res.Shards = 1
		return res, err
	}
	results, err := RunPieces(ctx, len(plan.Pieces), func(i int) shard.Piece { return plan.Pieces[i] },
		m, opts, opts.Parallelism, func(p *Progress, i int) { p.Shard = i })
	merged := MergeResults(g.NumNodes(), results)
	merged.Shards = len(plan.Pieces)
	return merged, err
}

// RunPieces is the piece runner shared by shards and session applies: it
// reconstructs pieces 0..n−1 through the round engine on a Fanout over
// workers (≤ 0 = GOMAXPROCS), and relabels each result to original node
// ids through the piece's Nodes. piece(i) returns piece i; it runs on the
// worker that reconstructs the piece, so building a piece's subgraph
// there fans out too. label stamps piece i's progress events, which are
// delivered one at a time. The first piece to fail cancels the pieces
// still to run; results[i] is nil for every piece that did not finish,
// and err is the first error, or else ctx's.
func RunPieces(ctx context.Context, n int, piece func(i int) shard.Piece, m *Model, opts Options, workers int, label func(p *Progress, i int)) (results []*Result, err error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var mu sync.Mutex // guards err and the delivery of progress events
	progress := opts.Progress
	run := func(i int) {
		popts := opts
		if progress != nil {
			popts.Progress = func(p Progress) {
				label(&p, i)
				mu.Lock()
				defer mu.Unlock()
				progress(p)
			}
		}
		p := piece(i)
		res, perr := ReconstructPiece(runCtx, p.Graph, m, popts, p.Nodes)
		if perr != nil {
			mu.Lock()
			if err == nil {
				err = perr
			}
			mu.Unlock()
			cancel()
			return
		}
		rec := hypergraph.New(0)
		buf := make([]int, 0, 16)
		res.Hypergraph.Each(func(local []int, mult int) {
			buf = buf[:0]
			for _, u := range local {
				buf = append(buf, p.Nodes[u])
			}
			rec.AddMult(buf, mult)
		})
		res.Hypergraph = rec
		results[i] = res
	}

	results = make([]*Result, n)
	Fanout{Workers: workers}.Run(runCtx, n, func(_, i int) { run(i) })
	if err == nil {
		err = ctx.Err()
	}
	return results, err
}

// MergeResults unions the hypergraphs of results, all in one graph's node
// ids, into one Result over n nodes, in slice order: FilteredSize2 and
// the step durations add up, and Rounds is the maximum. nil entries are
// skipped.
func MergeResults(n int, results []*Result) *Result {
	merged := &Result{Hypergraph: hypergraph.New(n)}
	for _, res := range results {
		if res == nil {
			continue
		}
		res.Hypergraph.Each(merged.Hypergraph.AddMult)
		merged.FilteredSize2 += res.FilteredSize2
		merged.Times.Filtering += res.Times.Filtering
		merged.Times.Bidirectional += res.Times.Bidirectional
		merged.Times.Rounds = max(merged.Times.Rounds, res.Times.Rounds)
	}
	return merged
}
