package core

import (
	"context"
	"sync"
	"sync/atomic"
)

// Fanout is the library's one ordered-claim scheduler. The round's
// enumerate-and-score loop, the per-component search, Phase 2's scoring
// of a round that searches one component, and the piece runner behind
// session applies and marioh's batches all run through it.
type Fanout struct {
	// Workers bounds the goroutines: the calling goroutine is worker 0,
	// and at most min(Workers, n)−1 helpers join it. ≤ 0 means one worker
	// per GOMAXPROCS; 1 runs every index on the calling goroutine.
	Workers int
	// Ready, when non-nil, holds the helpers back: the calling goroutine
	// works alone, polling Ready before each of its claims, and starts
	// the helpers the first time it reports true.
	Ready func() bool
	// Stop, when non-nil, is polled with ctx before every claim; once it
	// reports true, no further index is claimed.
	Stop func() bool
}

// Run calls fn(w, i) once for every index i in [0, n) it claims, where w
// is the claiming worker's index, below min(Workers, n), so callers can
// keep per-worker scratch. Indices are claimed in ascending order from one
// atomic counter, so the claimed indices always form a prefix of [0, n),
// and ctx and Stop are polled before each claim: after cancellation no
// new index starts, while claimed ones run to the end. fn owns its
// per-index result slots; Run returns once every claimed index finished.
func (f Fanout) Run(ctx context.Context, n int, fn func(w, i int)) {
	workers := min(resolveWorkers(f.Workers), n)
	var next atomic.Int64
	claim := func() (int, bool) {
		if ctx.Err() != nil || (f.Stop != nil && f.Stop()) {
			return 0, false
		}
		i := int(next.Add(1)) - 1
		return i, i < n
	}
	var wg sync.WaitGroup
	for {
		if workers > 1 && (f.Ready == nil || f.Ready()) {
			for w := 1; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i, ok := claim(); ok; i, ok = claim() {
						fn(w, i)
					}
				}()
			}
			workers = 1
		}
		i, ok := claim()
		if !ok {
			break
		}
		fn(0, i)
	}
	wg.Wait()
}
