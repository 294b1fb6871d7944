package core

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// fanoutCases is the worker × index-count grid the Fanout tests sweep,
// including n = 0 and workers > n.
var fanoutCases = []struct{ workers, n int }{
	{1, 0}, {4, 0}, {1, 1}, {8, 1}, {1, 7}, {2, 7}, {3, 100}, {8, 5}, {64, 300},
}

// TestParallelFanoutRunsEveryIndexOnce: every index in [0, n) runs exactly
// once, on a worker index below min(workers, n).
func TestParallelFanoutRunsEveryIndexOnce(t *testing.T) {
	for _, tc := range fanoutCases {
		runs := make([]atomic.Int32, tc.n)
		var badWorker atomic.Int32
		Fanout{Workers: tc.workers}.Run(context.Background(), tc.n, func(w, i int) {
			if w < 0 || w >= min(tc.workers, tc.n) {
				badWorker.Store(1)
			}
			runs[i].Add(1)
		})
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("workers=%d n=%d: index %d ran %d times, want 1", tc.workers, tc.n, i, got)
			}
		}
		if badWorker.Load() != 0 {
			t.Fatalf("workers=%d n=%d: a worker index reached min(workers, n)", tc.workers, tc.n)
		}
	}
}

// TestParallelFanoutSerialClaimsAscend: one worker claims every index in
// ascending order, as worker 0. So does a run whose Ready never reports
// true: the helpers never start.
func TestParallelFanoutSerialClaimsAscend(t *testing.T) {
	for _, f := range []Fanout{{Workers: 1}, {Workers: 8, Ready: func() bool { return false }}} {
		var order []int
		f.Run(context.Background(), 50, func(w, i int) {
			if w != 0 {
				t.Errorf("Workers=%d: index %d ran on worker %d, want 0", f.Workers, i, w)
			}
			order = append(order, i)
		})
		want := make([]int, 50)
		for i := range want {
			want[i] = i
		}
		if !slices.Equal(order, want) {
			t.Fatalf("Workers=%d: claims %v, want ascending 0..49", f.Workers, order)
		}
	}
}

// TestParallelFanoutCancelStopsClaims: after ctx is cancelled no new index
// is claimed. With one worker the run stops right after the cancelling
// index; with many, every other worker may finish at most the one claim
// it made before it saw the cancellation. Stop ends claiming the same way.
func TestParallelFanoutCancelStopsClaims(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran []int
	Fanout{Workers: 1}.Run(ctx, 100, func(_, i int) {
		ran = append(ran, i)
		if i == 9 {
			cancel()
		}
	})
	if len(ran) != 10 || ran[9] != 9 {
		t.Fatalf("one worker ran %v after a cancel at index 9, want 0..9", ran)
	}

	for _, workers := range []int{2, 4, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		var done []int
		Fanout{Workers: workers}.Run(ctx, 1000, func(_, i int) {
			mu.Lock()
			done = append(done, i)
			mu.Unlock()
			cancel()
		})
		if len(done) > workers {
			t.Fatalf("workers=%d: %d indices ran after a cancel in the first, want at most %d", workers, len(done), workers)
		}
		slices.Sort(done)
		for k, i := range done {
			if i != k {
				t.Fatalf("workers=%d: claimed indices %v are not a prefix", workers, done)
			}
		}
	}

	var count atomic.Int32
	Fanout{Workers: 1, Stop: func() bool { return count.Load() >= 5 }}.Run(context.Background(), 100, func(_, _ int) {
		count.Add(1)
	})
	if got := count.Load(); got != 5 {
		t.Fatalf("Stop after 5 ran %d indices", got)
	}
}
