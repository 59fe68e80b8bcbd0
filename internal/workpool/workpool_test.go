package workpool

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestRunVisitsEachIndexOnce: every index in [0, n) is handed out
// exactly once, in ranges of at most grain, to worker ids below the
// clamp, across the boundary sizes and worker requests.
func TestRunVisitsEachIndexOnce(t *testing.T) {
	const grain = 7
	limit := 2 * runtime.GOMAXPROCS(0)
	for _, n := range []int{0, 1, grain - 1, grain, grain + 1, 10*grain + 3} {
		for _, workers := range []int{-1, 0, 1, 3, 64} {
			clamp := Workers(n, grain, workers)
			if clamp < 1 || clamp > limit || (n > 0 && clamp > (n+grain-1)/grain) {
				t.Fatalf("n=%d workers=%d: clamp %d outside [1, min(%d, ⌈n/grain⌉)]", n, workers, clamp, limit)
			}
			if workers > 0 && workers <= limit && clamp != min(workers, max((n+grain-1)/grain, 1)) {
				t.Fatalf("n=%d workers=%d: clamp %d ignores the request", n, workers, clamp)
			}
			visits := make([]atomic.Int32, n)
			var badWorker atomic.Int32
			Run(n, grain, workers, func(worker, lo, hi int) {
				if worker < 0 || worker >= clamp {
					badWorker.Store(int32(worker) + 1)
				}
				if hi-lo > grain || lo >= hi || lo%grain != 0 {
					t.Errorf("n=%d workers=%d: bad range [%d, %d)", n, workers, lo, hi)
				}
				for i := lo; i < hi; i++ {
					visits[i].Add(1)
				}
			})
			if w := badWorker.Load(); w != 0 {
				t.Fatalf("n=%d workers=%d: worker id %d not below clamp %d", n, workers, w-1, clamp)
			}
			for i := range visits {
				if c := visits[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, c)
				}
			}
		}
	}
}
