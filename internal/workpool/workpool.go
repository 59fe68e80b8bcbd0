// Package workpool holds the tree's one index-range fan-out: the
// attribution join, the table builders and the Atlas campaigns all
// split [0, n) into ranges claimed from a shared counter by a bounded
// set of workers. Callers write each index's result into its own slot,
// or into per-worker accumulators merged afterwards, so no result can
// depend on the worker count or on scheduling.
package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the pool size Run uses for n items claimed grain at a
// time: the requested count (2×GOMAXPROCS when workers ≤ 0), never
// above 2×GOMAXPROCS — a little headroom over the core count hides
// stragglers — nor above the ⌈n/grain⌉ ranges there are to claim, and
// never below 1. Callers size per-worker state with it. That headroom
// keeps every P's run queue full, and a P polls the network only when
// it has nothing else to run: a goroutine waiting on sockets in the
// same process then waits for sysmon's poll (about every 10 ms), so
// such a caller must leave it a P of its own (see FullReport's slots in
// internal/experiments).
func Workers(n, grain, workers int) int {
	limit := 2 * runtime.GOMAXPROCS(0)
	if workers <= 0 || workers > limit {
		workers = limit
	}
	if ranges := (n + grain - 1) / grain; workers > ranges {
		workers = ranges
	}
	return max(workers, 1)
}

// Run calls fn(worker, lo, hi) for consecutive ranges [lo, hi) of at
// most grain (> 0) items that together cover [0, n) exactly once, and
// returns when every call has. Workers(n, grain, workers) goroutines
// claim the ranges in ascending order from one atomic counter; worker
// is the claiming goroutine's id in [0, Workers(n, grain, workers)), so
// fn may keep per-worker state in a slice of that length without locks.
// To stop early, fn returns without doing its range's work.
func Run(n, grain, workers int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers(n, grain, workers)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(w)
	for id := 0; id < w; id++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				fn(id, lo, min(lo+grain, n))
			}
		}()
	}
	wg.Wait()
}
