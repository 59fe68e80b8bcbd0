package sharded

import (
	"slices"
	"sync"
	"testing"
)

// TestValuesReturnsEveryValueOnce stores keys that spread over every
// shard and requires Values to return each stored value exactly once,
// including after a replacing Store, a refused LoadOrStore and a
// Delete.
func TestValuesReturnsEveryValueOnce(t *testing.T) {
	const n = 1000
	tbl := New[uint32, uint32](4, HashUint32)
	for k := uint32(0); k < n; k++ {
		tbl.Store(k, k)
	}
	tbl.Store(7, 7) // replace: still one entry
	if v, loaded := tbl.LoadOrStore(8, 0); !loaded || v != 8 {
		t.Fatalf("LoadOrStore(8) = %d, %v; want the stored 8, true", v, loaded)
	}
	if _, ok := tbl.Delete(9); !ok {
		t.Fatal("Delete(9) found nothing")
	}
	used := 0
	for i := range tbl.shards {
		if len(tbl.shards[i].m) > 0 {
			used++
		}
	}
	if used != len(tbl.shards) {
		t.Fatalf("keys reached %d of %d shards", used, len(tbl.shards))
	}

	got := tbl.Values()
	slices.Sort(got)
	var want []uint32
	for k := uint32(0); k < n; k++ {
		if k != 9 {
			want = append(want, k)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Values returned %d values, want %d each once", len(got), len(want))
	}
	if tbl.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", tbl.Len(), len(want))
	}
}

// TestChaosShardedTableChurn hammers one table from concurrent owners
// of disjoint key ranges: the per-shard locking must keep every range
// intact (and the race detector quiet) through store/load/delete
// churn.
func TestChaosShardedTableChurn(t *testing.T) {
	const (
		workers = 8
		perW    = 2048
	)
	tbl := New[uint32, uint32](16, HashUint32)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint32(w * perW)
			for k := base; k < base+perW; k++ {
				tbl.Store(k, k)
			}
			for k := base; k < base+perW; k++ {
				v, ok := tbl.Load(k)
				if !ok || v != k {
					t.Errorf("worker %d key %d: got %v %v", w, k, v, ok)
					return
				}
			}
			for k := base; k < base+perW; k += 2 {
				tbl.Delete(k)
			}
		}(w)
	}
	wg.Wait()
	if got, want := tbl.Len(), workers*perW/2; got != want {
		t.Fatalf("Len after churn = %d, want %d", got, want)
	}
	vals := tbl.Values()
	for _, v := range vals {
		if v%2 == 0 {
			t.Fatalf("deleted key %d still present", v)
		}
	}
	if len(vals) != tbl.Len() {
		t.Fatalf("Values returned %d entries, Len reports %d", len(vals), tbl.Len())
	}
}
