package dataset

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// withWorkers runs f under a given scan-worker setting, restoring the
// previous setting afterwards.
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	prev := ScanWorkers()
	SetScanWorkers(n)
	defer SetScanWorkers(prev)
	f()
}

// sameBits reports whether two bitsets are bit-identical (length and
// every word).
func sameBits(a, b *Bitset) bool {
	if a.n != b.n || len(a.words) != len(b.words) {
		return false
	}
	for i := range a.words {
		if a.words[i] != b.words[i] {
			return false
		}
	}
	return true
}

// TestParallelRowsCoversEveryRowOnce checks the dispatch invariant every
// pass relies on: chunk windows partition [0, rows) exactly, whatever
// the worker count.
func TestParallelRowsCoversEveryRowOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, rows := range []int{0, 1, 63, 64, chunkRows - 1, chunkRows, chunkRows + 1, 3*chunkRows + 17} {
			withWorkers(t, workers, func() {
				hits := make([]int32, rows)
				ParallelRows(rows, func(w, lo, hi int) {
					if lo < 0 || hi > rows || lo >= hi {
						t.Errorf("workers=%d rows=%d: bad window [%d, %d)", workers, rows, lo, hi)
					}
					if w < 0 || w >= MaxScanWorkers {
						t.Errorf("workers=%d rows=%d: worker slot %d out of range", workers, rows, w)
					}
					if lo%chunkRows != 0 {
						t.Errorf("workers=%d rows=%d: window start %d not chunk-aligned", workers, rows, lo)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d rows=%d: row %d visited %d times", workers, rows, i, h)
					}
				}
			})
		}
	}
}

// TestParallelRowsPanicPropagates checks a worker panic is re-raised on
// the calling goroutine and does not wedge the pool for later scans.
func TestParallelRowsPanicPropagates(t *testing.T) {
	withWorkers(t, 4, func() {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("panic in chunk fn was swallowed")
				}
			}()
			ParallelRows(4*chunkRows, func(_, lo, _ int) {
				if lo == 0 {
					panic("boom")
				}
			})
		}()
		// The pool must still work after the panic.
		var n atomic.Int64
		ParallelRows(2*chunkRows, func(_, lo, hi int) { n.Add(int64(hi - lo)) })
		if got := n.Load(); got != 2*chunkRows {
			t.Fatalf("post-panic scan covered %d rows, want %d", got, 2*chunkRows)
		}
	})
}

// TestSetScanWorkersClamps pins the configuration bounds.
func TestSetScanWorkersClamps(t *testing.T) {
	prev := ScanWorkers()
	defer SetScanWorkers(prev)
	if got := SetScanWorkers(0); got != 1 {
		t.Fatalf("SetScanWorkers(0) = %d, want 1", got)
	}
	if got := SetScanWorkers(1 << 20); got != MaxScanWorkers {
		t.Fatalf("SetScanWorkers(1<<20) = %d, want %d", got, MaxScanWorkers)
	}
	if got := SetScanWorkers(3); got != 3 || ScanWorkers() != 3 {
		t.Fatalf("SetScanWorkers(3) = %d / ScanWorkers() = %d, want 3/3", got, ScanWorkers())
	}
	// Parallelism never exceeds the chunk count.
	SetScanWorkers(8)
	if got := ScanParallelism(chunkRows); got != 1 {
		t.Fatalf("ScanParallelism(one chunk) = %d, want 1 (serial)", got)
	}
	if got := ScanParallelism(2*chunkRows + 1); got != 3 {
		t.Fatalf("ScanParallelism(2 chunks + 1 row) = %d, want 3", got)
	}
}

// TestParallelSelectDifferential pins the tentpole guarantee: Select and
// SplitBits produce BIT-IDENTICAL results under every worker count, on
// multi-chunk tables, over fuzzed predicates — opaque-free trees of
// every comparison shape, against values of every kind.
func TestParallelSelectDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chunk differential tables are slow to build")
	}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := 2*chunkRows + rng.Intn(chunkRows) // 2–3 chunks
		tb := randomTable(rng, rows)
		for round := 0; round < 6; round++ {
			pred := randomPredicate(rng, 3)

			var serial, parallel *Bitset
			withWorkers(t, 1, func() { serial = tb.Select(pred) })
			for _, workers := range []int{2, 8} {
				withWorkers(t, workers, func() { parallel = tb.Select(pred) })
				if !sameBits(serial, parallel) {
					t.Fatalf("seed %d round %d: Select(%s) differs between 1 and %d workers",
						seed, round, pred, workers)
				}
			}

			// SplitBits: distinct policy names defeat the split cache so
			// each worker count really recomputes the partition.
			var sSens, sNS, pSens, pNS *Bitset
			withWorkers(t, 1, func() {
				sSens, sNS = tb.SplitBits(NewPolicy(fmt.Sprintf("serial-%d-%d", seed, round), pred))
			})
			withWorkers(t, 8, func() {
				pSens, pNS = tb.SplitBits(NewPolicy(fmt.Sprintf("parallel-%d-%d", seed, round), pred))
			})
			if !sameBits(sSens, pSens) || !sameBits(sNS, pNS) {
				t.Fatalf("seed %d round %d: SplitBits(%s) differs between 1 and 8 workers", seed, round, pred)
			}
		}

		// Views: a filtered multi-chunk subset takes the view-relative
		// path (vectorized leaves + parallel projection).
		sub := tb.Filter(Cmp("I", OpNe, Int(0)))
		pred := randomPredicate(rng, 3)
		var serial, parallel *Bitset
		withWorkers(t, 1, func() { serial = sub.Select(pred) })
		withWorkers(t, 8, func() { parallel = sub.Select(pred) })
		if !sameBits(serial, parallel) {
			t.Fatalf("seed %d: view Select(%s) differs between 1 and 8 workers", seed, pred)
		}
	}
}

// TestParallelSelectMatchesRowEval spot-checks the parallel result
// against the row-at-a-time reference on a multi-chunk table, closing
// the loop serial-vs-parallel differential testing alone leaves open.
func TestParallelSelectMatchesRowEval(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chunk differential tables are slow to build")
	}
	rng := rand.New(rand.NewSource(42))
	tb := randomTable(rng, 2*chunkRows+123)
	pred := And(
		Cmp("I", OpGe, Int(-1)),
		Or(Cmp("S", OpEq, Str("a")), Cmp("F", OpLt, Float(1))),
	)
	withWorkers(t, 8, func() {
		bits := tb.Select(pred)
		// Every 997th row plus the chunk boundaries, where an off-by-one
		// would live.
		check := func(i int) {
			if bits.Get(i) != pred.Eval(tb.Record(i)) {
				t.Fatalf("row %d: parallel Select disagrees with Predicate.Eval", i)
			}
		}
		for i := 0; i < tb.Len(); i += 997 {
			check(i)
		}
		for _, i := range []int{0, chunkRows - 1, chunkRows, 2*chunkRows - 1, 2 * chunkRows, tb.Len() - 1} {
			check(i)
		}
	})
}

// TestParallelSelectConcurrentQueries runs many Selects from racing
// goroutines with the pool engaged — the serving shape (N HTTP queries
// sharing one table) — and checks every result. Run with -race in CI.
func TestParallelSelectConcurrentQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chunk differential tables are slow to build")
	}
	rng := rand.New(rand.NewSource(7))
	tb := randomTable(rng, 2*chunkRows+55)
	preds := make([]Predicate, 4)
	want := make([]*Bitset, len(preds))
	withWorkers(t, 1, func() {
		for i := range preds {
			preds[i] = randomPredicate(rng, 3)
			want[i] = tb.Select(preds[i])
		}
	})
	withWorkers(t, 8, func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range preds {
					if got := tb.Select(preds[i]); !sameBits(got, want[i]) {
						t.Errorf("goroutine %d: concurrent Select(%s) wrong", g, preds[i])
					}
				}
			}(g)
		}
		wg.Wait()
	})
}
