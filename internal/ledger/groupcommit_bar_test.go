package ledger

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestGroupCommitSpeedupBar enforces the group-commit acceptance bar:
// at 64 concurrent analysts the fsync'd charge path must deliver ≥20x
// the throughput of serial fsync'd charges. It needs real parallelism
// to mean anything: with too few cores the waiters cannot overlap the
// committer, so the bar self-skips below 4 CPUs and CI enforces it on
// the multi-core runner.
func TestGroupCommitSpeedupBar(t *testing.T) {
	if testing.Short() {
		t.Skip("group-commit bar skipped in -short")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("group-commit bar needs >=4 CPUs, have %d", runtime.NumCPU())
	}
	serial := fsyncChargeNs(t, 1, 250)
	c64 := fsyncChargeNs(t, 64, 50)
	speedup := serial / c64
	t.Logf("wal+fsync %.1f µs/op serial, %.1f µs/op ×64 (group commit %.1fx)", serial/1e3, c64/1e3, speedup)
	if speedup < 20 {
		t.Fatalf("group-commit speedup %.1fx at 64 analysts, bar is 20x (serial fsync %.1f µs/op, ×64 %.1f µs/op)",
			speedup, serial/1e3, c64/1e3)
	}
}

// TestFsyncChargeTimingSmoke runs the bar's measurement at tiny scale
// on every machine, so the code cannot rot where the bar skips itself,
// and checks that every timed charge landed on its own account.
func TestFsyncChargeTimingSmoke(t *testing.T) {
	if ns := fsyncChargeNs(t, 4, 5); ns <= 0 {
		t.Fatalf("non-positive ns/op %v", ns)
	}
}

// fsyncChargeNs times the fsync'd charge path on a fresh durable
// ledger: analysts goroutines, released together so the burst
// overlaps, each make opsEach charges to a DISTINCT account, so the
// only shared resource is the group-commit queue. It returns wall-clock
// ns per charge. Every account is warmed outside the timed region, and
// each must end with exactly opsEach+1 charges.
func fsyncChargeNs(t *testing.T, analysts, opsEach int) float64 {
	t.Helper()
	l := mem(t, Config{Dir: t.TempDir()})
	info, _, err := l.CreateAnalyst("bench", 0)
	if err != nil {
		t.Fatal(err)
	}
	charge := g(1e-9)
	datasets := make([]string, analysts)
	for w := range datasets {
		datasets[w] = fmt.Sprintf("d%03d", w)
		if err := l.Charge(info.ID, datasets[w], charge); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, analysts)
	var start, wg sync.WaitGroup
	start.Add(1)
	for _, ds := range datasets {
		wg.Add(1)
		go func(ds string) {
			defer wg.Done()
			start.Wait()
			for i := 0; i < opsEach; i++ {
				if err := l.Charge(info.ID, ds, charge); err != nil {
					errs <- err
					return
				}
			}
		}(ds)
	}
	begin := time.Now()
	start.Done()
	wg.Wait()
	elapsed := time.Since(begin)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, ds := range datasets {
		acc, err := l.Account(info.ID, ds)
		if err != nil {
			t.Fatal(err)
		}
		if acc.Charges != uint64(opsEach+1) {
			t.Fatalf("account %s: %d charges, want %d", ds, acc.Charges, opsEach+1)
		}
	}
	return float64(elapsed.Nanoseconds()) / float64(analysts*opsEach)
}
