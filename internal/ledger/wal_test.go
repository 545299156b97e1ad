package ledger

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"osdp/internal/core"
)

// reopen closes l and opens a fresh ledger over the same directory.
func reopen(t *testing.T, l *Ledger, cfg Config) *Ledger {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l2.Close() })
	return l2
}

func TestReplayRestoresSpend(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), DefaultBudget: 2}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, key, err := l.CreateAnalyst("alice", 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Charge(a.ID, "people", g(0.75)); err != nil {
		t.Fatal(err)
	}
	if err := l.Charge(a.ID, "people", g(0.5)); err != nil {
		t.Fatal(err)
	}
	if err := l.Refund(a.ID, "people", g(0.5)); err != nil {
		t.Fatal(err)
	}
	if err := l.SetBudget(a.ID, "census", 3); err != nil {
		t.Fatal(err)
	}

	l = reopen(t, l, cfg)

	// Identity survives: the same key authenticates, with the same caps.
	got, err := l.Authenticate(key)
	if err != nil || got.ID != a.ID || got.SessionCap != 5 {
		t.Fatalf("replayed authenticate: %+v, %v", got, err)
	}
	// Spend survives: 0.75 charged, the 0.5 was refunded.
	acct, err := l.Account(a.ID, "people")
	if err != nil || math.Abs(acct.Spent-0.75) > 1e-12 {
		t.Fatalf("replayed account %+v, %v", acct, err)
	}
	if acct.Charges != 2 {
		t.Fatalf("replayed charge count %d, want 2", acct.Charges)
	}
	// Explicit grants survive.
	acct, err = l.Account(a.ID, "census")
	if err != nil || acct.Budget != 3 {
		t.Fatalf("replayed grant %+v, %v", acct, err)
	}
	// The replayed budget still binds: 0.75 spent of 2 leaves 1.25.
	if err := l.Charge(a.ID, "people", g(1.5)); !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("over-budget after replay: got %v, want ErrBudgetExceeded", err)
	}
	if err := l.Charge(a.ID, "people", g(1.0)); err != nil {
		t.Fatalf("in-budget charge after replay: %v", err)
	}
}

func TestSnapshotCompactionEquivalence(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), DefaultBudget: 100, SnapshotEvery: 10}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := l.CreateAnalyst("alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	// 35 charges with SnapshotEvery=10 forces at least 3 compactions.
	want := 0.0
	for i := 0; i < 35; i++ {
		eps := 0.01 * float64(i%5+1)
		if err := l.Charge(a.ID, "d", g(eps)); err != nil {
			t.Fatal(err)
		}
		want += eps
	}
	if _, err := os.Stat(filepath.Join(cfg.Dir, snapshotFile)); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}
	// The WAL must have been truncated at the last compaction — it holds
	// at most SnapshotEvery lines, not all 35+.
	if n := countWALLines(t, cfg.Dir); n > 10 {
		t.Fatalf("WAL holds %d lines after compaction, want <= 10", n)
	}

	l = reopen(t, l, cfg)
	acct, err := l.Account(a.ID, "d")
	if err != nil || math.Abs(acct.Spent-want) > 1e-9 {
		t.Fatalf("snapshot+WAL replay spent %g, want %g (%v)", acct.Spent, want, err)
	}
	if acct.Charges != 35 {
		t.Fatalf("replayed charge count %d, want 35", acct.Charges)
	}
}

func countWALLines(t *testing.T, dir string) int {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			n++
		}
	}
	return n
}

// TestSnapshotBoundaryKeepsTriggeringRecord pins the writer ordering
// rule: with SnapshotEvery=1 EVERY append lands on a compaction
// boundary, so any record applied to memory only after its append would
// be built out of the snapshot yet covered by its seq — and silently
// truncated away. Analyst creation, disable (key revocation!), budget
// grants, charges, and refunds must all survive.
func TestSnapshotBoundaryKeepsTriggeringRecord(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), DefaultBudget: 5, SnapshotEvery: 1}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, keyA, err := l.CreateAnalyst("alice", 3)
	if err != nil {
		t.Fatal(err)
	}
	b, keyB, err := l.CreateAnalyst("bob", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Charge(a.ID, "d", g(0.5)); err != nil {
		t.Fatal(err)
	}
	if err := l.SetBudget(a.ID, "other", 2); err != nil {
		t.Fatal(err)
	}
	if err := l.SetDisabled(b.ID, true); err != nil {
		t.Fatal(err)
	}

	l = reopen(t, l, cfg)

	if got, err := l.Authenticate(keyA); err != nil || got.SessionCap != 3 {
		t.Fatalf("alice lost at snapshot boundary: %+v, %v", got, err)
	}
	// Bob's REVOCATION must survive — a dropped disable record re-arms
	// a revoked key.
	if _, err := l.Authenticate(keyB); !errors.Is(err, ErrDisabled) {
		t.Fatalf("bob's revocation lost at snapshot boundary: %v", err)
	}
	acct, err := l.Account(a.ID, "d")
	if err != nil || math.Abs(acct.Spent-0.5) > 1e-12 {
		t.Fatalf("charge lost at snapshot boundary: %+v, %v", acct, err)
	}
	acct, err = l.Account(a.ID, "other")
	if err != nil || acct.Budget != 2 {
		t.Fatalf("grant lost at snapshot boundary: %+v, %v", acct, err)
	}
}

// TestDefaultBudgetRebindsOnReopen: only explicit grants replay their
// snapshotted budget; accounts on the config default re-resolve against
// the CURRENT default, so tightening -default-analyst-eps reaches them.
func TestDefaultBudgetRebindsOnReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, DefaultBudget: 1.0, SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := l.CreateAnalyst("alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Charge(a.ID, "defaulted", g(0.2)); err != nil {
		t.Fatal(err)
	}
	if err := l.SetBudget(a.ID, "granted", 3); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a TIGHTER default.
	l, err = Open(Config{Dir: dir, DefaultBudget: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	acct, err := l.Account(a.ID, "defaulted")
	if err != nil || acct.Budget != 0.25 {
		t.Fatalf("default account kept stale budget: %+v, %v", acct, err)
	}
	// Spend already exceeds the tightened default: frozen, not erased.
	if math.Abs(acct.Spent-0.2) > 1e-12 || acct.Remaining > 0.05+1e-12 {
		t.Fatalf("tightened default account state: %+v", acct)
	}
	if err := l.Charge(a.ID, "defaulted", g(0.1)); !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("tightened default not enforced: %v", err)
	}
	// The explicit grant is untouched by the default change.
	acct, err = l.Account(a.ID, "granted")
	if err != nil || acct.Budget != 3 {
		t.Fatalf("explicit grant lost its budget: %+v, %v", acct, err)
	}
}

// TestTornTailTolerated truncates the WAL at every byte offset of its
// final record and proves replay (a) always succeeds and (b) never
// reports more spend than the acknowledged total — the spent ε is
// monotone in how much of the log survived.
func TestTornTailTolerated(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), DefaultBudget: 10}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := l.CreateAnalyst("alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Charge(a.ID, "d", g(0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(cfg.Dir, walFile))
	if err != nil {
		t.Fatal(err)
	}

	// Truncation points: everywhere inside the last line, plus exactly at
	// the end.
	lastLineStart := strings.LastIndex(strings.TrimRight(string(full), "\n"), "\n") + 1
	prev := -1.0
	for cut := lastLineStart; cut <= len(full); cut++ {
		dir2 := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir2, walFile), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cfg2 := Config{Dir: dir2, DefaultBudget: 10}
		l2, err := Open(cfg2)
		if err != nil {
			t.Fatalf("cut at %d: open failed: %v", cut, err)
		}
		spent := l2.TotalSpent()
		l2.Close()
		if spent > 2.5+1e-12 {
			t.Fatalf("cut at %d: spent %g exceeds acknowledged 2.5", cut, spent)
		}
		if spent < prev-1e-12 {
			t.Fatalf("cut at %d: spent %g < %g at shorter prefix — not monotone", cut, spent, prev)
		}
		prev = spent
	}
	if math.Abs(prev-2.5) > 1e-12 {
		t.Fatalf("full log replays %g, want 2.5", prev)
	}
}

// TestTornTailTruncatedBeforeAppend is the double-crash regression: a
// torn tail must be cut off at Open, BEFORE new records are appended.
// Otherwise the next acknowledged record merges into the fragment's
// line, and a second restart drops it as a "torn tail" — losing
// fsync'd, acknowledged spend. The tails tried are every cut inside a
// real final record, including the cut that removes only its '\n' (the
// record is committed only once its newline is on disk), plus a foreign
// fragment after an intact log.
func TestTornTailTruncatedBeforeAppend(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), DefaultBudget: 10}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := l.CreateAnalyst("alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := l.Charge(a.ID, "d", g(0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(cfg.Dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	lastStart := strings.LastIndex(strings.TrimRight(string(full), "\n"), "\n") + 1
	var tails [][]byte
	for cut := lastStart + 1; cut < len(full); cut++ {
		tails = append(tails, full[:cut])
	}
	// Crash artifact: half a record, no trailing newline.
	tails = append(tails, append(append([]byte(nil), full...), `{"seq":99,"kind":"char`...))

	for _, body := range tails {
		cfg := Config{Dir: t.TempDir(), DefaultBudget: 10}
		if err := os.WriteFile(filepath.Join(cfg.Dir, walFile), body, 0o644); err != nil {
			t.Fatal(err)
		}
		// Restart 1: tolerates the torn tail, serves what it replayed as
		// spent, and acknowledges a NEW charge.
		l, err := Open(cfg)
		if err != nil {
			t.Fatalf("%d-byte log: restart 1: %v", len(body), err)
		}
		before := l.TotalSpent()
		if before < 0.5-1e-12 {
			t.Fatalf("%d-byte log: restart 1 replayed %g, lost the intact 0.5 charge", len(body), before)
		}
		if err := l.Charge(a.ID, "d", g(0.5)); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// Restart 2: everything restart 1 served plus the acknowledged
		// charge must survive — the new record on its own line, not
		// swallowed by the fragment.
		l, err = Open(cfg)
		if err != nil {
			t.Fatalf("%d-byte log: restart 2: %v", len(body), err)
		}
		after := l.TotalSpent()
		l.Close()
		if math.Abs(after-(before+0.5)) > 1e-12 {
			t.Fatalf("%d-byte log: restart 2 replayed %g, want %g — acknowledged spend was lost", len(body), after, before+0.5)
		}
	}
}

// TestMidFileCorruptionRefused: a mangled line that is NOT the tail is
// corruption, not a crash artifact — Open must fail closed rather than
// serve a ledger that may under-count.
func TestMidFileCorruptionRefused(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), DefaultBudget: 10}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := l.CreateAnalyst("alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := l.Charge(a.ID, "d", g(0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(cfg.Dir, walFile)
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the SECOND line mid-record — a structurally invalid JSON
	// line that is not the tail. (Flipping a byte inside a string value
	// would NOT do: encoding/json silently repairs invalid UTF-8.)
	lines := strings.SplitAfter(string(body), "\n")
	if len(lines) < 4 {
		t.Fatalf("expected >= 4 WAL lines, got %d", len(lines))
	}
	lines[1] = lines[1][:len(lines[1])/2] + "\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(cfg); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("open over mid-file corruption: got %v, want corruption error", err)
	}
}

// TestLedgerCrashRecovery is the CI crash smoke: a helper process (this
// test binary re-exec'd) charges in a tight loop until it is SIGKILLed
// mid-write; the parent then replays the directory and asserts the
// ledger opens cleanly and its spent ε is monotone across crash rounds.
func TestLedgerCrashRecovery(t *testing.T) {
	if dir := os.Getenv("OSDP_LEDGER_CRASH_DIR"); dir != "" {
		crashHelper(dir)
		return
	}
	if testing.Short() {
		t.Skip("subprocess crash smoke skipped in -short")
	}
	dir := t.TempDir()
	prev := 0.0
	for round := 0; round < 3; round++ {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestLedgerCrashRecovery$")
		cmd.Env = append(os.Environ(), "OSDP_LEDGER_CRASH_DIR="+dir)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// The helper charges from 8 concurrent goroutines (so the SIGKILL
		// lands mid-batch with writers in flight) and streams "acked N"
		// progress lines; the last one read before the kill is a floor on
		// what replay must recover — no acknowledged charge may be lost.
		ready := make(chan error, 1)
		ackCh := make(chan int, 4096)
		scanDone := make(chan struct{})
		go func() {
			defer close(scanDone)
			sc := bufio.NewScanner(stdout)
			first := true
			for sc.Scan() {
				line := sc.Text()
				if first {
					first = false
					if line != "ready" {
						ready <- fmt.Errorf("unexpected first line %q", line)
						return
					}
					ready <- nil
					continue
				}
				var n int
				if _, err := fmt.Sscanf(line, "acked %d", &n); err == nil {
					select {
					case ackCh <- n:
					default: // parent lagging; newer acks follow
					}
				}
			}
		}()
		select {
		case err := <-ready:
			if err != nil {
				t.Fatalf("round %d: helper never became ready: %v", round, err)
			}
		case <-time.After(30 * time.Second):
			_ = cmd.Process.Kill()
			t.Fatalf("round %d: helper timed out", round)
		}
		time.Sleep(time.Duration(5+round*7) * time.Millisecond)
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		// Drain the scanner to EOF BEFORE Wait (Wait closes the pipe),
		// keeping the freshest ack floor the helper managed to report.
		<-scanDone
		_ = cmd.Wait() // exit status is the kill signal; ignore
		lastAcked := 0
		for loop := true; loop; {
			select {
			case n := <-ackCh:
				if n > lastAcked {
					lastAcked = n
				}
			default:
				loop = false
			}
		}

		l, err := Open(Config{Dir: dir, DefaultBudget: 0})
		if err != nil {
			t.Fatalf("round %d: replay after crash failed: %v", round, err)
		}
		spent := l.TotalSpent()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if spent < prev-1e-12 {
			t.Fatalf("round %d: spent ε went backwards: %g -> %g", round, prev, spent)
		}
		// The floor: prior rounds' replayed spend plus every charge this
		// round's helper acknowledged before the kill. Unacknowledged
		// records may legitimately land ABOVE the floor (over-count, never
		// under).
		floor := prev + 0.001*float64(lastAcked) - 1e-9
		if spent < floor {
			t.Fatalf("round %d: replay lost acknowledged charges: spent %g < floor %g (prev %g + %d acked × 0.001)",
				round, spent, floor, prev, lastAcked)
		}
		t.Logf("round %d: replayed spent ε = %g (previous %g, acked floor %d charges)", round, spent, prev, lastAcked)
		prev = spent
	}
	if prev == 0 {
		t.Fatal("no spend survived any crash round; helper never charged")
	}
}

// crashHelper runs in the child process: open (replaying prior rounds),
// ensure a principal exists, then charge from 8 concurrent goroutines —
// so the parent's SIGKILL lands mid-group-commit-batch with writers in
// flight — until killed. It prints "ready\n" once charging has begun,
// then "acked N" progress lines counting charges that have RETURNED
// (durable, acknowledged); the parent uses the last one as the replay
// floor.
func crashHelper(dir string) {
	l, err := Open(Config{Dir: dir, SnapshotEvery: 64})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash helper open:", err)
		os.Exit(1)
	}
	analysts := l.Analysts()
	var id string
	if len(analysts) > 0 {
		id = analysts[0].ID
	} else {
		info, _, err := l.CreateAnalyst("crash-dummy", 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crash helper create:", err)
			os.Exit(1)
		}
		id = info.ID
	}
	charge := g(0.001)
	var acked atomic.Uint64
	// First charge before "ready" so even an instant kill leaves state.
	if err := l.Charge(id, "d0", charge); err != nil {
		fmt.Fprintln(os.Stderr, "crash helper charge:", err)
		os.Exit(1)
	}
	acked.Add(1)
	fmt.Println("ready")
	for w := 0; w < 8; w++ {
		go func(w int) {
			ds := fmt.Sprintf("d%d", w)
			for {
				if err := l.Charge(id, ds, charge); err != nil {
					fmt.Fprintln(os.Stderr, "crash helper charge:", err)
					os.Exit(1)
				}
				acked.Add(1)
			}
		}(w)
	}
	for {
		fmt.Println("acked", acked.Load())
		time.Sleep(time.Millisecond)
	}
}
