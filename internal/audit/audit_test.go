package audit

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"osdp/internal/journal/journaltest"
)

func event(analyst string, eps float64, outcome string) Event {
	return Event{
		RequestID: "0123456789abcdef",
		Analyst:   analyst,
		Dataset:   "people",
		Session:   "sess-1",
		Kind:      "workload",
		Eps:       eps,
		Outcome:   outcome,
	}
}

func TestNilLogIsNoOp(t *testing.T) {
	var l *Log
	if seq := l.Append(event("a", 0.5, OutcomeReleased)); seq != 0 {
		t.Fatalf("nil Append returned %d", seq)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.Recent(Filter{}); got != nil {
		t.Fatalf("nil Recent = %v", got)
	}
	if l.Durable() || l.Seq() != 0 {
		t.Fatal("nil log should be empty and not durable")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEventJSONGolden pins the audit JSONL schema: external consumers
// parse this file, so key names, casing, and omission rules must not
// drift silently.
func TestEventJSONGolden(t *testing.T) {
	e := Event{
		Seq:       7,
		Time:      time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC),
		RequestID: "0123456789abcdef",
		Analyst:   "a-1f2e3d4c",
		Dataset:   "people",
		Session:   "s-42",
		Kind:      "workload",
		Eps:       0.5,
		Outcome:   OutcomeReleased,
	}
	got, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"seq":7,"time":"2026-01-02T03:04:05Z","request_id":"0123456789abcdef",` +
		`"analyst":"a-1f2e3d4c","dataset":"people","session":"s-42",` +
		`"kind":"workload","eps":0.5,"outcome":"released"}`
	if string(got) != want {
		t.Fatalf("audit JSONL schema drifted:\n got %s\nwant %s", got, want)
	}
	// Optional fields are omitted, not emitted empty.
	minimal, err := json.Marshal(Event{Seq: 1, Time: e.Time, Dataset: "d", Kind: "count", Eps: 0.1, Outcome: OutcomeDenied})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"request_id", "analyst", "session"} {
		if strings.Contains(string(minimal), key) {
			t.Fatalf("empty %q not omitted: %s", key, minimal)
		}
	}
}

func TestAppendSyncReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, RingSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !l.Durable() {
		t.Fatal("directory-backed log should be durable")
	}
	outcomes := []string{OutcomeReleased, OutcomeRetained, OutcomeRefunded, OutcomeDenied}
	for i, o := range outcomes {
		if seq := l.Append(event("alice", 0.1*float64(i+1), o)); seq != uint64(i+1) {
			t.Fatalf("append %d assigned seq %d", i, seq)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var replayed []Event
	last, truncateTo, err := Replay(dir, func(e Event) error {
		replayed = append(replayed, e)
		return nil
	})
	if err != nil || truncateTo != -1 {
		t.Fatalf("replay: last=%d truncateTo=%d err=%v", last, truncateTo, err)
	}
	if last != 4 || len(replayed) != 4 {
		t.Fatalf("replayed %d events, last seq %d; want 4, 4", len(replayed), last)
	}
	for i, o := range outcomes {
		if replayed[i].Outcome != o || replayed[i].Analyst != "alice" {
			t.Fatalf("event %d = %+v", i, replayed[i])
		}
	}

	// Reopen continues the sequence and pre-fills the ring.
	l2, err := Open(Config{Dir: dir, RingSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Seq() != 4 {
		t.Fatalf("reopened seq %d, want 4", l2.Seq())
	}
	if got := l2.Recent(Filter{}); len(got) != 4 || got[0].Seq != 4 {
		t.Fatalf("reopened ring: %+v", got)
	}
	if seq := l2.Append(event("bob", 0.2, OutcomeReleased)); seq != 5 {
		t.Fatalf("append after reopen assigned seq %d, want 5", seq)
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestRecentFilters(t *testing.T) {
	l, err := Open(Config{RingSize: 4}) // in-memory
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 6; i++ {
		e := event("alice", 0.1, OutcomeReleased)
		if i%2 == 1 {
			e.Analyst = "bob"
		}
		e.Time = base.Add(time.Duration(i) * time.Minute)
		l.Append(e)
	}
	// Ring holds only the newest 4 (seqs 3..6), newest first.
	all := l.Recent(Filter{})
	if len(all) != 4 || all[0].Seq != 6 || all[3].Seq != 3 {
		t.Fatalf("ring contents: %+v", all)
	}
	if got := l.Recent(Filter{Analyst: "bob"}); len(got) != 2 {
		t.Fatalf("analyst filter: %+v", got)
	}
	if got := l.Recent(Filter{Since: base.Add(4 * time.Minute)}); len(got) != 2 {
		t.Fatalf("since filter: %+v", got)
	}
	if got := l.Recent(Filter{Until: base.Add(3 * time.Minute)}); len(got) != 2 {
		t.Fatalf("until filter: %+v", got)
	}
	if got := l.Recent(Filter{Limit: 1}); len(got) != 1 || got[0].Seq != 6 {
		t.Fatalf("limit: %+v", got)
	}
	if l.Durable() {
		t.Fatal("in-memory log must not report durable")
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditTornTailTruncated cuts the log at every byte offset of its
// final record: replay must either keep all events or drop exactly the
// torn final one, and Open must truncate and resume cleanly.
func TestAuditTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		l.Append(event("alice", 0.25, OutcomeReleased))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logFile)
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Offset where the final record starts.
	trimmed := strings.TrimRight(string(body), "\n")
	lastStart := strings.LastIndexByte(trimmed, '\n') + 1

	for cut := lastStart + 1; cut < len(body); cut++ {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, logFile), body[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantEvents := 2
		if cut == len(body) { // intact
			wantEvents = 3
		}
		n := 0
		last, truncateTo, err := Replay(sub, func(Event) error { n++; return nil })
		if err != nil {
			t.Fatalf("cut at %d: replay failed: %v", cut, err)
		}
		if n != wantEvents || last != uint64(wantEvents) {
			t.Fatalf("cut at %d: replayed %d events (last %d), want %d", cut, n, last, wantEvents)
		}
		if wantEvents == 2 && truncateTo != int64(lastStart) {
			t.Fatalf("cut at %d: truncateTo %d, want %d", cut, truncateTo, lastStart)
		}
		// Open truncates and appends cleanly on the damaged copy.
		l2, err := Open(Config{Dir: sub})
		if err != nil {
			t.Fatalf("cut at %d: open failed: %v", cut, err)
		}
		if seq := l2.Append(event("alice", 0.5, OutcomeRetained)); seq != uint64(wantEvents+1) {
			t.Fatalf("cut at %d: resumed seq %d", cut, seq)
		}
		if err := l2.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		if last, _, err := Replay(sub, nil); err != nil || last != uint64(wantEvents+1) {
			t.Fatalf("cut at %d: re-replay after resume: last %d err %v", cut, last, err)
		}
	}
}

func TestMidFileCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		l.Append(event("alice", 0.25, OutcomeReleased))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logFile)
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Mangle the FIRST record: that's corruption, not a torn tail.
	body[2] = 0xff
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Replay(dir, nil); err == nil {
		t.Fatal("mid-file corruption replayed without error")
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("mid-file corruption opened without error")
	}
}

func TestConcurrentAppendsGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Append(event(fmt.Sprintf("a-%d", w), 0.001, OutcomeReleased))
				if i%10 == 9 {
					if err := l.Sync(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	var prev uint64
	last, truncateTo, err := Replay(dir, func(e Event) error {
		if e.Seq != prev+1 {
			return fmt.Errorf("gap: %d after %d", e.Seq, prev)
		}
		prev = e.Seq
		n++
		return nil
	})
	if err != nil || truncateTo != -1 {
		t.Fatalf("replay: %v (truncateTo %d)", err, truncateTo)
	}
	if n != writers*each || last != uint64(writers*each) {
		t.Fatalf("replayed %d events, want %d", n, writers*each)
	}
}

// TestAuditCrashRecovery is the audit half of the CI crash smoke: a
// helper process appends events from concurrent goroutines, streaming
// "acked N" after each Sync; the parent SIGKILLs it mid-write and
// asserts replay keeps every acknowledged event (torn tail truncated,
// history parseable, sequence contiguous).
func TestAuditCrashRecovery(t *testing.T) {
	if dir := os.Getenv("OSDP_AUDIT_CRASH_DIR"); dir != "" {
		auditCrashHelper(dir)
		return
	}
	if testing.Short() {
		t.Skip("subprocess crash smoke skipped in -short")
	}
	dir := t.TempDir()
	var prev uint64
	for round := 0; round < 3; round++ {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestAuditCrashRecovery$")
		cmd.Env = append(os.Environ(), "OSDP_AUDIT_CRASH_DIR="+dir)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		ready := make(chan error, 1)
		ackCh := make(chan uint64, 4096)
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
				var n uint64
				if _, err := fmt.Sscanf(line, "acked %d", &n); err == nil {
					select {
					case ackCh <- n:
					default:
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
		<-scanDone
		_ = cmd.Wait()
		var lastAcked uint64
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

		// Replay must parse cleanly with a contiguous sequence and keep
		// at least every acknowledged event.
		var count uint64
		var prevSeq uint64
		last, _, err := Replay(dir, func(e Event) error {
			if e.Seq != prevSeq+1 {
				return fmt.Errorf("sequence gap: %d after %d", e.Seq, prevSeq)
			}
			prevSeq = e.Seq
			count++
			return nil
		})
		if err != nil {
			t.Fatalf("round %d: replay after crash failed: %v", round, err)
		}
		if last < prev {
			t.Fatalf("round %d: audit history went backwards: %d -> %d", round, prev, last)
		}
		if last < lastAcked {
			t.Fatalf("round %d: replay lost acknowledged events: last seq %d < acked %d", round, last, lastAcked)
		}
		// Open must also succeed (truncating any torn tail).
		l, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("round %d: open after crash failed: %v", round, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("round %d: replayed %d events (acked floor %d)", round, count, lastAcked)
		prev = last
	}
	if prev == 0 {
		t.Fatal("no events survived any crash round; helper never appended")
	}
}

// auditCrashHelper runs inside the subprocess: concurrent appenders
// plus a syncer that acknowledges progress, until SIGKILLed.
func auditCrashHelper(dir string) {
	l, err := Open(Config{Dir: dir})
	if err != nil {
		fmt.Printf("open failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("ready")
	// Each goroutine appends then blocks on Sync, so the SIGKILL lands
	// with writers parked mid-batch and the committer mid-write. After
	// Sync returns nil every event at or below seq is durable, so seq
	// is a valid acknowledgement floor.
	for w := 0; w < 8; w++ {
		go func(w int) {
			analyst := fmt.Sprintf("a-%d", w)
			for {
				seq := l.Append(event(analyst, 0.001, OutcomeReleased))
				if err := l.Sync(); err != nil {
					fmt.Printf("sync failed: %v\n", err)
					os.Exit(1)
				}
				fmt.Printf("acked %d\n", seq)
			}
		}(w)
	}
	select {} // appenders run until the parent kills the process
}

// TestSyncDuringCloseReportsCommitFailure: a Sync issued while Close is
// draining the last batch must wait for that batch's verdict and report
// its failure — not acknowledge an event that never became durable.
func TestSyncDuringCloseReportsCommitFailure(t *testing.T) {
	inSync, release := make(chan struct{}), make(chan struct{})
	fs := &journaltest.FS{Hook: func(op journaltest.Op) error {
		if op.Kind != "sync" {
			return nil
		}
		close(inSync)
		<-release
		return errors.New("injected fsync failure")
	}}
	l, err := Open(Config{Dir: t.TempDir(), fs: fs})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(event("alice", 0.5, OutcomeReleased))
	<-inSync // the committer is parked inside the batch's fsync

	closeErr := make(chan error, 1)
	go func() { closeErr <- l.Close() }()
	for closed := false; !closed; {
		l.mu.Lock()
		closed = l.closed
		l.mu.Unlock()
		runtime.Gosched()
	}
	syncErr := make(chan error, 1)
	go func() { syncErr <- l.Sync() }()
	close(release)
	if err := <-syncErr; err == nil {
		t.Fatal("Sync acknowledged an event whose fsync failed")
	}
	if err := <-closeErr; err == nil {
		t.Fatal("Close hid the failed final commit")
	}
}

// TestAuditCrashAtEveryWritePoint is the audit half of the ledger's
// crash scheme: the trail appends and syncs one event at a time, and
// for every file operation k it either fails operation k or crashes just
// before it (keeping only synced bytes under durable names). Every event
// whose Sync returned nil must replay, in order, with at most the one
// in-flight event after it.
func TestAuditCrashAtEveryWritePoint(t *testing.T) {
	const events = 6
	injected := errors.New("injected")
	run := func(k int, crash bool) (acked int, fs *journaltest.FS, dir, image string) {
		dir, image = t.TempDir(), t.TempDir()
		fs = &journaltest.FS{Hook: func(op journaltest.Op) error {
			if op.N == k && crash {
				if err := fs.Crash(image); err != nil {
					t.Errorf("writing crash image: %v", err)
				}
			}
			if op.N == k || (crash && op.N > k) {
				return injected
			}
			return nil
		}}
		l, err := Open(Config{Dir: dir, fs: fs})
		if err != nil {
			return 0, fs, dir, image
		}
		for i := 0; i < events; i++ {
			l.Append(event(fmt.Sprintf("a-%d", i), 0.001, OutcomeReleased))
			if l.Sync() == nil {
				acked++
			}
		}
		l.Close()
		return acked, fs, dir, image
	}
	check := func(what, dir string, acked int) {
		t.Helper()
		n := 0
		_, _, err := Replay(dir, func(e Event) error {
			if e.Seq != uint64(n+1) || e.Analyst != fmt.Sprintf("a-%d", n) {
				return fmt.Errorf("event %d replayed as %+v", n+1, e)
			}
			n++
			return nil
		})
		if err != nil {
			t.Errorf("%s: replay: %v", what, err)
		} else if n < acked || n > acked+1 {
			t.Errorf("%s: %d events acknowledged, %d replayed", what, acked, n)
		}
		l, err := Open(Config{Dir: dir})
		if err != nil {
			t.Errorf("%s: reopen: %v", what, err)
			return
		}
		l.Close()
	}

	acked, fs, _, _ := run(0, false)
	if acked != events {
		t.Fatalf("clean run acknowledged %d of %d events", acked, events)
	}
	for k := 1; k <= fs.Ops(); k++ {
		acked, ffs, dir, image := run(k, false)
		check(fmt.Sprintf("op %d failed, live dir", k), dir, acked)
		if err := ffs.Crash(image); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("op %d failed, then crash", k), image, acked)
		acked, _, _, image = run(k, true)
		check(fmt.Sprintf("crash before op %d", k), image, acked)
	}
}
