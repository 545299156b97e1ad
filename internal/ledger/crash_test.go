package ledger

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"osdp/internal/journal/journaltest"
)

// crashStep is one step of the scripted crash workload; ids maps analyst
// names to the ids CreateAnalyst returned.
type crashStep func(l *Ledger, ids map[string]string) error

// crashWorkload creates analysts, charges, refunds, grants and disables;
// with SnapshotEvery 3 its records cross three snapshot installs. The
// refunded charge is the only one on its account, so it still matches
// after a compaction folds it into an aggregate.
var crashWorkload = []crashStep{
	func(l *Ledger, ids map[string]string) error { return createNamed(l, ids, "alice") },
	func(l *Ledger, ids map[string]string) error { return l.Charge(ids["alice"], "d", g(0.5)) },
	func(l *Ledger, ids map[string]string) error { return l.Charge(ids["alice"], "r", g(0.25)) },
	func(l *Ledger, ids map[string]string) error { return l.Refund(ids["alice"], "r", g(0.25)) },
	func(l *Ledger, ids map[string]string) error { return l.SetBudget(ids["alice"], "d", 3) },
	func(l *Ledger, ids map[string]string) error { return createNamed(l, ids, "bob") },
	func(l *Ledger, ids map[string]string) error { return l.Charge(ids["bob"], "d", g(0.125)) },
	func(l *Ledger, ids map[string]string) error { return l.SetDisabled(ids["bob"], true) },
	func(l *Ledger, ids map[string]string) error { return l.Charge(ids["alice"], "d", g(0.0625)) },
	func(l *Ledger, ids map[string]string) error { return l.Charge(ids["alice"], "d", g(0.5)) },
}

func createNamed(l *Ledger, ids map[string]string, name string) error {
	info, _, err := l.CreateAnalyst(name, 0)
	if err == nil {
		ids[name] = info.ID
	}
	return err
}

// ledgerState renders everything replay must restore, keyed by analyst
// name (ids differ between runs). The workload's ε are dyadic, so sums
// are exact.
func ledgerState(l *Ledger) string {
	names := map[string]string{}
	var lines []string
	for _, a := range l.Analysts() {
		names[a.ID] = a.Name
		lines = append(lines, fmt.Sprintf("analyst %s disabled=%v", a.Name, a.Disabled))
	}
	for _, a := range l.Accounts() {
		lines = append(lines, fmt.Sprintf("account %s/%s budget=%g spent=%g charges=%d",
			names[a.Analyst], a.Dataset, a.Budget, a.Spent, a.Charges))
	}
	sort.Strings(lines)
	return strings.Join(lines, "; ")
}

// TestCrashAtEveryWritePoint runs the scripted workload once per file
// operation k — every Write, Sync, Truncate, Rename and directory fsync,
// counted in order — in two modes: operation k fails (and the workload
// carries on against the fail-stop journal), or the process "crashes"
// just before it (only synced bytes under durable names survive, and k
// and every later operation fail, as for a dead process). Reopening the
// live directory after a failure, or the crash image, must restore
// exactly the state after the last acknowledged step, or after the one
// step in flight. That is: acknowledged ⇒ present; spend is never
// under-counted (the in-flight step may land, and only a refund — issued
// for a mechanism that never drew noise — lowers spend); and replay
// across a snapshot boundary is exact, never double-counting.
func TestCrashAtEveryWritePoint(t *testing.T) {
	// Expected state after each prefix of the workload, from a ledger
	// that never touches a disk.
	ref, err := Open(Config{DefaultBudget: 10})
	if err != nil {
		t.Fatal(err)
	}
	states := []string{ledgerState(ref)}
	refIDs := map[string]string{}
	for i, step := range crashWorkload {
		if err := step(ref, refIDs); err != nil {
			t.Fatalf("reference step %d: %v", i, err)
		}
		states = append(states, ledgerState(ref))
	}

	injected := errors.New("injected")
	run := func(t *testing.T, k int, crash bool) (acked int, fs *journaltest.FS, dir, image string) {
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
		l, err := Open(Config{Dir: dir, DefaultBudget: 10, SnapshotEvery: 3, fs: fs})
		if err != nil {
			return 0, fs, dir, image
		}
		ids := map[string]string{}
		for i, step := range crashWorkload {
			if err := step(l, ids); err == nil {
				if acked != i {
					t.Errorf("op %d: step %d acknowledged after step %d failed", k, i, acked)
				}
				acked++
			}
		}
		l.Close()
		return acked, fs, dir, image
	}
	check := func(t *testing.T, what, dir string, acked int) {
		t.Helper()
		l, err := Open(Config{Dir: dir, DefaultBudget: 10, SnapshotEvery: 3})
		if err != nil {
			t.Errorf("%s: reopen: %v", what, err)
			return
		}
		got := ledgerState(l)
		l.Close()
		if got == states[acked] || (acked < len(crashWorkload) && got == states[acked+1]) {
			return
		}
		t.Errorf("%s: %d steps acknowledged, replayed state\n  %s\nwant\n  %s", what, acked, got, states[acked])
	}

	acked, fs, _, _ := run(t, 0, false)
	if acked != len(crashWorkload) {
		t.Fatalf("clean run acknowledged %d of %d steps", acked, len(crashWorkload))
	}
	total := fs.Ops()
	if total < 30 {
		t.Fatalf("clean run made %d file operations; the workload should cross several snapshots", total)
	}
	for k := 1; k <= total; k++ {
		acked, fs, dir, image := run(t, k, false)
		check(t, fmt.Sprintf("op %d failed, live dir", k), dir, acked)
		// A crash after the failure keeps only what was synced.
		if err := fs.Crash(image); err != nil {
			t.Fatal(err)
		}
		check(t, fmt.Sprintf("op %d failed, then crash", k), image, acked)
		acked, _, _, image = run(t, k, true)
		check(t, fmt.Sprintf("crash before op %d", k), image, acked)
	}
}
