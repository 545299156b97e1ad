package journal_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"osdp/internal/journal"
	"osdp/internal/journal/journaltest"
)

type rec struct {
	Seq uint64 `json:"seq"`
	V   string `json:"v"`
}

func recSeq(r *rec) *uint64 { return &r.Seq }

// TestReplayRules pins the one replay rule both clients share: a record
// is committed only once its '\n' is on disk (a final line without one
// is a torn tail, even if it parses), and a terminated line that does
// not parse, or whose seq does not increase, is corruption wherever it
// sits.
func TestReplayRules(t *testing.T) {
	cases := []struct {
		name, log string
		after     uint64
		applied   []string
		cut       int64 // -1 when intact
		corrupt   bool
	}{
		{name: "intact", log: "{\"seq\":1,\"v\":\"a\"}\n{\"seq\":2,\"v\":\"b\"}\n", applied: []string{"a", "b"}, cut: -1},
		{name: "final newline missing", log: "{\"seq\":1,\"v\":\"a\"}\n{\"seq\":2,\"v\":\"b\"}", applied: []string{"a"}, cut: 18},
		{name: "torn mid-record", log: "{\"seq\":1,\"v\":\"a\"}\n{\"seq\":2,", applied: []string{"a"}, cut: 18},
		{name: "after snapshot", log: "{\"seq\":1,\"v\":\"a\"}\n{\"seq\":2,\"v\":\"b\"}\n", after: 1, applied: []string{"b"}, cut: -1},
		{name: "corrupt final line", log: "{\"seq\":1,\"v\":\"a\"}\n{\"seq\":2,\n", corrupt: true},
		{name: "corrupt mid-file", log: "{\"seq\":1,\n{\"seq\":2,\"v\":\"b\"}\n", corrupt: true},
		{name: "seq repeats", log: "{\"seq\":1,\"v\":\"a\"}\n{\"seq\":1,\"v\":\"b\"}\n", corrupt: true},
		{name: "seq zero", log: "{\"seq\":0,\"v\":\"a\"}\n", corrupt: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			if err := os.WriteFile(path, []byte(tc.log), 0o644); err != nil {
				t.Fatal(err)
			}
			var applied []string
			_, cut, err := journal.Replay(path, recSeq, tc.after, func(r rec) error {
				applied = append(applied, r.V)
				return nil
			})
			if tc.corrupt {
				if err == nil || !strings.Contains(err.Error(), "corrupt") {
					t.Fatalf("got %v, want a corruption error", err)
				}
				return
			}
			if err != nil || cut != tc.cut || !reflect.DeepEqual(applied, tc.applied) {
				t.Fatalf("applied %v, cut %d, err %v; want %v, %d", applied, cut, err, tc.applied, tc.cut)
			}
		})
	}
}

// TestFailStop: after one failed fsync, the record it carried and every
// later one fail their Wait, nothing more reaches the log, and Close
// reports the failure.
func TestFailStop(t *testing.T) {
	dir := t.TempDir()
	fail := false
	fs := &journaltest.FS{Hook: func(op journaltest.Op) error {
		if fail && op.Kind == "sync" {
			return errors.New("injected fsync failure")
		}
		return nil
	}}
	j, err := journal.Open(journal.Config[rec]{Dir: dir, Log: "log.jsonl", Seq: recSeq, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(j.Append(rec{V: "a"})); err != nil {
		t.Fatal(err)
	}
	fail = true // the committer is idle: the Wait above returned
	if err := j.Wait(j.Append(rec{V: "b"})); !errors.Is(err, journal.ErrBroken) {
		t.Fatalf("Wait after a failed fsync: %v, want ErrBroken", err)
	}
	before := fs.Ops()
	if err := j.Wait(j.Append(rec{V: "c"})); !errors.Is(err, journal.ErrBroken) {
		t.Fatalf("Wait on a fail-stop journal: %v, want ErrBroken", err)
	}
	if err := j.Close(); !errors.Is(err, journal.ErrBroken) {
		t.Fatalf("Close: %v, want ErrBroken", err)
	}
	if fs.Ops() != before {
		t.Fatal("a fail-stop journal kept writing")
	}
	if err := j.Wait(1); err != nil {
		t.Fatalf("record durable before the failure: %v", err)
	}
}

// TestInMemory: without a directory, seqs are assigned and every record
// is durable at once.
func TestInMemory(t *testing.T) {
	j, err := journal.Open(journal.Config[rec]{Seq: recSeq})
	if err != nil {
		t.Fatal(err)
	}
	for want := uint64(1); want <= 3; want++ {
		if seq := j.Append(rec{}); seq != want || j.Wait(seq) != nil {
			t.Fatalf("in-memory append %d: seq %d, wait %v", want, seq, j.Wait(seq))
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}
