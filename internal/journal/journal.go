// Package journal is the durable, group-committed record log under the
// ε-ledger and the privacy-audit trail. It is the only module that knows
// the on-disk durability rules; its clients keep their record shapes and
// in-memory state, and call Append, Wait and Close.
//
//   - Format. A log is JSONL: one JSON object per line, each carrying a
//     strictly increasing "seq". A record is committed only once its
//     terminating '\n' is on disk.
//   - Replay. Open streams the log. A final line without its '\n' is a
//     torn tail from a crash mid-write — never acknowledged — and is cut
//     off before the first append, so the next record starts on its own
//     line. A terminated line that does not parse, or whose seq does not
//     increase, is corruption wherever it sits, and Open refuses it.
//   - Group commit. Append never blocks on the disk: it assigns the next
//     seq and queues the record. One committer goroutine yields once,
//     drains the queue, writes the batch in one write, fsyncs once and
//     wakes every Wait the batch satisfies, so N concurrent appends share
//     one fsync. Nothing the committer does runs under a client's lock.
//   - Failure. Any failed write, truncate, fsync or rename makes the
//     journal fail-stop. A short write is first truncated back so no
//     partial line is left behind; after a failed fsync the kernel may
//     have dropped dirty pages without saying which, so no later commit
//     could vouch for what came before it. Every Wait on a record that is
//     not yet durable then returns ErrBroken; restart to replay.
//   - Snapshots (optional). Every SnapshotEvery committed records the
//     committer, between batches, asks the client for a snapshot, writes
//     it to a temp file, fsyncs it, renames it into place, fsyncs the
//     directory and then resets the log. Replay restores the snapshot and
//     applies only records with a higher seq, so a crash between the
//     rename and the reset cannot apply a record twice.
//
// With an empty Config.Dir the journal runs in memory: seqs are assigned,
// every record is durable at once, and nothing is written.
package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"osdp/internal/telemetry"
)

var (
	// ErrBroken wraps the failure that made a journal fail-stop.
	ErrBroken = errors.New("journal: disabled after a write error; restart to recover")
	// ErrClosed is what Wait reports for a record that can no longer
	// become durable because the journal was closed.
	ErrClosed = errors.New("journal: closed")
)

// File is the part of *os.File the journal writes through.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// FS is the file-system seam: every file the journal writes is opened,
// renamed and made durable through it, so tests can inject faults and
// crashes. Reads (replay, snapshot load) go to the os package directly.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	// SyncDir fsyncs a directory, making entries created or renamed in it
	// durable.
	SyncDir(dir string) error
}

// Metrics are the journal's instruments; nil fields are disabled.
type Metrics struct {
	// Append observes each batch's write-plus-fsync latency.
	Append *telemetry.Histogram
	// Fsync observes each batch's fsync latency.
	Fsync *telemetry.Histogram
	// Batch observes each committed batch's record count.
	Batch *telemetry.Histogram
	// Snapshots counts installed snapshots.
	Snapshots *telemetry.Counter
}

// Config configures Open for records of type T, a JSON object whose
// sequence number Seq locates.
type Config[T any] struct {
	// Dir holds the log (and snapshot); empty means in-memory.
	Dir string
	// Log is the log's file name inside Dir.
	Log string
	// NoSync skips the per-batch fsync (tests and benchmarks only: a
	// crash can then lose acknowledged records). Snapshots and directory
	// entries are fsync'd regardless.
	NoSync bool
	// Seq locates a record's sequence number, which Append assigns.
	Seq func(*T) *uint64
	// Apply receives, in order, every replayed record above the
	// snapshot's seq.
	Apply func(T) error
	// Snapshot is the snapshot's file name inside Dir; empty disables
	// snapshots, and then Restore and Compact are unused.
	Snapshot string
	// SnapshotEvery is the number of committed records that triggers
	// the next snapshot.
	SnapshotEvery int
	// Restore receives the snapshot file's body at Open and returns the
	// seq of the last record it covers.
	Restore func(body []byte) (seq uint64, err error)
	// Compact builds the next snapshot, called on the committer with no
	// journal lock held. The value, marshalled to JSON, must cover every
	// record appended before the call.
	Compact func() any
	// FS is the file-system seam; nil means the operating system.
	FS FS
	// Metrics receives the commit and snapshot instruments.
	Metrics Metrics
}

// Journal is an open log. Append, Wait, Seq and Err are safe for
// concurrent use; Close stops the committer.
type Journal[T any] struct {
	cfg  Config[T]
	path string

	// Owned by the committer goroutine (and by Open before it starts).
	f     File
	size  int64 // committed length of the log; a short write cuts back to it
	buf   []byte
	since int // records committed since the last snapshot

	mu      sync.Mutex
	cond    sync.Cond // broadcast whenever durable or err changes
	seq     uint64    // last assigned
	durable uint64    // every record at or below is durable
	pending []T
	err     error // fail-stop cause; ErrClosed once Close has drained
	closed  bool

	notify chan struct{} // buffered(1): a pending nudge absorbs later ones
	done   chan struct{} // closed when the committer exits
}

// Open replays (or creates) the log in cfg.Dir and starts its committer.
// Replay restores the snapshot, applies the log's committed records,
// and cuts off a torn tail; the log's directory entry is fsync'd before
// Open returns, so a freshly created log cannot vanish on power loss.
func Open[T any](cfg Config[T]) (*Journal[T], error) {
	j := &Journal[T]{cfg: cfg}
	j.cond.L = &j.mu
	if cfg.Dir == "" {
		return j, nil
	}
	if j.cfg.FS == nil {
		j.cfg.FS = osFS{}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: creating %s: %w", cfg.Dir, err)
	}
	var after uint64
	if cfg.Snapshot != "" {
		path := filepath.Join(cfg.Dir, cfg.Snapshot)
		body, err := os.ReadFile(path)
		switch {
		case errors.Is(err, os.ErrNotExist):
		case err != nil:
			return nil, fmt.Errorf("journal: reading %s: %w", path, err)
		default:
			if after, err = cfg.Restore(body); err != nil {
				return nil, fmt.Errorf("journal: snapshot %s is corrupt: %w", path, err)
			}
		}
	}
	j.path = filepath.Join(cfg.Dir, cfg.Log)
	last, cut, err := Replay(j.path, cfg.Seq, after, cfg.Apply)
	if err != nil {
		return nil, err
	}
	j.seq = max(after, last)
	j.durable = j.seq
	f, err := j.cfg.FS.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: opening %s: %w", j.path, err)
	}
	if cut >= 0 {
		if err := f.Truncate(cut); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: cutting torn tail of %s: %w", j.path, err)
		}
		j.size = cut
	} else if st, err := os.Stat(j.path); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: sizing %s: %w", j.path, err)
	} else {
		j.size = st.Size()
	}
	if err := j.cfg.FS.SyncDir(cfg.Dir); err != nil {
		f.Close()
		return nil, err
	}
	j.f = f
	j.notify = make(chan struct{}, 1)
	j.done = make(chan struct{})
	go j.run()
	return j, nil
}

// Replay streams the log at path and calls apply, in order, for every
// committed record whose seq is above after. It returns the last seq in
// the log and, when the log ends in a torn tail, the byte length of the
// committed prefix Open cuts it back to (-1 when intact). A missing file
// replays nothing. Replay only reads; it never repairs the file.
func Replay[T any](path string, seqOf func(*T) *uint64, after uint64, apply func(T) error) (last uint64, truncateTo int64, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, -1, nil
	}
	if err != nil {
		return 0, -1, fmt.Errorf("journal: opening %s: %w", path, err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var offset int64
	for {
		line, rerr := r.ReadBytes('\n')
		if len(line) > 0 && line[len(line)-1] != '\n' {
			return last, offset, nil
		}
		if len(line) > 0 {
			var rec T
			if err := json.Unmarshal(line, &rec); err != nil {
				return 0, -1, fmt.Errorf("journal: %s: corrupt record at byte %d: %v", path, offset, err)
			}
			seq := *seqOf(&rec)
			if seq <= last {
				return 0, -1, fmt.Errorf("journal: %s: corrupt record at byte %d: seq %d after %d", path, offset, seq, last)
			}
			last = seq
			if seq > after && apply != nil {
				if err := apply(rec); err != nil {
					return 0, -1, err
				}
			}
			offset += int64(len(line))
		}
		if rerr == io.EOF {
			return last, -1, nil
		}
		if rerr != nil {
			return 0, -1, fmt.Errorf("journal: reading %s: %w", path, rerr)
		}
	}
}

// Append assigns rec the next seq, queues it for the committer and
// returns the seq without blocking. A client that needs log order to
// match its own order calls Append under its own lock. After a failure
// or Close the record is numbered but never written.
func (j *Journal[T]) Append(rec T) uint64 {
	j.mu.Lock()
	j.seq++
	seq := j.seq
	*j.cfg.Seq(&rec) = seq
	queued := false
	switch {
	case j.f == nil:
		j.durable = seq
	case j.err == nil && !j.closed:
		j.pending = append(j.pending, rec)
		queued = true
	}
	j.mu.Unlock()
	if queued {
		j.kick()
	}
	return seq
}

// Wait blocks until every record at or below seq is durable and returns
// nil only then. If the journal fails first it returns the fail-stop
// error; for a record appended after Close it returns ErrClosed.
func (j *Journal[T]) Wait(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.durable < seq {
		if j.err != nil {
			return j.err
		}
		j.cond.Wait()
	}
	return nil
}

// Seq returns the last assigned sequence number.
func (j *Journal[T]) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Err returns the error that made the journal fail-stop, ErrClosed once
// it is closed, and nil while it is healthy.
func (j *Journal[T]) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close commits everything appended before it, stops the committer and
// closes the log. It returns the fail-stop error if the journal broke,
// including on that final commit.
func (j *Journal[T]) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	j.kick()
	<-j.done
	cerr := j.f.Close()
	j.mu.Lock()
	err := j.err
	if err == nil {
		j.err = ErrClosed
		if cerr != nil {
			err = fmt.Errorf("journal: closing %s: %w", j.path, cerr)
		}
	}
	j.mu.Unlock()
	j.cond.Broadcast()
	return err
}

func (j *Journal[T]) kick() {
	select {
	case j.notify <- struct{}{}:
	default: // committer already nudged
	}
}

// run is the committer. It alone touches the files after Open, so
// batches reach the log in seq order. Close's nudge makes it drain what
// was appended before closed was set, then exit.
func (j *Journal[T]) run() {
	defer close(j.done)
	for range j.notify {
		j.mu.Lock()
		closed := j.closed
		j.mu.Unlock()
		j.commitPending()
		if closed {
			return
		}
	}
}

// commitPending commits batches until the queue is empty, installing a
// snapshot between batches when one is due.
func (j *Journal[T]) commitPending() {
	for {
		j.mu.Lock()
		n := len(j.pending)
		j.mu.Unlock()
		if n == 0 {
			return
		}
		// One scheduler yield before sealing the batch: appenders the
		// last commit just woke get to queue their next record, so a
		// saturated core produces full batches instead of alternating
		// 1-record and (N-1)-record ones. With nothing else runnable
		// this costs well under a microsecond.
		runtime.Gosched()
		j.mu.Lock()
		batch := j.pending
		j.pending = nil
		j.mu.Unlock()
		if err := j.commit(batch); err != nil {
			j.settle(0, err)
			return
		}
		j.settle(*j.cfg.Seq(&batch[len(batch)-1]), nil)
		j.since += len(batch)
		if j.cfg.Snapshot != "" && j.since >= j.cfg.SnapshotEvery {
			if err := j.installSnapshot(j.cfg.Compact()); err != nil {
				j.settle(0, err)
				return
			}
			j.since = 0
		}
	}
}

// settle publishes a batch verdict: seq is durable, or err makes the
// journal fail-stop and drops whatever is still queued.
func (j *Journal[T]) settle(seq uint64, err error) {
	j.mu.Lock()
	if err != nil {
		j.err = fmt.Errorf("%w: %v", ErrBroken, err)
		j.pending = nil
	} else {
		j.durable = seq
	}
	j.mu.Unlock()
	j.cond.Broadcast()
}

// commit writes one batch, one record per line, in one write and one
// fsync.
func (j *Journal[T]) commit(batch []T) error {
	start := time.Now()
	j.buf = j.buf[:0]
	for i := range batch {
		line, err := json.Marshal(&batch[i])
		if err != nil {
			return fmt.Errorf("journal: encoding record: %w", err)
		}
		j.buf = append(append(j.buf, line...), '\n')
	}
	if _, err := j.f.Write(j.buf); err != nil {
		// A partial line would read as corruption once a later record
		// followed it, so cut the log back to the last commit.
		if terr := j.f.Truncate(j.size); terr != nil {
			return fmt.Errorf("journal: appending to %s: %v; cutting it back: %w", j.path, err, terr)
		}
		return fmt.Errorf("journal: appending to %s: %w", j.path, err)
	}
	j.size += int64(len(j.buf))
	if !j.cfg.NoSync {
		syncStart := time.Now()
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: syncing %s: %w", j.path, err)
		}
		j.cfg.Metrics.Fsync.ObserveDuration(time.Since(syncStart))
	}
	j.cfg.Metrics.Append.ObserveDuration(time.Since(start))
	j.cfg.Metrics.Batch.Observe(float64(len(batch)))
	return nil
}

// installSnapshot atomically replaces the snapshot file with snap, then
// resets the log the snapshot now covers.
func (j *Journal[T]) installSnapshot(snap any) error {
	body, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		return fmt.Errorf("journal: encoding snapshot: %w", err)
	}
	final := filepath.Join(j.cfg.Dir, j.cfg.Snapshot)
	tmp := final + ".tmp"
	f, err := j.cfg.FS.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: creating %s: %w", tmp, err)
	}
	_, err = f.Write(append(body, '\n'))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: writing %s: %w", tmp, err)
	}
	if err := j.cfg.FS.Rename(tmp, final); err != nil {
		return fmt.Errorf("journal: installing %s: %w", final, err)
	}
	// The rename must be durable BEFORE the reset: a crash that kept the
	// reset but not the rename would replay the OLD snapshot against an
	// empty log and lose acknowledged records.
	if err := j.cfg.FS.SyncDir(j.cfg.Dir); err != nil {
		return err
	}
	// O_APPEND writes land at the new end of file, so the next batch
	// starts the log afresh.
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("journal: resetting %s: %w", j.path, err)
	}
	j.size = 0
	j.cfg.Metrics.Snapshots.Inc()
	return nil
}

// osFS is the operating system's file system.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: opening %s for sync: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: syncing %s: %w", dir, err)
	}
	return nil
}
