// Package journal fixture: the committer's file I/O must stay outside
// the journal's mutex.
package journal

import (
	"os"
	"sync"
)

type journal struct {
	mu      sync.Mutex
	f       *os.File
	pending [][]byte
}

// commitLocked writes the batch while appenders are locked out.
func (j *journal) commitLocked() {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, line := range j.pending {
		_, _ = j.f.Write(line) // want `file Write while a mutex is held`
	}
	j.reset() // want `call to reset \(which performs file I/O\) while a mutex is held`
}

// reset truncates the log, so callers holding the mutex are flagged.
func (j *journal) reset() {
	_ = j.f.Truncate(0)
}

// commit drains the queue under the lock and writes after releasing it.
func (j *journal) commit() {
	j.mu.Lock()
	batch := j.pending
	j.pending = nil
	j.mu.Unlock()
	for _, line := range batch {
		_, _ = j.f.Write(line)
	}
	_ = j.f.Sync()
}
