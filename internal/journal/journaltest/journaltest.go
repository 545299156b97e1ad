// Package journaltest provides a journal.FS for durability tests: it
// counts every write point, lets a test fail or block any of them, and
// can write out the files a crash at that moment would leave behind.
package journaltest

import (
	"errors"
	"os"
	"path/filepath"
	"sync"

	"osdp/internal/journal"
)

// Op is one counted file-system operation.
type Op struct {
	// N is the operation's 1-based position among all counted operations.
	N int
	// Kind is "write", "sync", "truncate", "rename" or "syncdir".
	Kind string
}

// FS is a journal.FS over the real file system that never calls the
// real fsync. Instead it tracks what a crash would keep: each file's
// bytes as of its last Sync, under the names the last SyncDir made
// durable. Files that exist before the FS first opens them count as
// durable. The zero value is ready to use.
type FS struct {
	// Hook, when set, runs before every Write, Sync, Truncate, Rename and
	// SyncDir, without the FS's lock held; a non-nil return fails the
	// operation. A failed Write still writes the first half of its
	// bytes, the way a short write does.
	Hook func(Op) error

	mu      sync.Mutex
	n       int
	names   map[string]*inode // live directory entries
	durable map[string]*inode // entries as of the last SyncDir
}

type inode struct{ live, synced []byte }

type file struct {
	fs  *FS
	f   *os.File
	ino *inode
}

func (fs *FS) op(kind string) error {
	fs.mu.Lock()
	fs.n++
	op := Op{N: fs.n, Kind: kind}
	fs.mu.Unlock()
	if fs.Hook == nil {
		return nil
	}
	return fs.Hook(op)
}

// Ops returns the number of operations counted so far.
func (fs *FS) Ops() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.n
}

// OpenFile opens name on the real file system and tracks its contents.
func (fs *FS) OpenFile(name string, flag int, perm os.FileMode) (journal.File, error) {
	before, readErr := os.ReadFile(name)
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.names == nil {
		fs.names, fs.durable = map[string]*inode{}, map[string]*inode{}
	}
	ino, ok := fs.names[name]
	if !ok {
		ino = &inode{}
		fs.names[name] = ino
		if readErr == nil {
			ino.live, ino.synced = before, append([]byte(nil), before...)
			fs.durable[name] = ino
		}
	}
	if flag&os.O_TRUNC != 0 {
		ino.live = nil
	}
	return &file{fs: fs, f: f, ino: ino}, nil
}

// Rename renames on the real file system; the new name is durable only
// after the next SyncDir.
func (fs *FS) Rename(oldpath, newpath string) error {
	if err := fs.op("rename"); err != nil {
		return err
	}
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.names[newpath] = fs.names[oldpath]
	delete(fs.names, oldpath)
	return nil
}

// SyncDir makes every current name durable.
func (fs *FS) SyncDir(dir string) error {
	if err := fs.op("syncdir"); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.durable = make(map[string]*inode, len(fs.names))
	for name, ino := range fs.names {
		fs.durable[name] = ino
	}
	return nil
}

// Crash writes into dir the files a crash right now would leave: every
// durable name, holding its file's last synced bytes.
func (fs *FS) Crash(dir string) error {
	fs.mu.Lock()
	files := map[string][]byte{}
	for name, ino := range fs.durable {
		files[filepath.Base(name)] = append([]byte(nil), ino.synced...)
	}
	fs.mu.Unlock()
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (f *file) Write(p []byte) (int, error) {
	hookErr := f.fs.op("write")
	if hookErr != nil {
		p = p[:len(p)/2]
	}
	n, err := f.f.Write(p)
	f.fs.mu.Lock()
	f.ino.live = append(f.ino.live, p[:n]...)
	f.fs.mu.Unlock()
	return n, errors.Join(hookErr, err)
}

func (f *file) Sync() error {
	if err := f.fs.op("sync"); err != nil {
		return err
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.ino.synced = append([]byte(nil), f.ino.live...)
	return nil
}

func (f *file) Truncate(size int64) error {
	if err := f.fs.op("truncate"); err != nil {
		return err
	}
	if err := f.f.Truncate(size); err != nil {
		return err
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.ino.live = f.ino.live[:size]
	return nil
}

func (f *file) Close() error { return f.f.Close() }
