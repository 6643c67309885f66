package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
)

// FS is the filesystem surface the WAL writes through. Production code uses
// OS (the real filesystem); tests substitute a FaultFS to inject write and
// fsync failures at precise points — the fault-injection harness the crash
// tests are built on.
type FS interface {
	// Create opens name for appending, creating it (and truncating any
	// existing content — the WAL only creates segment names it owns).
	Create(name string) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// ReadDir lists the file names (not paths) in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// Remove deletes name.
	Remove(name string) error
	// Rename atomically replaces newname with oldname's content.
	Rename(oldname, newname string) error
	// Truncate cuts name to size bytes. Replay uses it to discard a torn
	// record tail.
	Truncate(name string, size int64) error
	// SyncDir fsyncs the directory itself, making created/renamed/removed
	// entries durable.
	SyncDir(dir string) error
	// Size reports name's current size in bytes (for the WAL size gauge).
	Size(name string) (int64, error)
}

// File is one open WAL file. Segments are written append-only and read
// sequentially; Sync makes previous writes durable.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
}

// OS is the real-filesystem FS used outside tests.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) Size(name string) (int64, error) {
	st, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (osFS) Remove(name string) error               { return os.Remove(name) }
func (osFS) Rename(oldname, newname string) error   { return os.Rename(oldname, newname) }
func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ErrInjected is the failure FaultFS injects.
var ErrInjected = errors.New("wal: injected fault")

// ErrNoSpace is the disk-full failure FailWithENOSPCAfter injects. It wraps
// syscall.ENOSPC so errors.Is(err, syscall.ENOSPC) classifies it exactly the
// way a real full filesystem does.
var ErrNoSpace = fmt.Errorf("wal: injected disk full: %w", syscall.ENOSPC)

// FaultFS wraps another FS and fails the Nth write or fsync call (counted
// across all files opened through it), optionally completing half the buffer
// first — a short write, the torn-record case a real crash produces. It can
// also simulate a disk filling up (FailWithENOSPCAfter: a byte budget after
// which writes fail with ErrNoSpace until RestoreDisk), a failing
// checkpoint-publish rename (FailRenameAt), and a torn segment header on
// rotate (ShortWriteNextSegment). All methods are safe for concurrent use.
type FaultFS struct {
	inner FS

	mu         sync.Mutex
	writes     int
	syncs      int
	renames    int
	failWrite  int  // fail the Nth Write call; 0 = never
	shortWrite bool // when failing a write, write the first half of the buffer
	failSync   int  // fail the Nth Sync call; 0 = never
	syncErr    error
	failRename int   // fail the Nth Rename call; 0 = never
	enospc     int64 // remaining disk-byte budget; negative = unlimited
	shortNext  bool  // tear the first write of the next Created file
}

// NewFaultFS wraps inner with an initially fault-free shim.
func NewFaultFS(inner FS) *FaultFS { return &FaultFS{inner: inner, enospc: -1} }

// FailWriteAt arms the shim to fail the nth subsequent Write call (1 = the
// very next one). When short is set, the failing write first writes half its
// buffer, producing a torn record on disk.
func (f *FaultFS) FailWriteAt(n int, short bool) {
	f.mu.Lock()
	f.failWrite, f.shortWrite = f.writes+n, short
	f.mu.Unlock()
}

// FailSyncAt arms the shim to fail the nth subsequent Sync call.
func (f *FaultFS) FailSyncAt(n int) {
	f.mu.Lock()
	f.failSync = f.syncs + n
	f.syncErr = nil
	f.mu.Unlock()
}

// FailSyncAtErr is FailSyncAt with a caller-chosen error. Pass ErrNoSpace to
// model a delayed-allocation filesystem that only reports a full disk at
// fsync time. n <= 0 disarms the fault ("the disk healed").
func (f *FaultFS) FailSyncAtErr(n int, err error) {
	f.mu.Lock()
	if n <= 0 {
		f.failSync, f.syncErr = 0, nil
	} else {
		f.failSync = f.syncs + n
		f.syncErr = err
	}
	f.mu.Unlock()
}

// FailWithENOSPCAfter arms a simulated full disk: the next n bytes written
// (counted across all files opened through the shim) succeed, after which
// every write fails with ErrNoSpace — first writing whatever still fits,
// exactly like a real filesystem filling up mid-append. The condition is
// sticky until RestoreDisk.
func (f *FaultFS) FailWithENOSPCAfter(n int64) {
	f.mu.Lock()
	f.enospc = n
	f.mu.Unlock()
}

// RestoreDisk clears an armed or tripped ENOSPC condition — the "operator
// freed disk space" event the degraded-mode probe recovers from.
func (f *FaultFS) RestoreDisk() {
	f.mu.Lock()
	f.enospc = -1
	f.mu.Unlock()
}

// FailRenameAt arms the shim to fail the nth subsequent Rename call with
// ErrNoSpace — the checkpoint-publish rename on a full disk. One-shot:
// later renames succeed, so a retrying checkpoint recovers.
func (f *FaultFS) FailRenameAt(n int) {
	f.mu.Lock()
	f.failRename = f.renames + n
	f.mu.Unlock()
}

// ShortWriteNextSegment arms a short write on the first Write call of the
// next file Created through the shim: half the buffer lands, then the write
// fails. Against the WAL this tears a fresh segment's header mid-rotate.
func (f *FaultFS) ShortWriteNextSegment() {
	f.mu.Lock()
	f.shortNext = true
	f.mu.Unlock()
}

func (f *FaultFS) Create(name string) (File, error) {
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	ff := &faultFile{File: file, fs: f}
	f.mu.Lock()
	if f.shortNext {
		ff.shortFirst = true
		f.shortNext = false
	}
	f.mu.Unlock()
	return ff, nil
}

func (f *FaultFS) Open(name string) (File, error)       { return f.inner.Open(name) }
func (f *FaultFS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }
func (f *FaultFS) Remove(name string) error             { return f.inner.Remove(name) }

func (f *FaultFS) Rename(oldname, newname string) error {
	f.mu.Lock()
	f.renames++
	fail := f.failRename != 0 && f.renames == f.failRename
	f.mu.Unlock()
	if fail {
		return ErrNoSpace
	}
	return f.inner.Rename(oldname, newname)
}

func (f *FaultFS) Truncate(name string, size int64) error { return f.inner.Truncate(name, size) }
func (f *FaultFS) SyncDir(dir string) error               { return f.inner.SyncDir(dir) }
func (f *FaultFS) Size(name string) (int64, error)        { return f.inner.Size(name) }

// checkWrite advances the write counter and reports whether this call must
// fail, and if so whether it should tear (short-write) first.
func (f *FaultFS) checkWrite() (fail, short bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes++
	return f.failWrite != 0 && f.writes >= f.failWrite, f.shortWrite
}

func (f *FaultFS) checkSync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs++
	if f.failSync != 0 && f.syncs >= f.failSync {
		if f.syncErr != nil {
			return f.syncErr
		}
		return ErrInjected
	}
	return nil
}

// takeBudget charges n bytes against the ENOSPC budget. It returns how many
// bytes may still be written and whether the full write fits.
func (f *FaultFS) takeBudget(n int) (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.enospc < 0 {
		return n, true
	}
	if int64(n) <= f.enospc {
		f.enospc -= int64(n)
		return n, true
	}
	allow := int(f.enospc)
	f.enospc = 0
	return allow, false
}

type faultFile struct {
	File
	fs *FaultFS

	shortFirst bool // tear this file's first write (armed by ShortWriteNextSegment)
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.takeShortFirst() && len(p) > 1 {
		n, err := f.File.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, ErrInjected
	}
	fail, short := f.fs.checkWrite()
	if fail {
		if short && len(p) > 1 {
			n, err := f.File.Write(p[:len(p)/2])
			if err != nil {
				return n, err
			}
			return n, ErrInjected
		}
		return 0, ErrInjected
	}
	allow, ok := f.fs.takeBudget(len(p))
	if !ok {
		var n int
		if allow > 0 {
			n, _ = f.File.Write(p[:allow])
		}
		return n, ErrNoSpace
	}
	return f.File.Write(p)
}

func (f *faultFile) takeShortFirst() bool {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.shortFirst {
		f.shortFirst = false
		return true
	}
	return false
}

func (f *faultFile) Sync() error {
	if err := f.fs.checkSync(); err != nil {
		return err
	}
	return f.File.Sync()
}
