// Package wal is sgbd's write-ahead log: the durability layer under the
// in-memory engine.
//
// The engine applies a committed DML/DDL statement in memory and, before the
// statement is acknowledged to the client, appends one logical record for it
// here. On restart, the server loads the latest checkpoint snapshot and
// replays the log tail. Statement-level replay is deterministic because the
// engine has no nondeterministic functions and every table comes back in its
// pre-crash scan order: SGB-Any's answer does not depend on order, and
// SGB-All's is deterministic given scan order. So the recovered database is
// exactly the acknowledged prefix of history.
//
// # On-disk format
//
// The log is a sequence of segment files named wal-<first-seq>.log, each
// opening with an 8-byte magic. Records are length-prefixed and
// CRC32C-checksummed:
//
//	[4 bytes payload length][4 bytes CRC32C of payload][payload]
//	payload = [8 bytes sequence number][1 byte kind][data]
//
// All integers are big-endian. Sequence numbers start at 1 and increase by
// exactly one per record across segment boundaries; replay treats any gap,
// regression, bad checksum, or short read as the torn tail of the crash and
// truncates the log there (see Replay).
//
// # Fsync policy
//
// SyncAlways fsyncs before AppendSynced returns: an acknowledged statement
// survives power loss. SyncInterval fsyncs on a timer: a crash can lose up
// to one interval of acknowledged statements. SyncNever leaves flushing to
// the OS. The first write or fsync failure latches the log into a failed
// state — later appends fail fast with ErrLogFailed, because the durable
// prefix is no longer known.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs every append before it returns.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background timer (Options.Interval).
	SyncInterval
	// SyncNever never fsyncs explicitly; the OS flushes when it pleases.
	SyncNever
)

// ParseSyncPolicy maps the flag spelling onto the enum.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always|interval|never)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Record kinds. Only statements exist today; the kind byte leaves room for
// replication control records later.
const (
	// KindStatement is one committed SQL DML/DDL statement, data = SQL text.
	KindStatement byte = 1
)

const (
	segMagic   = "SGBWAL01"
	segPrefix  = "wal-"
	segSuffix  = ".log"
	recHdrSize = 8 // u32 length + u32 crc
	// maxRecord bounds a single record so a corrupt length prefix cannot
	// drive a huge allocation during replay.
	maxRecord = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrLogFailed reports an append on a log that has latched a previous write
// or fsync failure: the durable prefix is unknown, so no further statement
// may be acknowledged.
var ErrLogFailed = errors.New("wal: log failed; previous append or fsync error")

// Record is one decoded log record.
type Record struct {
	Seq  uint64
	Kind byte
	Data []byte
}

// Options configures a Log.
type Options struct {
	// Dir is the directory holding the segment files.
	Dir string
	// Policy selects the fsync policy; the zero value is SyncAlways.
	Policy SyncPolicy
	// Interval is the flush period under SyncInterval (default 100ms).
	Interval time.Duration
	// FS is the filesystem to write through; nil means the real one. Tests
	// inject a FaultFS here.
	FS FS
	// OnSync observes the duration of every fsync (for metrics); may be nil.
	OnSync func(time.Duration)
}

// Log is an open write-ahead log positioned for appending. Open creates it;
// all methods are safe for concurrent use.
type Log struct {
	opts Options
	fs   FS

	mu       sync.Mutex
	f        File
	name     string // current segment file name (not path)
	segStart uint64 // first seq the current segment can hold
	seq      uint64 // last assigned sequence number
	written  int64  // bytes fully written to the current segment (no torn tail)
	dirty    bool   // appended since last fsync
	failed   error  // sticky first failure
	closed   bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// Open positions a log for appending after lastSeq, the highest sequence
// number known durable (from Replay). It always starts a fresh segment, so a
// truncated torn tail is never appended over.
func Open(opts Options, lastSeq uint64) (*Log, error) {
	if opts.FS == nil {
		opts.FS = OS
	}
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	l := &Log{opts: opts, fs: opts.FS, seq: lastSeq, stop: make(chan struct{})}
	if err := l.startSegment(); err != nil {
		return nil, err
	}
	if opts.Policy == SyncInterval {
		l.wg.Add(1)
		go l.flushLoop()
	}
	return l, nil
}

// segName renders the segment file name for a first sequence number.
func segName(firstSeq uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, firstSeq, segSuffix)
}

// segFirstSeq parses a segment file name; ok is false for foreign files.
func segFirstSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// segments lists dir's segment files in sequence order.
func segments(fsys FS, dir string) ([]string, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	segs := names[:0]
	for _, n := range names {
		if _, ok := segFirstSeq(n); ok {
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool {
		a, _ := segFirstSeq(segs[i])
		b, _ := segFirstSeq(segs[j])
		return a < b
	})
	return segs, nil
}

// startSegment opens a fresh segment for seq+1 and makes its directory entry
// durable. Caller holds l.mu or has exclusive access.
func (l *Log) startSegment() error {
	name := segName(l.seq + 1)
	f, err := l.fs.Create(filepath.Join(l.opts.Dir, name))
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	if l.opts.Policy == SyncAlways {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := l.fs.SyncDir(l.opts.Dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.name, l.segStart = f, name, l.seq+1
	l.written = int64(len(segMagic))
	return nil
}

// AppendSynced writes one record and, under SyncAlways, makes it durable
// before returning. It reports the record's sequence number, which identifies
// it in replay, and how long its fsync took (zero when the policy does not
// fsync inline). The serving layer records the
// duration as a wal_fsync span on the committing query's trace, attributing
// durability cost to the statement that paid it.
func (l *Log) AppendSynced(kind byte, data []byte) (uint64, time.Duration, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, 0, errors.New("wal: log closed")
	}
	if l.failed != nil {
		return 0, 0, fmt.Errorf("%w: %w", ErrLogFailed, l.failed)
	}
	seq := l.seq + 1
	payload := make([]byte, 0, 9+len(data))
	payload = binary.BigEndian.AppendUint64(payload, seq)
	payload = append(payload, kind)
	payload = append(payload, data...)

	rec := make([]byte, recHdrSize, recHdrSize+len(payload))
	binary.BigEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(rec[4:8], crc32.Checksum(payload, castagnoli))
	rec = append(rec, payload...)

	if _, err := l.f.Write(rec); err != nil {
		// The write may have landed partially; l.written still marks the end
		// of the last intact record so Recover can cut the torn tail.
		l.failed = err
		return 0, 0, fmt.Errorf("wal: append: %w", err)
	}
	l.seq = seq
	l.written += int64(len(rec))
	l.dirty = true
	var syncDur time.Duration
	if l.opts.Policy == SyncAlways {
		start := time.Now()
		if err := l.syncLocked(); err != nil {
			return 0, 0, fmt.Errorf("wal: fsync: %w", err)
		}
		syncDur = time.Since(start)
	}
	return seq, syncDur, nil
}

// syncLocked fsyncs the current segment; caller holds l.mu.
func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		l.failed = err
		return err
	}
	l.dirty = false
	if l.opts.OnSync != nil {
		l.opts.OnSync(time.Since(start))
	}
	return nil
}

// Sync forces an fsync of everything appended so far.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.failed != nil {
		return l.failed
	}
	return l.syncLocked()
}

// LastSeq reports the sequence number of the most recent append (0 before
// the first). Under SyncAlways every reported record is durable.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Failed reports the sticky failure, if the log has latched one.
func (l *Log) Failed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Rotate closes the current segment and starts a new one. The checkpointer
// calls it after writing a snapshot so TrimBefore can release the old
// segments.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log closed")
	}
	if l.failed != nil {
		return fmt.Errorf("%w: %w", ErrLogFailed, l.failed)
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		l.failed = err
		return err
	}
	if err := l.startSegment(); err != nil {
		// A half-created next segment is a disk fault like any other: latch
		// it so appends fail fast and Recover can repair the log.
		l.failed = err
		return err
	}
	return nil
}

// Recover clears a latched write or fsync failure by repairing the log in
// place: it truncates the current segment back to the end of its last fully
// written record (cutting any torn tail the failing write left) and starts a
// fresh segment. Both steps do real disk I/O, so Recover fails — and the log
// stays failed — while the underlying fault (e.g. a full disk) persists. The
// degraded-mode probe calls this; on success the caller must re-checkpoint
// before acknowledging new writes, because records appended after the last
// successful fsync were never confirmed durable.
func (l *Log) Recover() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log closed")
	}
	if l.failed == nil {
		return nil
	}
	if l.f != nil {
		_ = l.f.Close()
	}
	if err := l.fs.Truncate(filepath.Join(l.opts.Dir, l.name), l.written); err != nil {
		return fmt.Errorf("wal: recover truncate: %w", err)
	}
	prev := l.failed
	l.failed = nil
	l.dirty = false
	if err := l.startSegment(); err != nil {
		l.failed = prev
		return fmt.Errorf("wal: recover: %w", err)
	}
	return nil
}

// TrimBefore removes whole segments whose every record is covered by a
// checkpoint at seq (i.e. all records <= seq). The current segment is never
// removed. It returns the number of segments deleted.
func (l *Log) TrimBefore(seq uint64) (int, error) {
	l.mu.Lock()
	cur := l.name
	l.mu.Unlock()

	segs, err := segments(l.fs, l.opts.Dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for i, name := range segs {
		if name == cur || i+1 >= len(segs) {
			break
		}
		// The segment's records all precede the next segment's first seq.
		next, _ := segFirstSeq(segs[i+1])
		if next > seq+1 {
			break
		}
		if err := l.fs.Remove(filepath.Join(l.opts.Dir, name)); err != nil {
			return removed, err
		}
		removed++
	}
	if removed > 0 {
		if err := l.fs.SyncDir(l.opts.Dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// SegmentCount reports how many segment files the directory currently holds.
func (l *Log) SegmentCount() (int, error) {
	segs, err := segments(l.fs, l.opts.Dir)
	return len(segs), err
}

// SizeBytes reports the total on-disk size of all segment files — the
// wal_size_bytes gauge the server exports. Segments that vanish mid-listing
// (a concurrent TrimBefore) are skipped, not errors.
func (l *Log) SizeBytes() (int64, error) {
	segs, err := segments(l.fs, l.opts.Dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, name := range segs {
		n, err := l.fs.Size(filepath.Join(l.opts.Dir, name))
		if err != nil {
			continue
		}
		total += n
	}
	return total, nil
}

// flushLoop is the SyncInterval background flusher.
func (l *Log) flushLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = l.Sync()
		case <-l.stop:
			return
		}
	}
}

// Close fsyncs and closes the log. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stop)
	l.wg.Wait()

	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.failed == nil {
		err = l.syncLocked()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
