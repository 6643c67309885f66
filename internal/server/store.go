package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sgb/internal/engine"
	"sgb/internal/obs"
	"sgb/internal/wal"
)

// checkpointFile is the snapshot the WAL tail replays on top of. Its header
// records the WAL sequence number the snapshot covers, CRC-protected like the
// log itself:
//
//	[8 bytes magic "SGBCKPT1"][8 bytes covered seq][4 bytes CRC32C of body][gob snapshot body]
const (
	checkpointFile  = "checkpoint.sgb"
	checkpointMagic = "SGBCKPT1"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrStoreClosed reports a mutating statement that reached the engine after
// Store.Close began: the log no longer accepts records, so the statement
// cannot be made durable and is failed rather than silently acknowledged.
var ErrStoreClosed = errors.New("server: store closed; statement not logged")

// ErrDegraded reports a write rejected because the store is degraded: a disk
// fault (ENOSPC, fsync failure) latched the WAL, so reads, subscriptions, and
// introspection keep serving but no statement can be made durable. A
// background probe repairs the log and promotes the store back to writable;
// the write is safe to retry after the probe interval.
var ErrDegraded = errors.New("server: store degraded (read-only): disk fault pending recovery")

// Resyncer is an optional CommitObserver extension. After the store promotes
// out of the degraded state it calls Resync with the engine and the current
// WAL seq: statements that applied in memory but failed durability never
// reached Commit, so derived state (materialized views) must rebuild from the
// engine's actual contents.
type Resyncer interface {
	Resync(db *engine.DB, seq uint64)
}

// defaultProbeInterval is how often the degraded-state probe retries disk
// recovery (and the retry-after hint handed to clients).
const defaultProbeInterval = time.Second

// StoreOptions configures a durable Store.
type StoreOptions struct {
	// Dir is the data directory (created if missing): checkpoint.sgb plus
	// wal-*.log segments.
	Dir string
	// Policy is the WAL fsync policy; the zero value is wal.SyncAlways.
	Policy wal.SyncPolicy
	// SyncInterval is the flush period under wal.SyncInterval.
	SyncInterval time.Duration
	// CheckpointInterval is the background checkpoint period; 0 disables the
	// background checkpointer (Checkpoint can still be called, and Close
	// always writes a final one).
	CheckpointInterval time.Duration
	// Metrics, when non-nil, replaces the recovered DB's registry before
	// replay so the wal_*/checkpoint_* series land in the server's registry.
	Metrics *obs.Registry
	// FS substitutes the filesystem (fault-injection tests); nil = real.
	FS wal.FS
	// Observer, when non-nil, follows the store's committed statement stream
	// (see CommitObserver). The stream layer hooks here to keep materialized
	// views incrementally maintained and to regenerate delta history on
	// recovery.
	Observer CommitObserver
	// ProbeInterval is how often the degraded-state probe attempts disk
	// recovery; 0 = one second. It doubles as the retry-after hint clients
	// receive with CodeReadOnly rejections.
	ProbeInterval time.Duration
}

// CommitObserver follows the store's committed statement stream — both the
// statements replayed from the WAL during recovery and every write logged
// live afterwards (each statement but SELECT and EXPLAIN, view DDL of both
// kinds included) — with each statement's WAL sequence number. Because the
// delta stream an observer derives is a deterministic function of the
// statement stream, replay regenerates exactly the history a crash lost.
//
// Bootstrap runs once during OpenStore, after the checkpoint image has loaded
// and before the WAL tail replays; seq is the sequence the checkpoint covers.
// Commit runs after a statement is applied and durable: during recovery from
// the replay loop, and live from inside the engine's commit hook (statement
// lock held, so observers may use engine read helpers like ScanFloats but
// must not re-enter the DB's statement path). Commit is infallible by design:
// view-maintenance problems must not fail writes, so observers record errors
// internally and surface them out of band.
type CommitObserver interface {
	Bootstrap(db *engine.DB, seq uint64)
	Commit(stmt engine.Statement, seq uint64)
}

// Store is a crash-durable engine.DB: a checkpoint snapshot plus a
// write-ahead log, wired into the engine's commit path. Open it with
// OpenStore; every acknowledged DML/DDL statement is appended (and, under
// SyncAlways, fsynced) to the log before the engine reports it successful,
// and recovery replays the log tail over the latest checkpoint.
type Store struct {
	opts StoreOptions
	db   *engine.DB
	log  *wal.Log
	fs   wal.FS

	// ckptMu serializes checkpoints (background timer vs Close vs manual).
	ckptMu   sync.Mutex
	replayed int

	// ckptSeq is the WAL sequence the latest durable checkpoint covers;
	// firstUncoveredNS is the unix-nano timestamp of the first commit after
	// that checkpoint (0 = the checkpoint covers everything). Together they
	// drive the checkpoint_lag_seq / checkpoint_lag_seconds gauges.
	ckptSeq          atomic.Uint64
	firstUncoveredNS atomic.Int64

	// degraded is the read-only latch: set on the first WAL append/fsync
	// failure, cleared by the probe after a successful log repair +
	// checkpoint. degradedMu guards the cause and entry time.
	degraded   atomic.Bool
	degradedMu sync.Mutex
	degradedAt time.Time
	degradedBy error

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// OpenStore recovers the database in opts.Dir — load the checkpoint if one
// exists, replay the WAL tail (truncating a torn final record), then open
// the log for appending and install the engine commit hook. The returned
// store is serving-ready.
func OpenStore(opts StoreOptions) (*Store, error) {
	if opts.FS == nil {
		opts.FS = wal.OS
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{opts: opts, fs: opts.FS, stop: make(chan struct{})}

	db, seq, err := s.loadCheckpoint()
	if err != nil {
		return nil, err
	}
	s.db = db
	if opts.Metrics != nil {
		db.SetMetrics(opts.Metrics)
	}
	m := db.Metrics()

	// Bootstrap the observer against the checkpoint image before the tail
	// replays, so replayed statements arrive as incremental commits on top of
	// the bootstrapped state — the same sequence a live subscriber saw.
	if opts.Observer != nil {
		opts.Observer.Bootstrap(db, seq)
	}

	// Replay the tail. The commit hook is not installed yet, so replayed
	// statements are not re-appended to the log.
	st, err := wal.Replay(s.fs, opts.Dir, seq, func(rec wal.Record) error {
		if rec.Kind != wal.KindStatement {
			return nil // unknown kinds are forward-compatible no-ops
		}
		// Parse once: the observer sees the typed statement that executed,
		// as the live hook hands it.
		stmt, err := engine.Parse(string(rec.Data))
		if err != nil {
			return err
		}
		if _, err := db.ExecStmtContext(context.Background(), stmt); err != nil {
			return err
		}
		if opts.Observer != nil {
			opts.Observer.Commit(stmt, rec.Seq)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("server: wal recovery in %s: %w", opts.Dir, err)
	}
	s.replayed = st.Applied
	m.Counter("wal_replayed_records_total").Add(int64(st.Applied))
	if st.Truncated {
		m.Counter("wal_truncations_total").Inc()
	}

	// Seed the log past both the replayed tail and the checkpoint's covered
	// seq. After a graceful shutdown the trimmed log is empty (LastSeq 0) and
	// the checkpoint alone carries the position; restarting numbering below
	// it would make the next recovery skip freshly acknowledged records as
	// already covered.
	startSeq := st.LastSeq
	if seq > startSeq {
		startSeq = seq
	}
	log, err := wal.Open(wal.Options{
		Dir:      opts.Dir,
		Policy:   opts.Policy,
		Interval: opts.SyncInterval,
		FS:       s.fs,
		OnSync: func(d time.Duration) {
			m.Histogram("wal_fsync_seconds", obs.DefBuckets).Observe(d.Seconds())
		},
	}, startSeq)
	if err != nil {
		return nil, fmt.Errorf("server: opening wal in %s: %w", opts.Dir, err)
	}
	s.log = log
	s.ckptSeq.Store(seq)
	s.updateSegmentGauge()
	s.updateLagGauges()

	// The engine calls the hook for every statement that takes the exclusive
	// lock, and each of them belongs in the log.
	db.SetCommitHook(func(stmt engine.Statement, sql string, tr *obs.Trace) error {
		if sql == "" {
			return errors.New("server: cannot log a pre-parsed statement; execute SQL text")
		}
		// Degraded fast path: while the disk fault stands, reject writes with
		// the typed error instead of hammering the latched log. Reads never
		// reach the hook and keep serving.
		if s.degraded.Load() {
			return s.degradedError()
		}
		appendStart := time.Now()
		seq, syncDur, err := s.log.AppendSynced(wal.KindStatement, []byte(sql))
		if err != nil {
			// First disk fault: enter the managed degraded state. The probe
			// loop owns the way back.
			s.enterDegraded(err)
			return fmt.Errorf("%w: %w", ErrDegraded, err)
		}
		// Attribute the durability cost to the committing statement's trace:
		// wal_append is the record write, wal_fsync the inline fsync (zero
		// duration under interval/never policies, where no fsync blocks the
		// commit).
		total := time.Since(appendStart)
		tr.AddSpan("wal_append", appendStart, total-syncDur)
		tr.AddSpan("wal_fsync", appendStart.Add(total-syncDur), syncDur)
		m.Counter("wal_appends_total").Inc()
		m.Counter("wal_append_bytes_total").Add(int64(len(sql)))
		s.firstUncoveredNS.CompareAndSwap(0, time.Now().UnixNano())
		m.Gauge("checkpoint_lag_seq").Set(float64(s.log.LastSeq() - s.ckptSeq.Load()))
		if opts.Observer != nil {
			// After durability: the observer only ever sees acknowledged-able
			// statements, stamped with their WAL sequence.
			opts.Observer.Commit(stmt, seq)
		}
		return nil
	})

	if opts.CheckpointInterval > 0 {
		s.wg.Add(1)
		go s.checkpointLoop()
	}
	s.wg.Add(1)
	go s.lagLoop()
	m.Gauge("server_degraded").Set(0)
	s.wg.Add(1)
	go s.probeLoop()
	return s, nil
}

// probeInterval is the degraded-probe period / client retry-after hint.
func (s *Store) probeInterval() time.Duration {
	if s.opts.ProbeInterval > 0 {
		return s.opts.ProbeInterval
	}
	return defaultProbeInterval
}

// RetryAfter is the hint handed to clients with CodeReadOnly rejections: the
// earliest the probe could have promoted the store back to writable.
func (s *Store) RetryAfter() time.Duration { return s.probeInterval() }

// Degraded reports whether the store is in the read-only degraded state,
// with the triggering fault and entry time.
func (s *Store) Degraded() (degraded bool, cause error, since time.Time) {
	if !s.degraded.Load() {
		return false, nil, time.Time{}
	}
	s.degradedMu.Lock()
	defer s.degradedMu.Unlock()
	return true, s.degradedBy, s.degradedAt
}

// degradedError renders the current rejection, wrapping ErrDegraded so
// callers classify with errors.Is through the DurabilityError layer.
func (s *Store) degradedError() error {
	s.degradedMu.Lock()
	cause := s.degradedBy
	s.degradedMu.Unlock()
	if cause != nil {
		return fmt.Errorf("%w: %w", ErrDegraded, cause)
	}
	return ErrDegraded
}

// enterDegraded latches the read-only state (idempotent).
func (s *Store) enterDegraded(cause error) {
	if s.degraded.Swap(true) {
		return
	}
	s.degradedMu.Lock()
	s.degradedBy = cause
	s.degradedAt = time.Now()
	s.degradedMu.Unlock()
	m := s.db.Metrics()
	m.Gauge("server_degraded").Set(1)
	m.Counter("server_degraded_transitions_total").Inc()
}

// probeLoop is the way back from degraded: every probe interval it re-checks
// the disk and promotes the store to writable once a full repair succeeds.
func (s *Store) probeLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.probeInterval())
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if s.degraded.Load() {
				s.tryPromote()
			}
		case <-s.stop:
			return
		}
	}
}

// tryPromote attempts the degraded→writable transition: recover the log (it
// truncates the torn tail and starts a fresh, clean segment — real disk I/O,
// so it fails while the fault persists), then write a checkpoint making every
// statement the engine has applied durable (statements whose hook failed are
// in memory with no WAL record — the snapshot is what makes them safe), then
// resync derived state, and only then reopen for writes.
func (s *Store) tryPromote() bool {
	m := s.db.Metrics()
	if err := s.log.Recover(); err != nil {
		m.Counter("server_degraded_probe_failures_total").Inc()
		return false
	}
	if err := s.Checkpoint(); err != nil {
		m.Counter("server_degraded_probe_failures_total").Inc()
		return false
	}
	if r, ok := s.opts.Observer.(Resyncer); ok {
		r.Resync(s.db, s.log.LastSeq())
	}
	s.degraded.Store(false)
	m.Gauge("server_degraded").Set(0)
	m.Counter("server_degraded_recoveries_total").Inc()
	return true
}

// DB returns the recovered database. Its commit hook is owned by the store;
// do not replace it.
func (s *Store) DB() *engine.DB { return s.db }

// ReplayedRecords reports how many WAL records recovery applied at open.
func (s *Store) ReplayedRecords() int { return s.replayed }

// loadCheckpoint reads checkpoint.sgb if present. A missing file starts
// empty; a corrupt one (bad magic or CRC — e.g. a torn write from a crash
// during a pre-rename filesystem, which the atomic rename protocol should
// prevent) is an error rather than silent data loss.
func (s *Store) loadCheckpoint() (*engine.DB, uint64, error) {
	path := filepath.Join(s.opts.Dir, checkpointFile)
	f, err := s.fs.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return engine.NewDB(), 0, nil
		}
		return nil, 0, err
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, err
	}
	if len(raw) < len(checkpointMagic)+12 || string(raw[:len(checkpointMagic)]) != checkpointMagic {
		return nil, 0, fmt.Errorf("server: checkpoint %s: bad header", path)
	}
	seq := binary.BigEndian.Uint64(raw[8:16])
	wantCRC := binary.BigEndian.Uint32(raw[16:20])
	body := raw[20:]
	if crc32.Checksum(body, crcTable) != wantCRC {
		return nil, 0, fmt.Errorf("server: checkpoint %s: checksum mismatch", path)
	}
	db, err := engine.Load(bytes.NewReader(body))
	if err != nil {
		return nil, 0, fmt.Errorf("server: checkpoint %s: %w", path, err)
	}
	return db, seq, nil
}

// Checkpoint writes a snapshot covering every committed statement, durably
// and atomically (temp file, fsync, rename, directory fsync), then rotates
// the log and trims segments the snapshot covers — bounding recovery time.
func (s *Store) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	m := s.db.Metrics()
	start := time.Now()

	// SaveLocked holds the statement lock in read mode, and commits append
	// under the exclusive lock, so the captured seq is exactly the last
	// statement inside the snapshot.
	var buf bytes.Buffer
	var seq uint64
	if err := s.db.SaveLocked(&buf, func() { seq = s.log.LastSeq() }); err != nil {
		m.Counter("checkpoint_failures_total").Inc()
		return err
	}

	path := filepath.Join(s.opts.Dir, checkpointFile)
	tmp := path + ".tmp"
	if err := s.writeCheckpointFile(tmp, seq, buf.Bytes()); err != nil {
		m.Counter("checkpoint_failures_total").Inc()
		_ = s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		m.Counter("checkpoint_failures_total").Inc()
		_ = s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.SyncDir(s.opts.Dir); err != nil {
		m.Counter("checkpoint_failures_total").Inc()
		return err
	}

	// The snapshot is durable: the log prefix it covers can be released.
	if err := s.log.Rotate(); err != nil {
		return err
	}
	if _, err := s.log.TrimBefore(seq); err != nil {
		return err
	}
	s.updateSegmentGauge()
	s.ckptSeq.Store(seq)
	// If commits landed while the snapshot was being written they remain
	// uncovered; restart the lag clock at the checkpoint instant rather than
	// keeping the older stamp.
	if s.log.LastSeq() == seq {
		s.firstUncoveredNS.Store(0)
	} else {
		s.firstUncoveredNS.Store(time.Now().UnixNano())
	}
	s.updateLagGauges()
	m.Counter("checkpoints_total").Inc()
	m.Gauge("checkpoint_last_seq").Set(float64(seq))
	m.Histogram("checkpoint_seconds", obs.DefBuckets).Observe(time.Since(start).Seconds())
	return nil
}

// writeCheckpointFile writes and fsyncs one checkpoint image at path.
func (s *Store) writeCheckpointFile(path string, seq uint64, body []byte) error {
	f, err := s.fs.Create(path)
	if err != nil {
		return err
	}
	hdr := make([]byte, 0, 20)
	hdr = append(hdr, checkpointMagic...)
	hdr = binary.BigEndian.AppendUint64(hdr, seq)
	hdr = binary.BigEndian.AppendUint32(hdr, crc32.Checksum(body, crcTable))
	_, err = f.Write(hdr)
	if err == nil {
		_, err = f.Write(body)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *Store) updateSegmentGauge() {
	if n, err := s.log.SegmentCount(); err == nil {
		s.db.Metrics().Gauge("wal_segments").Set(float64(n))
	}
}

// updateLagGauges refreshes the durability-telemetry gauges: how far the log
// has run ahead of the last checkpoint (in records and in seconds) and the
// log's on-disk footprint.
func (s *Store) updateLagGauges() {
	m := s.db.Metrics()
	m.Gauge("checkpoint_lag_seq").Set(float64(s.log.LastSeq() - s.ckptSeq.Load()))
	var lagSec float64
	if ns := s.firstUncoveredNS.Load(); ns > 0 {
		lagSec = time.Since(time.Unix(0, ns)).Seconds()
	}
	m.Gauge("checkpoint_lag_seconds").Set(lagSec)
	if n, err := s.log.SizeBytes(); err == nil {
		m.Gauge("wal_size_bytes").Set(float64(n))
	}
}

// lagLoop keeps the checkpoint-lag and WAL-size gauges fresh between
// commits, so an idle-but-behind server still reports its true lag.
func (s *Store) lagLoop() {
	defer s.wg.Done()
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.updateLagGauges()
			s.updateSegmentGauge()
		case <-s.stop:
			return
		}
	}
}

// checkpointLoop is the background checkpointer.
func (s *Store) checkpointLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			// Failures are counted (checkpoint_failures_total) and retried
			// next tick; the WAL still protects everything since the last
			// successful checkpoint.
			_ = s.Checkpoint()
		case <-s.stop:
			return
		}
	}
}

// Close stops the checkpointer, writes a final checkpoint (the graceful-
// shutdown snapshot), and closes the log. Safe to call more than once.
//
// Close fences the commit path rather than unhooking it: any mutating
// statement that reaches the engine after the fence fails with
// ErrStoreClosed instead of being acknowledged with neither a WAL record nor
// checkpoint coverage. The fence stays installed after Close — this store
// owns the DB's durability and can no longer provide it.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.wg.Wait()
		s.db.SetCommitHook(func(engine.Statement, string, *obs.Trace) error {
			return ErrStoreClosed
		})
		var err error
		if s.degraded.Load() && s.log.Recover() != nil {
			// Disk still broken: a final snapshot cannot be written. Safe —
			// no write was acknowledged while degraded, so the last durable
			// checkpoint plus the WAL still cover everything acknowledged.
			err = s.degradedError()
		} else {
			err = s.Checkpoint()
		}
		if cerr := s.log.Close(); err == nil {
			err = cerr
		}
		s.closeErr = err
	})
	return s.closeErr
}
