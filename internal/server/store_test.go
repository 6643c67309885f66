package server

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"sgb/internal/engine"
	"sgb/internal/wal"
)

// mustExec runs one statement or fails the test.
func mustExec(t *testing.T, db *engine.DB, sql string) {
	t.Helper()
	if _, err := db.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// countRows reads count(*) from t.
func countRows(t *testing.T, db *engine.DB, table string) int64 {
	t.Helper()
	res, err := db.Query("SELECT count(*) FROM " + table)
	if err != nil {
		t.Fatalf("count(%s): %v", table, err)
	}
	return res.Rows[0][0].I
}

// TestStoreRecoversFromWALOnly simulates a crash: the first store is simply
// abandoned (no Close, so no final checkpoint), and a second store on the
// same directory must rebuild every acknowledged statement from the log.
func TestStoreRecoversFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s1.DB(), "CREATE TABLE pts (id INT, x FLOAT, y FLOAT)")
	for i := 0; i < 10; i++ {
		mustExec(t, s1.DB(), fmt.Sprintf("INSERT INTO pts VALUES (%d, %d.5, %d.5)", i, i, i))
	}
	mustExec(t, s1.DB(), "DELETE FROM pts WHERE id = 0")
	mustExec(t, s1.DB(), "UPDATE pts SET x = 100.0 WHERE id = 1")
	// Crash: no Close, no checkpoint.

	s2, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.ReplayedRecords(); got != 13 {
		t.Errorf("replayed %d records, want 13", got)
	}
	if n := countRows(t, s2.DB(), "pts"); n != 9 {
		t.Errorf("recovered %d rows, want 9", n)
	}
	res, err := s2.DB().Query("SELECT x FROM pts WHERE id = 1")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].F != 100.0 {
		t.Errorf("UPDATE not replayed: %+v err=%v", res, err)
	}
	if got := s2.DB().Metrics().Counter("wal_replayed_records_total").Value(); got != 13 {
		t.Errorf("wal_replayed_records_total = %d", got)
	}
}

// explainEstRows reads est_rows from row 0 of sql's EXPLAIN.
func explainEstRows(t *testing.T, db *engine.DB, sql string) float64 {
	t.Helper()
	res, err := db.Exec("EXPLAIN " + sql)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", sql, err)
	}
	line := res.Rows[0][0].S
	_, rest, ok := strings.Cut(line, "est_rows=")
	if !ok {
		t.Fatalf("EXPLAIN row 0 has no est_rows=: %q", line)
	}
	v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
	if err != nil {
		t.Fatalf("EXPLAIN row 0 est_rows is not a number: %q", line)
	}
	return v
}

// TestStoreReplaysAnalyze: ANALYZE is a logged write, so statistics taken
// before a crash (no Close, no checkpoint) are the statistics after recovery,
// and the plan's row estimates read the same.
func TestStoreReplaysAnalyze(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s1.DB(), "CREATE TABLE pts (id INT, x FLOAT, y FLOAT)")
	for i := 0; i < 10; i++ {
		mustExec(t, s1.DB(), fmt.Sprintf("INSERT INTO pts VALUES (%d, %d.5, %d.5)", i, i, i))
	}
	const q = "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.1"
	unanalyzed := explainEstRows(t, s1.DB(), q)
	mustExec(t, s1.DB(), "ANALYZE")
	before := explainEstRows(t, s1.DB(), q)
	if before == unanalyzed {
		t.Fatalf("ANALYZE left est_rows at %v: the statistics move no estimate to lose", before)
	}
	// Crash: no Close, no checkpoint.

	s2, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.ReplayedRecords(); got != 12 {
		t.Errorf("replayed %d records, want 12", got)
	}
	if after := explainEstRows(t, s2.DB(), q); after != before {
		t.Errorf("est_rows %v before the crash, %v after recovery", before, after)
	}
}

// TestStoreCheckpointBoundsReplay: after a checkpoint, recovery replays only
// the records past it, and covered segments are trimmed.
func TestStoreCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s1.DB(), "CREATE TABLE t (x INT)")
	for i := 0; i < 5; i++ {
		mustExec(t, s1.DB(), fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	if err := s1.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointFile)); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}
	// Two more statements after the checkpoint, then crash.
	mustExec(t, s1.DB(), "INSERT INTO t VALUES (100)")
	mustExec(t, s1.DB(), "INSERT INTO t VALUES (101)")

	s2, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.ReplayedRecords(); got != 2 {
		t.Errorf("replayed %d records, want 2 (checkpoint covers the rest)", got)
	}
	if n := countRows(t, s2.DB(), "t"); n != 7 {
		t.Errorf("recovered %d rows, want 7", n)
	}
	if got := s2.DB().Metrics().Counter("checkpoints_total").Value(); got != 0 {
		t.Errorf("fresh store inherited checkpoint count %d", got)
	}
}

// TestReplayKeepsScanOrder pins the premise statement-level replay relies
// on: after checkpoint + WAL replay, every table scans in the same row order
// as before the crash, so an SGB-All statement, whose clique arbitration
// depends on the order rows arrive in, gives the same answer. A control
// table holds the same rows in another order and must group them
// differently, or the test could not tell the orders apart.
func TestReplayKeepsScanOrder(t *testing.T) {
	const sgbAll = " GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 1 ON-OVERLAP JOIN-ANY"
	scan := func(db *engine.DB, sql string) string {
		t.Helper()
		res, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return fmt.Sprint(res.Rows)
	}
	dir := t.TempDir()
	s1, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db := s1.DB()
	mustExec(t, db, "CREATE TABLE pts (id INT, x FLOAT, y FLOAT)")
	mustExec(t, db, "CREATE TABLE ctl (id INT, x FLOAT, y FLOAT)")
	insert := func(i int) {
		mustExec(t, db, fmt.Sprintf("INSERT INTO pts VALUES (%d, %g, 0)", i, float64(i*7%20)*0.4))
	}
	for i := 0; i < 20; i++ {
		insert(i)
	}
	for i := 0; i < 20; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO ctl SELECT * FROM pts WHERE id = %d", i*3%20))
	}
	if ctl, pts := scan(db, "SELECT count(*) FROM ctl"+sgbAll), scan(db, "SELECT count(*) FROM pts"+sgbAll); ctl == pts {
		t.Fatalf("the same rows in another order form the same groups %s: order does not matter here", ctl)
	}
	mustExec(t, db, "DELETE FROM pts WHERE id = 3")
	mustExec(t, db, "UPDATE pts SET y = 0.5 WHERE id = 4")
	if err := s1.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for i := 20; i < 30; i++ {
		insert(i)
	}
	mustExec(t, db, "DELETE FROM pts WHERE id = 21")
	mustExec(t, db, "UPDATE pts SET x = 2.2 WHERE id = 5")
	rows := scan(db, "SELECT id, x, y FROM pts")
	answer := scan(db, "SELECT min(id), count(*) FROM pts"+sgbAll)
	// Crash: no Close, so the log tail past the checkpoint is replayed.

	s2, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.ReplayedRecords() == 0 {
		t.Fatal("nothing replayed: the test no longer covers the log tail")
	}
	if got := scan(s2.DB(), "SELECT id, x, y FROM pts"); got != rows {
		t.Errorf("replayed table scans\n%s\nbefore the crash\n%s", got, rows)
	}
	if got := scan(s2.DB(), "SELECT min(id), count(*) FROM pts"+sgbAll); got != answer {
		t.Errorf("SGB-All JOIN-ANY after replay = %s, before the crash %s", got, answer)
	}
}

// TestStoreGracefulClose: Close writes a final checkpoint, so a clean
// restart replays nothing.
func TestStoreGracefulClose(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s1.DB(), "CREATE TABLE t (x INT)")
	mustExec(t, s1.DB(), "INSERT INTO t VALUES (1), (2), (3)")
	if err := s1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	s2, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.ReplayedRecords(); got != 0 {
		t.Errorf("replayed %d records after graceful close, want 0", got)
	}
	if n := countRows(t, s2.DB(), "t"); n != 3 {
		t.Errorf("recovered %d rows, want 3", n)
	}
}

// TestStoreSeqContinuesAfterGracefulRestart pins the regression where a
// graceful close (checkpoint + trimmed, empty log) made the next generation
// restart WAL numbering at 1: its acknowledged writes then carried seqs at
// or below the checkpoint's covered seq, and a later recovery skipped them
// as already covered — open → write → close → open → write → crash → open
// lost the second-generation write.
func TestStoreSeqContinuesAfterGracefulRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s1.DB(), "CREATE TABLE t (x INT)")
	mustExec(t, s1.DB(), "INSERT INTO t VALUES (1)")
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s2.DB(), "INSERT INTO t VALUES (2)")
	// Crash: abandon s2 without Close — no final checkpoint.

	s3, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.ReplayedRecords(); got != 1 {
		t.Errorf("replayed %d records, want 1 (the post-restart insert)", got)
	}
	if n := countRows(t, s3.DB(), "t"); n != 2 {
		t.Errorf("recovered %d rows, want 2 — second-generation write lost", n)
	}
}

// TestStoreCloseFencesLateWrites: once Close has run, a mutating statement
// must fail with ErrStoreClosed rather than be acknowledged with neither a
// WAL record nor checkpoint coverage; reads keep working.
func TestStoreCloseFencesLateWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s.DB(), "CREATE TABLE t (x INT)")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = s.DB().Exec("INSERT INTO t VALUES (1)")
	var de *engine.DurabilityError
	if !errors.As(err, &de) || !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("write after close: %v, want DurabilityError wrapping ErrStoreClosed", err)
	}
	if _, err := s.DB().Query("SELECT count(*) FROM t"); err != nil {
		t.Fatalf("read after close: %v", err)
	}
	// The fenced write was never acknowledged, so recovery must not show it.
	s2, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := countRows(t, s2.DB(), "t"); n != 0 {
		t.Errorf("recovered %d rows, want 0 — unlogged write resurfaced", n)
	}
}

// TestStoreTornTailRecovery tears the final WAL record (as a mid-append
// crash would) and verifies recovery truncates it: every earlier statement
// survives, the torn one vanishes, and the store keeps serving writes.
func TestStoreTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s1.DB(), "CREATE TABLE t (x INT)")
	for i := 0; i < 5; i++ {
		mustExec(t, s1.DB(), fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	// Crash, then tear the last record in the active segment.
	seg := filepath.Join(dir, "wal-0000000000000001.log")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-4); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.ReplayedRecords(); got != 5 {
		t.Errorf("replayed %d records, want 5 (6 minus the torn tail)", got)
	}
	if n := countRows(t, s2.DB(), "t"); n != 4 {
		t.Errorf("recovered %d rows, want 4", n)
	}
	if got := s2.DB().Metrics().Counter("wal_truncations_total").Value(); got != 1 {
		t.Errorf("wal_truncations_total = %d", got)
	}
	// The store must accept and persist new writes after the repair.
	mustExec(t, s2.DB(), "INSERT INTO t VALUES (99)")
	s2.Close()

	s3, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if n := countRows(t, s3.DB(), "t"); n != 5 {
		t.Errorf("after repair + write: %d rows, want 5", n)
	}
}

// TestStoreFaultInjection drives the store through an injected disk failure:
// the failing statement surfaces a typed DurabilityError (never
// acknowledged), later writes fail fast, and recovery yields exactly the
// acknowledged prefix.
func TestStoreFaultInjection(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS(wal.OS)
	// A long probe interval keeps the degraded state latched for the whole
	// test: this test asserts the fail-fast behavior, not the auto-promotion
	// (TestStoreDegradedPromotes covers that).
	s1, err := OpenStore(StoreOptions{Dir: dir, FS: ffs, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s1.DB(), "CREATE TABLE t (x INT)")
	acked := 0
	for i := 0; i < 3; i++ {
		mustExec(t, s1.DB(), fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
		acked++
	}
	// The next WAL write tears half-way through.
	ffs.FailWriteAt(1, true)
	_, err = s1.DB().Exec("INSERT INTO t VALUES (1000)")
	var de *engine.DurabilityError
	if !errors.As(err, &de) || !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("injected failure surfaced as %v, want DurabilityError wrapping ErrInjected", err)
	}
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("injected failure surfaced as %v, want ErrDegraded in the chain", err)
	}
	// The store is degraded: subsequent writes fail fast without touching disk.
	_, err = s1.DB().Exec("INSERT INTO t VALUES (1001)")
	if !errors.As(err, &de) || !errors.Is(err, ErrDegraded) {
		t.Fatalf("post-failure write surfaced as %v, want DurabilityError wrapping ErrDegraded", err)
	}
	// Reads still work on the in-process state.
	if _, err := s1.DB().Query("SELECT count(*) FROM t"); err != nil {
		t.Fatalf("read after wal failure: %v", err)
	}

	// Recovery (healthy disk) sees exactly the acknowledged statements; the
	// torn record from the injected short write is truncated away.
	s2, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := countRows(t, s2.DB(), "t"); n != int64(acked) {
		t.Errorf("recovered %d rows, want %d acknowledged", n, acked)
	}
}

// TestStoreBackgroundCheckpointer: a short interval produces checkpoints
// without any manual call.
func TestStoreBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(StoreOptions{Dir: dir, CheckpointInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s.DB(), "CREATE TABLE t (x INT)")
	mustExec(t, s.DB(), "INSERT INTO t VALUES (1)")
	deadline := time.Now().Add(5 * time.Second)
	for s.DB().Metrics().Counter("checkpoints_total").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background checkpointer never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Close()
	if _, err := os.Stat(filepath.Join(dir, checkpointFile)); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}
}

// TestStoreLogsOnlyWrites classifies every statement kind: each statement
// that takes the exclusive lock appends exactly one WAL record, and SELECT
// and EXPLAIN append none. The kinds are the engine's types with a stmt()
// method, found with go/parser; a kind with no row here fails the test.
func TestStoreLogsOnlyWrites(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "rows.csv")
	if err := os.WriteFile(csvPath, []byte("x\n5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	db := s.DB()
	mustExec(t, db, "CREATE TABLE t (x INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	rows := []struct {
		sql     string
		records int64
	}{
		{"SELECT x FROM t", 0},
		{"EXPLAIN SELECT x FROM t", 0},
		{"CREATE TABLE u (x INT)", 1},
		{"INSERT INTO t VALUES (2)", 1},
		{"UPDATE t SET x = 3 WHERE x = 2", 1},
		{"DELETE FROM t WHERE x = 3", 1},
		{"COPY t FROM '" + csvPath + "'", 1},
		{"ANALYZE t", 1},
		{"CREATE INDEX t_x ON t (x)", 1},
		{"DROP INDEX t_x ON t", 1},
		{"CREATE VIEW v AS SELECT x FROM t", 1},
		{"DROP VIEW v", 1},
		{"CREATE MATERIALIZED VIEW mv AS SELECT x FROM t GROUP BY x DISTANCE-TO-ANY L2 WITHIN 1", 1},
		{"DROP MATERIALIZED VIEW mv", 1},
		{"DROP TABLE u", 1},
	}
	appends := db.Metrics().Counter("wal_appends_total")
	covered := map[string]bool{}
	for _, r := range rows {
		stmt, err := engine.Parse(r.sql)
		if err != nil {
			t.Fatalf("%s: %v", r.sql, err)
		}
		covered[reflect.TypeOf(stmt).Elem().Name()] = true
		base := appends.Value()
		mustExec(t, db, r.sql)
		if got := appends.Value() - base; got != r.records {
			t.Errorf("%s appended %d WAL records, want %d", r.sql, got, r.records)
		}
	}
	kinds := statementKinds(t)
	if len(kinds) == 0 {
		t.Fatal("found no statement kinds")
	}
	for _, kind := range kinds {
		if !covered[kind] {
			t.Errorf("statement kind %s has no row here: classify it", kind)
		}
	}
}

// statementKinds lists the engine's statement types: the receivers of its
// stmt() methods, read from the package's non-test source.
func statementKinds(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "engine", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, dl := range f.Decls {
			fn, ok := dl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "stmt" {
				continue
			}
			if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
				if id, ok := star.X.(*ast.Ident); ok {
					kinds = append(kinds, id.Name)
				}
			}
		}
	}
	return kinds
}

// TestStoreReplaysView: view DDL is logged and views are checkpointed, so a
// log holding DML that reads a view replays after a crash, the view answers
// after a graceful restart, and its DROP replays too.
func TestStoreReplaysView(t *testing.T) {
	dir := t.TempDir()
	open := func() *Store {
		t.Helper()
		s, err := OpenStore(StoreOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	query := func(s *Store, sql string) *engine.Result {
		t.Helper()
		res, err := s.DB().Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	const bRows, vRows = "SELECT x FROM b ORDER BY x", "SELECT x FROM v ORDER BY x"
	s := open()
	mustExec(t, s.DB(), "CREATE TABLE a (x INT)")
	mustExec(t, s.DB(), "INSERT INTO a VALUES (1), (2), (3)")
	mustExec(t, s.DB(), "CREATE VIEW v AS SELECT x FROM a WHERE x > 1")
	mustExec(t, s.DB(), "CREATE TABLE b (x INT)")
	mustExec(t, s.DB(), "INSERT INTO b SELECT x FROM v")
	want := query(s, bRows)
	if len(want.Rows) != 2 {
		t.Fatalf("b holds %d rows, want 2", len(want.Rows))
	}

	// Crash: no Close, no checkpoint. The WAL alone rebuilds the view.
	s = open()
	sameResult(t, "b after crash", query(s, bRows), want)
	// Graceful restart: the checkpoint alone carries the view.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = open()
	if got := s.ReplayedRecords(); got != 0 {
		t.Errorf("replayed %d records after a graceful restart, want 0", got)
	}
	sameResult(t, "v after restart", query(s, vRows), want)

	// The DROP replays: after a crash the view is gone and b is unchanged.
	mustExec(t, s.DB(), "DROP VIEW v")
	s = open()
	if _, err := s.DB().Query(vRows); err == nil {
		t.Error("dropped view v answers after recovery")
	}
	sameResult(t, "b after the drop", query(s, bRows), want)

	// After Close, view DDL meets the fence like every other write.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DB().Exec("CREATE VIEW w AS SELECT x FROM b"); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("view DDL after Close: %v, want ErrStoreClosed", err)
	}
}

// TestHealthEndpoints pins the liveness/readiness contract: /healthz is
// always 200, /readyz tracks SetReady.
func TestHealthEndpoints(t *testing.T) {
	h := NewHealth()
	mux := http.NewServeMux()
	h.Register(mux)
	get := func(path string) int {
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec.Code
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz before ready: %d", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz before ready: %d", got)
	}
	h.SetReady(true)
	if got := get("/readyz"); got != http.StatusOK {
		t.Errorf("/readyz when ready: %d", got)
	}
	if !h.Ready() {
		t.Error("Ready() = false after SetReady(true)")
	}
	// Drain: readiness drops, liveness stays.
	h.SetReady(false)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain: %d", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz during drain: %d", got)
	}
}
