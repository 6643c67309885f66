package server

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sgb/internal/core"
)

// TestSnapshotRoundTrip covers the server's snapshot save/load cycle, the
// store checkpoint: tables with data, an empty table, secondary indexes and
// the SGB algorithm selection must all survive a reopen, and the recovered
// database must answer queries (including index-assisted and SGB ones)
// identically to the original.
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db := s1.DB()
	db.SetSGBAlgorithm(core.BoundsChecking)
	mustExec(t, db, "CREATE TABLE pts (id INT, x FLOAT, y FLOAT, tag TEXT)")
	mustExec(t, db, `INSERT INTO pts VALUES
		(1, 0.5, 0.5, 'a'), (2, 1.0, 1.25, 'a'), (3, 9.0, 9.5, 'b'),
		(4, 9.25, 9.75, 'b'), (5, 50.0, 50.0, 'c')`)
	mustExec(t, db, "CREATE TABLE empty_t (n INT)")
	mustExec(t, db, "CREATE INDEX pts_tag ON pts (tag)")
	if err := s1.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Crash after the checkpoint: the reopen must come from the snapshot.
	s2, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if got := s2.ReplayedRecords(); got != 0 {
		t.Errorf("replayed %d records, want 0 (the snapshot covers every write)", got)
	}
	loaded := s2.DB()

	if got := loaded.SGBAlgorithm(); got != core.BoundsChecking {
		t.Errorf("SGB algorithm not restored: got %v", got)
	}
	if names := loaded.Catalog().Names(); len(names) != 2 {
		t.Errorf("catalog names = %v, want 2 tables", names)
	}
	tab, err := loaded.Catalog().Get("pts")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Indexes) != 1 || tab.Indexes[0].Name != "pts_tag" {
		t.Errorf("index not restored: %+v", tab.Indexes)
	}

	// Queries over the restored DB match the original, including one the
	// restored index serves and one through the restored SGB algorithm.
	for _, q := range []string{
		"SELECT id FROM pts WHERE tag = 'b' ORDER BY id",
		"SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 2 ON-OVERLAP FORM-NEW-GROUP ORDER BY count(*)",
		"SELECT count(*) FROM empty_t",
	} {
		want, err := db.Exec(q)
		if err != nil {
			t.Fatalf("original %q: %v", q, err)
		}
		got, err := loaded.Exec(q)
		if err != nil {
			t.Fatalf("restored %q: %v", q, err)
		}
		sameResult(t, q, got, want)
	}
}

// TestSnapshotCorruptedFile pins the error path: a truncated or garbage
// snapshot must fail the reopen loudly, naming the file, not produce an
// empty database.
func TestSnapshotCorruptedFile(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s.DB(), "CREATE TABLE t (n INT)")
	mustExec(t, s.DB(), "INSERT INTO t VALUES (1), (2), (3)")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}

	// reopen opens a store on a fresh directory whose only file is a
	// snapshot holding image (Close trimmed the log the snapshot covers).
	reopen := func(t *testing.T, image []byte) error {
		t.Helper()
		bad := t.TempDir()
		if err := os.WriteFile(filepath.Join(bad, checkpointFile), image, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenStore(StoreOptions{Dir: bad})
		if err == nil {
			s.Close()
		}
		return err
	}
	t.Run("truncated", func(t *testing.T) {
		if err := reopen(t, raw[:len(raw)/2]); err == nil {
			t.Fatal("truncated snapshot loaded without error")
		} else if !strings.Contains(err.Error(), checkpointFile) {
			t.Errorf("error does not identify the snapshot: %v", err)
		}
	})
	t.Run("garbage", func(t *testing.T) {
		if err := reopen(t, []byte("this is not a gob stream at all")); err == nil {
			t.Fatal("garbage snapshot loaded without error")
		}
	})
}
