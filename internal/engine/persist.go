package engine

import (
	"encoding/gob"
	"fmt"
	"io"
)

// snapshot is the gob-encoded durable form of a database: the full catalog.
// The engine is an in-memory system like the paper's prototype; snapshot
// persistence lets long-lived datasets (generated benchmarks, loaded CSVs) be
// saved and reopened without regeneration. Views of both kinds are catalog
// objects and are stored as their name plus the original SELECT text. Session
// settings are not data and are not stored: gob skips the SGBAlg and
// SGBManual fields older snapshots still carry, and a loaded DB starts from
// the default settings.
type snapshot struct {
	Version int
	Tables  []*Table
	// MatViews and Views are additive fields: snapshots from before each kind
	// was persisted decode them empty.
	MatViews []savedView
	Views    []savedView
}

// savedView is the persisted form of one view definition.
type savedView struct {
	Name string
	SQL  string
}

const snapshotVersion = 1

// Save writes a snapshot of the database to w. It takes the statement lock in
// read mode, so it sees a consistent catalog even with queries in flight.
func (db *DB) Save(w io.Writer) error { return db.SaveLocked(w, nil) }

// SaveLocked is Save with a callback invoked while the statement lock is
// held in read mode. Commit hooks run under the exclusive lock, so any state
// the callback captures (in particular the WAL position) is exactly
// consistent with the snapshot — this is how the checkpointer records which
// log prefix a snapshot covers.
func (db *DB) SaveLocked(w io.Writer, locked func()) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if locked != nil {
		locked()
	}
	snap := snapshot{Version: snapshotVersion}
	for _, name := range db.cat.Names() {
		t, err := db.cat.Get(name)
		if err != nil {
			return err
		}
		snap.Tables = append(snap.Tables, t)
	}
	for _, v := range db.cat.sortedViews(true) {
		snap.MatViews = append(snap.MatViews, savedView{Name: v.Name, SQL: v.SQL})
	}
	for _, v := range db.cat.sortedViews(false) {
		snap.Views = append(snap.Views, savedView{Name: v.Name, SQL: v.SQL})
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// Load restores a database from a snapshot written by Save.
func Load(r io.Reader) (*DB, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("engine: loading snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("engine: unsupported snapshot version %d", snap.Version)
	}
	db := NewDB()
	for _, t := range snap.Tables {
		created, err := db.cat.Create(t.Name, t.Schema)
		if err != nil {
			return nil, err
		}
		// Create re-qualifies the schema by table name; keep the stored
		// qualification, rows, statistics and index metadata as-is (index
		// buckets are rebuilt lazily on first use).
		created.Schema = t.Schema
		created.Rows = t.Rows
		created.Indexes = t.Indexes
		created.Stats = t.Stats
	}
	// Views restore after tables so a materialized view's base table
	// resolves; re-parsing its stored SELECT re-derives the validated shape.
	// A plain view is parsed, not planned, so one whose table was dropped
	// still loads and fails on use, as it does live.
	for _, saved := range snap.MatViews {
		if err := db.loadView(saved, true); err != nil {
			return nil, fmt.Errorf("engine: snapshot materialized view %s: %w", saved.Name, err)
		}
	}
	for _, saved := range snap.Views {
		if err := db.loadView(saved, false); err != nil {
			return nil, fmt.Errorf("engine: snapshot view %s: %w", saved.Name, err)
		}
	}
	return db, nil
}

// loadView re-parses one saved view definition into the catalog.
func (db *DB) loadView(saved savedView, materialized bool) error {
	stmt, err := Parse(saved.SQL)
	if err != nil {
		return err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return fmt.Errorf("definition is not a SELECT")
	}
	v := &View{Name: saved.Name, Query: sel, SQL: saved.SQL}
	if materialized {
		if v.Shape, err = db.matViewShape(sel); err != nil {
			return err
		}
	}
	return db.cat.CreateView(v)
}
