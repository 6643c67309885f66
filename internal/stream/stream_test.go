package stream

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sgb/internal/core"
	"sgb/internal/engine"
	"sgb/internal/geom"
)

// viewConfig is one (mode, metric, eps, overlap) corner of the maintenance
// matrix; sql is the GROUP BY tail of the view definition.
type viewConfig struct {
	name string
	sql  string
	mode engine.SGBMode
	opt  core.Options
}

func configs() []viewConfig {
	return []viewConfig{
		{"any-l2", "DISTANCE-TO-ANY L2 WITHIN 1.5", engine.SGBAnyMode,
			core.Options{Metric: geom.L2, Eps: 1.5, Algorithm: core.IndexBounds}},
		// any-l1 keeps its subtest id; it is L2 at a second ε.
		{"any-l1", "DISTANCE-TO-ANY L2 WITHIN 2.0", engine.SGBAnyMode,
			core.Options{Metric: geom.L2, Eps: 2.0, Algorithm: core.IndexBounds}},
		{"any-linf", "DISTANCE-TO-ANY LINF WITHIN 1.0", engine.SGBAnyMode,
			core.Options{Metric: geom.LInf, Eps: 1.0, Algorithm: core.IndexBounds}},
		{"all-join", "DISTANCE-TO-ALL L2 WITHIN 2.0 ON-OVERLAP JOIN-ANY", engine.SGBAllMode,
			core.Options{Metric: geom.L2, Eps: 2.0, Overlap: core.JoinAny, Algorithm: core.IndexBounds}},
		{"all-elim", "DISTANCE-TO-ALL L2 WITHIN 2.0 ON-OVERLAP ELIMINATE", engine.SGBAllMode,
			core.Options{Metric: geom.L2, Eps: 2.0, Overlap: core.Eliminate, Algorithm: core.IndexBounds}},
		{"all-form", "DISTANCE-TO-ALL LINF WITHIN 2.0 ON-OVERLAP FORM-NEW-GROUP", engine.SGBAllMode,
			core.Options{Metric: geom.LInf, Eps: 2.0, Overlap: core.FormNewGroup, Algorithm: core.IndexBounds}},
	}
}

// streamDB builds a fresh engine with the pts base table, an attached
// manager, and one materialized view per the config.
func streamDB(t *testing.T, cfg viewConfig) (*engine.DB, *Manager) {
	t.Helper()
	db := engine.NewDB()
	m := NewManager()
	exec(t, db, "CREATE TABLE pts (x FLOAT, y FLOAT)")
	m.AttachEngine(db)
	exec(t, db, "CREATE MATERIALIZED VIEW v AS SELECT x, y FROM pts GROUP BY x, y "+cfg.sql)
	return db, m
}

func exec(t *testing.T, db *engine.DB, sql string) *engine.Result {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// randPoints draws n points on a 0.01 grid in [0, side)² — grid values
// round-trip exactly through SQL literals, so the recompute groupers see the
// same float64s the engine stored.
func randPoints(rng *rand.Rand, n int, side float64) [][2]float64 {
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i][0] = float64(rng.Intn(int(side*100))) / 100
		pts[i][1] = float64(rng.Intn(int(side*100))) / 100
	}
	return pts
}

func insertSQL(pts ...[2]float64) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO pts VALUES ")
	for i, p := range pts {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteByte('(')
		sb.WriteString(strconv.FormatFloat(p[0], 'f', 2, 64))
		sb.WriteString(", ")
		sb.WriteString(strconv.FormatFloat(p[1], 'f', 2, 64))
		sb.WriteByte(')')
	}
	return sb.String()
}

// recompute runs a from-scratch grouper over the full prefix — the reference
// the incremental state must be bit-identical to.
func recompute(t *testing.T, cfg viewConfig, pts [][2]float64) map[int64][]int64 {
	t.Helper()
	if cfg.mode == engine.SGBAnyMode {
		g, err := core.NewAnyGrouper(cfg.opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			if _, err := g.Add(geom.Point{p[0], p[1]}); err != nil {
				t.Fatal(err)
			}
		}
		groups, err := g.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return stateFromGroups(groups)
	}
	g, err := core.NewAllGrouper(cfg.opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if _, err := g.Add(geom.Point{p[0], p[1]}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return stateFromGroups(res.Groups)
}

// TestPrefixBitIdentity is the tentpole's correctness invariant: after every
// committed statement, the incrementally maintained state must be
// bit-identical to a from-scratch recompute over the same row prefix, across
// modes, metrics, and overlap policies.
func TestPrefixBitIdentity(t *testing.T) {
	for _, cfg := range configs() {
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			pts := randPoints(rng, 48, 10)
			db, m := streamDB(t, cfg)
			for i, p := range pts {
				exec(t, db, insertSQL(p))
				got, err := m.State("v")
				if err != nil {
					t.Fatal(err)
				}
				want := recompute(t, cfg, pts[:i+1])
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("prefix %d: incremental state diverged\n got: %v\nwant: %v", i+1, got, want)
				}
			}
		})
	}
}

// TestPrefixBitIdentityBatched repeats the invariant with multi-row INSERT
// statements, so the per-statement delta batching sees more than one row.
func TestPrefixBitIdentityBatched(t *testing.T) {
	for _, cfg := range configs() {
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			pts := randPoints(rng, 49, 10)
			db, m := streamDB(t, cfg)
			for lo := 0; lo < len(pts); lo += 7 {
				hi := lo + 7
				if hi > len(pts) {
					hi = len(pts)
				}
				exec(t, db, insertSQL(pts[lo:hi]...))
				got, err := m.State("v")
				if err != nil {
					t.Fatal(err)
				}
				want := recompute(t, cfg, pts[:hi])
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("prefix %d: batched state diverged", hi)
				}
			}
		})
	}
}

// partitionSig renders a state as an order-independent signature over point
// values: each group becomes its members' sorted coordinate strings, and the
// groups themselves are sorted. Two runs that group the same points the same
// way produce the same signature regardless of insert order.
func partitionSig(state map[int64][]int64, pts [][2]float64) string {
	var groups []string
	for _, members := range state {
		coords := make([]string, len(members))
		for i, m := range members {
			p := pts[m]
			coords[i] = fmt.Sprintf("(%.2f,%.2f)", p[0], p[1])
		}
		sort.Strings(coords)
		groups = append(groups, strings.Join(coords, " "))
	}
	sort.Strings(groups)
	return strings.Join(groups, " | ")
}

// drainDeltas collects everything a subscription attach has produced so far:
// the backlog plus whatever reached the live channel (commits are synchronous
// with the statement, so after the last exec the channel is complete).
func drainDeltas(at *Attach) []Delta {
	out := append([]Delta(nil), at.Backlog...)
	for {
		select {
		case d, ok := <-at.Sub.C:
			if !ok {
				return out
			}
			out = append(out, d)
		default:
			return out
		}
	}
}

// TestOrderIndependencePermutations inserts random permutations of one point
// set and checks (a) the resulting partition over point values is identical
// for every ordering, and (b) each permutation's delta stream replays — via
// Apply — to exactly that permutation's state. SGB-Any grouping is
// connected components, order-independent on any data; the SGB-All overlap
// policies are order-independent on cluster-separated data, which the second
// half uses.
func TestOrderIndependencePermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(23))

	permute := func(pts [][2]float64) [][2]float64 {
		out := append([][2]float64(nil), pts...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}

	run := func(t *testing.T, cfg viewConfig, base [][2]float64) {
		var wantSig string
		for trial := 0; trial < 5; trial++ {
			pts := base
			if trial > 0 {
				pts = permute(base)
			}
			db, m := streamDB(t, cfg)
			at, err := m.Subscribe("v", 0, 4096)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pts {
				exec(t, db, insertSQL(p))
			}
			state, err := m.State("v")
			if err != nil {
				t.Fatal(err)
			}
			sig := partitionSig(state, pts)
			if trial == 0 {
				wantSig = sig
			} else if sig != wantSig {
				t.Fatalf("permutation %d grouped differently\n got: %s\nwant: %s", trial, sig, wantSig)
			}
			// Delta-stream equivalence: replaying this permutation's deltas
			// from scratch lands on the same state.
			replayed := make(map[int64][]int64)
			for _, d := range drainDeltas(at) {
				Apply(replayed, d)
			}
			if !reflect.DeepEqual(replayed, state) {
				t.Fatalf("permutation %d: delta replay diverged from live state", trial)
			}
			at.Sub.Close()
		}
	}

	t.Run("any-random", func(t *testing.T) {
		cfg := configs()[0] // any-l2
		run(t, cfg, randPoints(rng, 40, 10))
	})

	// Cluster-separated data: all pairwise intra-cluster distances are below
	// eps and clusters sit several eps apart, so every overlap policy must
	// produce the cluster partition in every insert order.
	clusters := func(eps float64) [][2]float64 {
		var pts [][2]float64
		for c := 0; c < 5; c++ {
			cx, cy := float64(c)*5*eps, float64(c%2)*5*eps
			for i := 0; i < 7; i++ {
				pts = append(pts, [2]float64{
					cx + float64(rng.Intn(int(eps*40)))/100, // within eps*0.4
					cy + float64(rng.Intn(int(eps*40)))/100,
				})
			}
		}
		return pts
	}
	for _, cfg := range configs()[3:] {
		cfg := cfg
		t.Run(cfg.name+"-clusters", func(t *testing.T) {
			run(t, cfg, clusters(cfg.opt.Eps))
		})
	}
}

// TestDeltaReplayThroughRebuilds drives the rebuild-and-diff path (UPDATE and
// DELETE force a from-scratch regroup) and checks the emitted delta stream
// still replays to the live state, and the live state still matches a
// recompute of the final table contents.
func TestDeltaReplayThroughRebuilds(t *testing.T) {
	for _, cfg := range configs() {
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			pts := randPoints(rng, 30, 10)
			db, m := streamDB(t, cfg)
			at, err := m.Subscribe("v", 0, 8192)
			if err != nil {
				t.Fatal(err)
			}
			exec(t, db, insertSQL(pts...))
			exec(t, db, "UPDATE pts SET x = x + 3.0 WHERE x < 2.0")
			exec(t, db, "DELETE FROM pts WHERE y < 1.0")
			exec(t, db, insertSQL(randPoints(rng, 10, 10)...))

			state, err := m.State("v")
			if err != nil {
				t.Fatal(err)
			}
			replayed := make(map[int64][]int64)
			for _, d := range drainDeltas(at) {
				Apply(replayed, d)
			}
			if !reflect.DeepEqual(replayed, state) {
				t.Fatalf("delta replay diverged after rebuilds\n got: %v\nwant: %v", replayed, state)
			}

			// The live state equals a recompute over the final table.
			var final [][2]float64
			res := exec(t, db, "SELECT x, y FROM pts")
			for _, row := range res.Rows {
				final = append(final, [2]float64{row[0].F, row[1].F})
			}
			if want := recompute(t, cfg, final); !reflect.DeepEqual(state, want) {
				t.Fatalf("state after rebuilds diverged from recompute")
			}
		})
	}
}

// TestResumeTokenReplay covers the three resume regimes: a token still inside
// ring retention replays exactly the missed suffix; the newest token replays
// nothing; a token below the floor (after ring eviction) rebases onto a
// snapshot image that Apply-reconstructs the full state.
func TestResumeTokenReplay(t *testing.T) {
	const ringCap = 8
	cfg := configs()[0]
	db := engine.NewDB()
	m := NewManager()
	m.SetRingCap(ringCap)
	exec(t, db, "CREATE TABLE pts (x FLOAT, y FLOAT)")
	m.AttachEngine(db)
	exec(t, db, "CREATE MATERIALIZED VIEW v AS SELECT x, y FROM pts GROUP BY x, y "+cfg.sql)

	rng := rand.New(rand.NewSource(41))
	pts := randPoints(rng, 6, 10)
	exec(t, db, insertSQL(pts...))

	// Live subscriber consumes a prefix, remembers its token.
	at, err := m.Subscribe("v", 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !at.Snapshot {
		t.Fatal("token 0 after bootstrap must rebase onto a snapshot")
	}
	seen := make(map[int64][]int64)
	for _, d := range at.Backlog {
		Apply(seen, d)
	}
	token := at.Seq
	at.Sub.Close()

	// A few more inserts, few enough that the ring still holds their deltas.
	more := randPoints(rng, 2, 10)
	exec(t, db, insertSQL(more[0]))
	exec(t, db, insertSQL(more[1]))

	at2, err := m.Subscribe("v", token, 64)
	if err != nil {
		t.Fatal(err)
	}
	if at2.Snapshot {
		t.Fatal("in-retention token must replay deltas, not snapshot")
	}
	for _, d := range at2.Backlog {
		if d.Seq <= token {
			t.Fatalf("replayed already-consumed delta seq %d (token %d)", d.Seq, token)
		}
		Apply(seen, d)
	}
	state, err := m.State("v")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, state) {
		t.Fatalf("resume replay diverged\n got: %v\nwant: %v", seen, state)
	}
	// The newest token has nothing to replay.
	atNow, err := m.Subscribe("v", at2.Seq+uint64(len(at2.Backlog)), 64)
	if err != nil {
		t.Fatal(err)
	}
	_ = atNow
	at2.Sub.Close()

	// Blow past ring retention: the old token falls below the floor and the
	// re-attach must rebase onto a snapshot whose image equals the state.
	exec(t, db, insertSQL(randPoints(rng, 30, 10)...))
	at3, err := m.Subscribe("v", token, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !at3.Snapshot {
		t.Fatal("below-floor token must snapshot-rebase")
	}
	image := make(map[int64][]int64)
	for _, d := range at3.Backlog {
		if d.Kind != GroupCreated {
			t.Fatalf("snapshot image may only contain GroupCreated, got %s", d.Kind)
		}
		Apply(image, d)
	}
	state, err = m.State("v")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(image, state) {
		t.Fatalf("snapshot image diverged from state")
	}
	at3.Sub.Close()
	atNow.Sub.Close()

	// Past 10×ringCap deltas the ring has evicted many times over: a token
	// at the floor still replays exactly the suffix after it, and the ring
	// retains at most 2×ringCap entries.
	v := m.views["v"]
	live, err := m.Subscribe("v", v.lastSeq, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range randPoints(rng, 100, 10) {
		exec(t, db, insertSQL(p))
	}
	all := drainDeltas(live)
	if len(all) < 10*ringCap {
		t.Fatalf("only %d deltas emitted, want at least %d", len(all), 10*ringCap)
	}
	if cap(v.ring) > 2*ringCap {
		t.Fatalf("ring retains %d entries, want at most %d", cap(v.ring), 2*ringCap)
	}
	at4, err := m.Subscribe("v", v.floor, 64)
	if err != nil {
		t.Fatal(err)
	}
	if at4.Snapshot {
		t.Fatal("a token at the floor must replay deltas, not snapshot")
	}
	var suffix []Delta
	for _, d := range all {
		if d.Seq > v.floor {
			suffix = append(suffix, d)
		}
	}
	if len(suffix) != ringCap || !reflect.DeepEqual(at4.Backlog, suffix) {
		t.Fatalf("token at the floor replayed %d deltas, want the %d after it", len(at4.Backlog), len(suffix))
	}
	at4.Sub.Close()
	live.Sub.Close()
}

// TestLaggingSubscriberDropped pins the overflow policy: a subscriber that
// cannot keep up is cut (channel closed) rather than stalling the commit
// path, and a re-attach from its last consumed token catches it up.
func TestLaggingSubscriberDropped(t *testing.T) {
	cfg := configs()[0]
	db, m := streamDB(t, cfg)
	at, err := m.Subscribe("v", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	for _, p := range randPoints(rng, 12, 10) {
		exec(t, db, insertSQL(p))
	}
	closed := false
	token := at.Seq
	for d := range at.Sub.C {
		token = d.Seq
	}
	closed = true
	if !closed {
		t.Fatal("lagging subscriber channel never closed")
	}
	// Re-attach with the last consumed token: backlog + state must reconcile.
	at2, err := m.Subscribe("v", token, 4096)
	if err != nil {
		t.Fatal(err)
	}
	at2.Sub.Close()
}

// TestViewLifecycle covers registration DDL on the live path: create-on-data
// bootstraps silently, DROP cuts subscribers, and the base table is protected
// while a view depends on it.
func TestViewLifecycle(t *testing.T) {
	cfg := configs()[0]
	db := engine.NewDB()
	m := NewManager()
	exec(t, db, "CREATE TABLE pts (x FLOAT, y FLOAT)")
	m.AttachEngine(db)
	rng := rand.New(rand.NewSource(61))
	pts := randPoints(rng, 20, 10)
	exec(t, db, insertSQL(pts...))

	// Created after data exists: bootstrap replays the table silently.
	exec(t, db, "CREATE MATERIALIZED VIEW v AS SELECT x, y FROM pts GROUP BY x, y "+cfg.sql)
	state, err := m.State("v")
	if err != nil {
		t.Fatal(err)
	}
	if want := recompute(t, cfg, pts); !reflect.DeepEqual(state, want) {
		t.Fatalf("bootstrap state diverged from recompute")
	}
	vs := m.Views()
	if len(vs) != 1 || vs[0].Name != "v" || vs[0].Groups != len(state) || vs[0].Mode != "any" {
		t.Fatalf("view status = %+v", vs)
	}

	// The base table cannot be dropped out from under the view.
	if _, err := db.Exec("DROP TABLE pts"); err == nil {
		t.Fatal("DROP TABLE with a dependent materialized view must fail")
	}

	at, err := m.Subscribe("v", 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	exec(t, db, "DROP MATERIALIZED VIEW v")
	if _, ok := <-at.Sub.C; ok {
		t.Fatal("subscriber channel must close when the view is dropped")
	}
	if _, err := m.State("v"); err == nil {
		t.Fatal("dropped view must be unknown to State")
	}
	if len(m.Views()) != 0 {
		t.Fatal("dropped view still listed")
	}
	// And now the table can go.
	exec(t, db, "DROP TABLE pts")
}

// TestBrokenViewFreezes pins the error contract: maintenance failure (a NULL
// in a grouping column) never fails the write — the view freezes, subscribers
// are cut, and the brokenness is introspectable.
func TestBrokenViewFreezes(t *testing.T) {
	cfg := configs()[0]
	db, m := streamDB(t, cfg)
	exec(t, db, insertSQL([2]float64{1, 1}))
	at, err := m.Subscribe("v", 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	// The write itself must succeed; only the view breaks.
	exec(t, db, "INSERT INTO pts VALUES (NULL, 2.0)")
	if _, ok := <-at.Sub.C; ok {
		t.Fatal("subscriber channel must close when the view breaks")
	}
	if _, err := m.State("v"); err == nil {
		t.Fatal("broken view must refuse State")
	}
	if _, err := m.Subscribe("v", 0, 16); err == nil {
		t.Fatal("broken view must refuse Subscribe")
	}
	vs := m.Views()
	if len(vs) != 1 || vs[0].Error == "" {
		t.Fatalf("broken view status = %+v", vs)
	}
	// Re-creating the view recovers (the NULL row is gone after cleanup).
	exec(t, db, "DELETE FROM pts")
	exec(t, db, insertSQL([2]float64{1, 1}))
	exec(t, db, "DROP MATERIALIZED VIEW v")
	exec(t, db, "CREATE MATERIALIZED VIEW v AS SELECT x, y FROM pts GROUP BY x, y "+cfg.sql)
	if _, err := m.State("v"); err != nil {
		t.Fatalf("re-created view still broken: %v", err)
	}
}

// TestSeqPacking pins the composite resume-token layout.
func TestSeqPacking(t *testing.T) {
	s := PackSeq(7, 3)
	if StmtSeq(s) != 7 || DeltaIndex(s) != 3 {
		t.Fatalf("PackSeq round-trip: got (%d, %d)", StmtSeq(s), DeltaIndex(s))
	}
	if PackSeq(7, 0) <= PackSeq(6, 1<<19) {
		t.Fatal("statement sequence must dominate delta index")
	}
}
