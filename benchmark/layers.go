package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"sgb"
	"sgb/internal/client"
	"sgb/internal/engine"
	"sgb/internal/geom"
	"sgb/internal/hull"
	"sgb/internal/rtree"
	"sgb/internal/server"
	"sgb/internal/stream"
	"sgb/internal/unionfind"
	"sgb/internal/wal"
	"sgb/internal/wire"
)

// The traced pass. Every per-layer metric is measured from outside, by spans
// the benchmark puts around calls into a layer's public functions, on the
// inputs the workloads use. The four sections below are named after the
// workload whose inputs they take; one traced pass runs all four, so its
// metrics are the same whichever --workload the driver named.

// traceSizes are the traced pass's own repeat counts: enough calls for a
// stable median, few enough that the pass stays within a run's time.
type traceSizes struct {
	reps         int // repeats of a statement-sized call (GroupAny, a Table 2 pass)
	smallReps    int // repeats of a µs-sized call (Parse, EXPLAIN, Ping)
	readOps      int // statements per connection in each serve_read phase
	ingestCycles int // cycles in each serve_ingest phase
	walRecords   int
}

// maxEdges caps the ε-edges kept for the unionfind replay (8 bytes each).
const maxEdges = 1 << 20

func (c config) traceSizes() traceSizes {
	if c.smoke {
		return traceSizes{reps: 2, smallReps: 5, readOps: 6, ingestCycles: 20, walRecords: 20}
	}
	return traceSizes{reps: 7, smallReps: 50, readOps: 120, ingestCycles: 600, walRecords: 400}
}

// runTraced runs the traced pass and returns the per-layer metrics with the
// spans behind them.
func runTraced(cfg config) (*result, []span, error) {
	res := newResult("traced")
	rec := newRecorder()
	sections := []struct {
		name string
		run  func(config, scope, *result) error
	}{
		{"any_hotspot", traceAnyHotspot},
		{"tpch_table2", traceTPCH},
		{"serve_read", traceServeRead},
		{"serve_ingest", traceServeIngest},
	}
	for _, s := range sections {
		fmt.Fprintf(os.Stderr, "traced pass: %s inputs\n", s.name)
		err := rec.section(s.name, func(sc scope) error { return s.run(cfg, sc, res) })
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	res.Correct = res.Failed == 0
	return res, rec.spans, nil
}

// onOneCore runs fn with GOMAXPROCS 1, as the any_hotspot workload does.
func onOneCore(fn func() error) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return fn()
}

// stmtProbe measures one statement on an embedded database from outside:
// parse, EXPLAIN (parse + plan) and execution, each as spans under sc. It
// returns the last answer and the root est_rows EXPLAIN printed.
func stmtProbe(sc scope, db *sgb.DB, id, sql string, ts traceSizes) (*sgb.QueryResult, float64, error) {
	var (
		stmt engine.Statement
		err  error
		ans  *sgb.QueryResult
		plan *sgb.QueryResult
	)
	ctx := context.Background()
	for i := 0; i < ts.smallReps && err == nil; i++ {
		sc.do("engine.Parse "+id, 1, func() { stmt, err = engine.Parse(sql) })
	}
	for i := 0; i < ts.smallReps && err == nil; i++ {
		sc.do("EXPLAIN "+id, 1, func() { plan, err = db.ExecContext(ctx, "EXPLAIN "+sql) })
	}
	for i := 0; i < ts.reps && err == nil; i++ {
		sc.do("DB.ExecStmtContext "+id, 1, func() { ans, err = db.ExecStmtContext(ctx, stmt) })
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", id, err)
	}
	return ans, rootEstRows(plan), nil
}

// rootEstRows extracts est_rows from the first line of an EXPLAIN answer.
func rootEstRows(plan *sgb.QueryResult) float64 {
	if plan == nil || len(plan.Rows) == 0 {
		return 0
	}
	_, rest, ok := strings.Cut(plan.Rows[0][0].S, "est_rows=")
	if !ok {
		return 0
	}
	v, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
	return v
}

// memPerOp runs op n times and sets the embedded workload's memory metrics:
// heap bytes and objects allocated per op (runtime.MemStats deltas) and this
// process's peak resident set over the n ops — informational, because the
// garbage collector's timing moves VmHWM by tens of percent between runs.
func memPerOp(res *result, workload string, n int, op func() error) error {
	var before, after runtime.MemStats
	runtime.GC()
	resetPeakRSS()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := op(); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	res.set("engine."+workload+".alloc_bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(n), "B")
	res.set("engine."+workload+".allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(n), "count")
	res.set(workload+".peak_rss_mb", rss, "MB")
	return nil
}

// ---- any_hotspot's inputs: geom, rtree, unionfind, core, engine ----

func traceAnyHotspot(cfg config, sc scope, res *result) error {
	sz, ts := cfg.sizes(), cfg.traceSizes()
	pts := genCheckins(sz.anyN, cfg.seed)
	n := len(pts)
	const eps = anyHotspotEps

	// geom: the columnar kernel against the scalar predicate, every point
	// against the first queries points.
	queries := min(n, 200)
	cols := geom.ColsFromPoints(pts)
	dists, mask := make([]float64, n), make([]bool, n)
	var maskHits, scalarHits int
	sc.do("geom.WithinMask", queries*n, func() {
		for _, q := range pts[:queries] {
			maskHits += geom.WithinMask(geom.L2, cols, q, eps, dists, mask)
		}
	})
	sc.do("geom.Within", queries*n, func() {
		for _, q := range pts[:queries] {
			for _, p := range pts {
				if geom.Within(geom.L2, p, q, eps) {
					scalarHits++
				}
			}
		}
	})
	res.check(maskHits == scalarHits, "geom.WithinMask found %d pairs, geom.Within %d", maskHits, scalarHits)
	res.set("geom.within_mask_ns_per_point", sc.p50("geom.WithinMask", 1), "ns")
	res.set("geom.within_scalar_ns_per_point", sc.p50("geom.Within", 1), "ns")

	// rtree: insert every point, then an ε-window search around each; the
	// verified hits are the ε-edges unionfind replays below.
	tree := rtree.New(2)
	sc.do("rtree.Insert", n, func() {
		for i, p := range pts {
			tree.Insert(geom.PointRect(p), int64(i))
		}
	})
	var hits int
	var edges [][2]int32
	sc.do("rtree.Search", n, func() {
		for i, p := range pts {
			tree.Search(geom.BoxAround(p, eps), func(ref int64) bool {
				hits++
				if j := int(ref); j < i && len(edges) < maxEdges && geom.Within(geom.L2, p, pts[j], eps) {
					edges = append(edges, [2]int32{int32(i), int32(j)})
				}
				return true
			})
		}
	})
	res.set("rtree.insert_ns", sc.p50("rtree.Insert", 1), "ns")
	res.set("rtree.search_ns", sc.p50("rtree.Search", 1), "ns")
	res.set("rtree.hits_per_search", float64(hits)/float64(n), "count")

	forest := unionfind.New(n)
	sc.do("unionfind.Union", len(edges), func() {
		for _, e := range edges {
			forest.Union(int(e[0]), int(e[1]))
		}
	})
	res.set("unionfind.union_ns", sc.p50("unionfind.Union", 1), "ns")

	// core: the operator alone, serial on one core and grid-parallel on all.
	opt := sgb.Options{Metric: sgb.L2, Eps: eps, Algorithm: sgb.IndexBounds}
	var serial, parallel *sgb.Result
	err := onOneCore(func() (err error) {
		for i := 0; i < ts.reps && err == nil; i++ {
			sc.do("sgb.GroupAny", 1, func() { serial, err = sgb.GroupAny(pts, opt) })
		}
		return err
	})
	for i := 0; i < ts.reps && err == nil; i++ {
		sc.do("sgb.GroupAnyParallel", 1, func() { parallel, err = sgb.GroupAnyParallel(pts, opt, 0) })
	}
	if err != nil {
		return err
	}
	want := naiveComponentSizes(pts, eps)
	res.check(slices.Equal(sortedSizes(serial), want), "sgb.GroupAny: group sizes differ from the all-pairs oracle")
	res.check(slices.Equal(sortedSizes(parallel), want), "sgb.GroupAnyParallel: group sizes differ from the all-pairs oracle")
	anyMS := sc.p50("sgb.GroupAny", 1e6)
	res.set("core.any_ms", anyMS, "ms")
	res.set("core.any_parallel_ms", sc.p50("sgb.GroupAnyParallel", 1e6), "ms")
	res.set("core.any_parallel_speedup", anyMS/sc.p50("sgb.GroupAnyParallel", 1e6), "ratio")
	res.set("core.any_distance_comps", float64(serial.Stats.DistanceComps), "count")
	res.set("core.any_window_queries", float64(serial.Stats.WindowQueries), "count")
	res.set("core.any_comps_per_point", float64(serial.Stats.DistanceComps)/float64(n), "count")
	res.set("core.any_groups", float64(len(serial.Groups)), "count")

	// engine: the workload's statement, embedded, on one core.
	return onOneCore(func() error {
		db, err := loadCheckins(pts)
		if err != nil {
			return err
		}
		ans, est, err := stmtProbe(sc, db, "any_hotspot", anyHotspotSQL, ts)
		if err != nil {
			return err
		}
		res.check(slices.Equal(countColumnSorted(ans, 0), want), "embedded statement: group sizes differ from the all-pairs oracle")
		parseUS := sc.p50("engine.Parse any_hotspot", 1e3)
		execMS := sc.p50("DB.ExecStmtContext any_hotspot", 1e6)
		res.set("engine.any_hotspot.parse_us", parseUS, "us")
		res.set("engine.any_hotspot.plan_us", sc.p50("EXPLAIN any_hotspot", 1e3)-parseUS, "us")
		res.set("engine.any_hotspot.exec_ms", execMS, "ms")
		res.set("engine.any_hotspot.est_rows_error", est/float64(len(ans.Rows)), "ratio")
		res.set("core.any_share", anyMS/execMS, "ratio")

		return memPerOp(res, "any_hotspot", ts.reps, func() error { _, err := db.Exec(anyHotspotSQL); return err })
	})
}

func sortedSizes(r *sgb.Result) []int {
	s := r.Sizes()
	sort.Ints(s)
	return s
}

// ---- tpch_table2's inputs: engine per statement, core's share, hull ----

func traceTPCH(cfg config, sc scope, res *result) error {
	sz, ts := cfg.sizes(), cfg.traceSizes()
	stmts := table2()
	db, err := loadTPCH(sz.tpchSF, cfg.seed)
	if err != nil {
		return err
	}
	var (
		passMS, parseUS, planUS float64
		estRows, actualRows     float64
	)
	ms := map[string]float64{}
	for _, s := range stmts {
		ans, est, err := stmtProbe(sc, db, s.ID, s.SQL, ts)
		if err != nil {
			return err
		}
		ms[s.ID] = sc.p50("DB.ExecStmtContext "+s.ID, 1e6)
		res.set("engine.stmt."+s.ID+"_ms", ms[s.ID], "ms")
		passMS += ms[s.ID]
		p := sc.p50("engine.Parse "+s.ID, 1e3)
		parseUS += p
		planUS += sc.p50("EXPLAIN "+s.ID, 1e3) - p
		estRows += est
		actualRows += float64(len(ans.Rows))
	}
	res.set("engine.tpch_table2.parse_us", parseUS, "us")
	res.set("engine.tpch_table2.plan_us", planUS, "us")
	res.set("engine.tpch_table2.exec_ms", passMS, "ms")
	res.set("engine.tpch_table2.est_rows_error", estRows/actualRows, "ratio")
	var ratio float64
	sgbStmts := 0
	for _, s := range stmts {
		if s.Baseline != "" {
			ratio += ms[s.ID] / ms[s.Baseline]
			sgbStmts++
		}
	}
	res.set("engine.sgb_over_gb_ratio", ratio/float64(sgbStmts), "ratio")

	// core's share of a pass: the rows each inner sub-select produces,
	// handed to the operator directly. hull: AllWithin against the hulls
	// of the groups SGB1/3/5 form.
	var coreMS float64
	var hullCalls int
	var hullNS time.Duration
	for _, s := range stmts {
		if s.Inner == "" {
			continue
		}
		inner, err := db.Exec(s.Inner)
		if err != nil {
			return fmt.Errorf("%s inner: %w", s.ID, err)
		}
		pts := make([]sgb.Point, len(inner.Rows))
		for i, row := range inner.Rows {
			x, _ := row[len(row)-2].AsFloat()
			y, _ := row[len(row)-1].AsFloat()
			pts[i] = sgb.Point{x, y}
		}
		opt := sgb.Options{Metric: sgb.L2, Eps: table2Eps, Overlap: sgb.JoinAny, Algorithm: sgb.IndexBounds}
		group, name := sgb.GroupAny, "sgb.GroupAny "+s.ID
		if s.All {
			group, name = sgb.GroupAll, "sgb.GroupAll "+s.ID
		}
		var gr *sgb.Result
		for i := 0; i < ts.reps && err == nil; i++ {
			sc.do(name, 1, func() { gr, err = group(pts, opt) })
		}
		if err != nil {
			return err
		}
		coreMS += sc.p50(name, 1e6)
		if !s.All {
			continue
		}
		for _, g := range gr.Groups {
			if len(g.IDs) < 3 {
				continue
			}
			members := make([]geom.Point, len(g.IDs))
			for i, id := range g.IDs {
				members[i] = pts[id]
			}
			h := hull.NewIncremental(members...)
			hullNS += sc.do("hull.AllWithin "+s.ID, len(members), func() {
				for _, p := range members {
					if !h.AllWithin(geom.L2, p, table2Eps) {
						res.fail(1, "%s: a member of an SGB-All group is farther than ε from its group's hull", s.ID)
					}
				}
			})
			hullCalls += len(members)
		}
	}
	res.check(hullCalls > 0, "no SGB-All group with three or more members to probe hulls on")
	res.set("core.tpch_share", coreMS/passMS, "ratio")
	res.set("hull.all_within_ns", float64(hullNS.Nanoseconds())/float64(max(hullCalls, 1)), "ns")

	return memPerOp(res, "tpch_table2", ts.reps, func() error { _, err := table2Pass(db, stmts); return err })
}

// ---- serve_read's inputs: core (SGB-All), wire, client, server, obs ----

func traceServeRead(cfg config, sc scope, res *result) error {
	sz, ts := cfg.sizes(), cfg.traceSizes()
	pts := genCheckins(sz.readN, cfg.seed)

	// Embedded: the statement without the serving stack, and the operator
	// without the engine.
	db, err := loadCheckins(pts)
	if err != nil {
		return err
	}
	ans, est, err := stmtProbe(sc, db, "serve_read", serveReadSQL, ts)
	if err != nil {
		return err
	}
	var want stmtDigest
	want.Rows, want.Sum = rowsChecksum(ans)
	parseUS := sc.p50("engine.Parse serve_read", 1e3)
	embeddedMS := sc.p50("DB.ExecStmtContext serve_read", 1e6)
	res.set("engine.serve_read.parse_us", parseUS, "us")
	res.set("engine.serve_read.plan_us", sc.p50("EXPLAIN serve_read", 1e3)-parseUS, "us")
	res.set("engine.serve_read.exec_ms", embeddedMS, "ms")
	res.set("engine.serve_read.est_rows_error", est/float64(len(ans.Rows)), "ratio")

	opt := sgb.Options{Metric: sgb.LInf, Eps: serveReadEps, Overlap: sgb.JoinAny, Algorithm: sgb.IndexBounds}
	var gr *sgb.Result
	for i := 0; i < ts.reps && err == nil; i++ {
		sc.do("sgb.GroupAll", 1, func() { gr, err = sgb.GroupAll(pts, opt) })
	}
	if err != nil {
		return err
	}
	res.check(len(gr.Groups) == len(ans.Rows), "sgb.GroupAll forms %d groups, the statement returns %d rows", len(gr.Groups), len(ans.Rows))
	allMS := sc.p50("sgb.GroupAll", 1e6)
	res.set("core.all_join_any_ms", allMS, "ms")
	res.set("core.all_rect_tests", float64(gr.Stats.RectTests), "count")
	res.set("core.all_hull_tests", float64(gr.Stats.HullTests), "count")
	res.set("core.all_share", allMS/embeddedMS, "ratio")

	// wire: the statement's real answer through the frame codec, in memory.
	frames := []wire.Message{&wire.RowHeader{Columns: ans.Columns}, &wire.RowBatch{Rows: ans.Rows}, &wire.Done{RowCount: int64(len(ans.Rows))}}
	var buf bytes.Buffer
	krows := float64(len(ans.Rows)) / 1000
	for i := 0; i < ts.smallReps && err == nil; i++ {
		buf.Reset()
		sc.do("wire.WriteMessage", 1, func() {
			for _, m := range frames {
				if err == nil {
					err = wire.WriteMessage(&buf, m)
				}
			}
		})
	}
	encoded := buf.Bytes()
	for i := 0; i < ts.smallReps && err == nil; i++ {
		rd := bytes.NewReader(encoded)
		sc.do("wire.ReadMessage", 1, func() {
			for range frames {
				if err == nil {
					_, err = wire.ReadMessage(rd)
				}
			}
		})
	}
	if err != nil {
		return err
	}
	res.set("wire.encode_us_per_krow", sc.p50("wire.WriteMessage", 1e3)/krows, "us")
	res.set("wire.decode_us_per_krow", sc.p50("wire.ReadMessage", 1e3)/krows, "us")
	res.set("wire.bytes_per_row", float64(len(encoded))/float64(len(ans.Rows)), "B")

	// Served, server tracing off: the round-trip floor, one connection
	// against the embedded time, and two connections against one.
	phase := func(name string, flags []string, conns int, extra func(*readInstance) error) (p50 float64, opsS float64, err error) {
		in, err := setupServeRead(cfg, flags, pts, conns, sz.readWarm)
		if err != nil {
			return 0, 0, err
		}
		defer in.discard()
		var outs []readOutcome
		var wall time.Duration
		sc.do(name, conns*ts.readOps, func() { outs, wall = readLoop(in, ts.readOps, cfg.guard()) })
		lat := checkReads(res, outs, want)
		if extra != nil {
			err = extra(in)
		}
		return percentile(durationsMS(lat), 0.5), float64(len(lat)) / wall.Seconds(), err
	}
	p50One, opsOne, err := phase("serve_read 1 conn", untracedFlags, 1, func(in *readInstance) error {
		ctx := context.Background()
		var err error
		for i := 0; i < ts.smallReps*4 && err == nil; i++ {
			sc.do("Conn.Ping", 1, func() { err = in.conns[0].Ping(ctx) })
		}
		return err
	})
	if err != nil {
		return err
	}
	res.set("client.ping_us", sc.p50("Conn.Ping", 1e3), "us")
	res.set("server.overhead_ms", p50One-embeddedMS, "ms")
	p50Two, opsTwo, err := phase("serve_read 2 conns", untracedFlags, 2, func(in *readInstance) error {
		rss, err := peakRSSMB(in.srv.pid())
		res.set("serve_read.peak_rss_mb", rss, "MB")
		return err
	})
	if err != nil {
		return err
	}
	res.set("server.concurrency_scaling", opsTwo/opsOne, "ratio")

	// Served, server tracing on: its cost, and the spans sgbd itself records
	// as a cross-check on the outside timings.
	tflags := append(append([]string{}, tracedFlags...), "-slowlog-size", strconv.Itoa(2*ts.readOps+64))
	p50Traced, _, err := phase("serve_read 2 conns traced", tflags, 2, func(in *readInstance) error {
		return serverSpans(res, in.conns[0], "SELECT count(*), min(lat)", "server.read_span.", []string{"wire_decode", "parse", "plan", "execute"})
	})
	if err != nil {
		return err
	}
	res.set("obs.trace_overhead_pct.serve_read", 100*(p50Traced/p50Two-1), "%")
	return nil
}

// serverSpans reads the server's slowlog over the wire and sets, for each
// named span, the median duration over the statements whose SQL starts with
// sqlPrefix, as <metricPrefix><span>_us.
func serverSpans(res *result, c *client.Conn, sqlPrefix, metricPrefix string, names []string) error {
	log, err := c.SlowLog(context.Background())
	if err != nil {
		return fmt.Errorf("slowlog: %w", err)
	}
	durs := map[string][]float64{}
	for _, q := range log {
		if !strings.HasPrefix(q.SQL, sqlPrefix) {
			continue
		}
		for _, sp := range q.Trace.Spans {
			durs[sp.Name] = append(durs[sp.Name], sp.DurMS*1000)
		}
	}
	for _, n := range names {
		res.check(len(durs[n]) > 0, "the server's slowlog holds no %q span for %q statements", n, sqlPrefix)
		res.set(metricPrefix+n+"_us", percentile(durs[n], 0.5), "us")
	}
	return nil
}

// ---- serve_ingest's inputs: wal, core (incremental), engine, stream, server ----

func traceServeIngest(cfg config, sc scope, res *result) error {
	ts := cfg.traceSizes()
	sz := cfg.sizes()
	st := genIngest(ts.ingestCycles, sz.ingestWarm, cfg.seed)
	var inserts, selects []string
	inserts = append(inserts, st.warm...)
	for _, c := range st.cycles {
		inserts = append(inserts, c[:3]...)
		selects = append(selects, c[3])
	}
	var userBytes int
	for _, q := range inserts {
		userBytes += len(q)
	}

	if err := traceWAL(cfg, sc, res, inserts[:min(len(inserts), ts.walRecords)]); err != nil {
		return err
	}

	// core, incrementally: what the view's grouper does per inserted row.
	g, err := sgb.NewAnyGrouper(sgb.Options{Metric: sgb.L2, Eps: ingestEps, Algorithm: sgb.IndexBounds})
	if err != nil {
		return err
	}
	rows := st.points[:len(inserts)*ingestRowsPerInsert]
	var links int
	sc.do("AnyGrouper.AddLinked", len(rows), func() {
		for _, p := range rows {
			_, l, e := g.AddLinked(p)
			if e != nil {
				err = e
			}
			links += len(l)
		}
	})
	if err != nil {
		return err
	}
	res.set("core.add_linked_us", sc.p50("AnyGrouper.AddLinked", 1e3), "us")
	res.set("core.links_per_insert", float64(links)/float64(len(rows)), "count")

	// engine and stream, embedded: the same statements with no WAL, first
	// without the view, then with a stream manager maintaining it.
	embedded := func(name string, withView bool) (*sgb.DB, *stream.Manager, error) {
		db := sgb.NewDB()
		var mgr *stream.Manager
		if withView {
			mgr = stream.NewManager()
			mgr.AttachEngine(db)
		}
		exec := func(q string) error { _, err := db.Exec(q); return err }
		if err := execAll(exec, ingestSetupSQL(withView)); err != nil {
			return nil, nil, err
		}
		for _, q := range inserts {
			var err error
			sc.do(name, 1, func() { err = exec(q) })
			if err != nil {
				return nil, nil, err
			}
		}
		return db, mgr, nil
	}
	plain, _, err := embedded("DB.Exec INSERT", false)
	if err != nil {
		return err
	}
	for _, q := range selects {
		sc.do("DB.Exec SELECT cell", 1, func() { _, err = plain.Exec(q) })
		if err != nil {
			return err
		}
	}
	insertUS := sc.p50("DB.Exec INSERT", 1e3)
	res.set("engine.insert_us_per_row", insertUS/ingestRowsPerInsert, "us")
	res.set("engine.index_lookup_us", sc.p50("DB.Exec SELECT cell", 1e3), "us")

	viewed, mgr, err := embedded("DB.Exec INSERT with view", true)
	if err != nil {
		return err
	}
	res.set("stream.maintain_us_per_insert", sc.p50("DB.Exec INSERT with view", 1e3)-insertUS, "us")
	views := mgr.Views()
	if len(views) != 1 || views[0].Error != "" {
		return fmt.Errorf("embedded view status: %+v", views)
	}
	res.set("stream.deltas_per_insert", float64(views[0].DeltasTotal)/float64(len(inserts)), "count")
	res.check(views[0].Members == len(rows), "embedded view holds %d members, %d rows were inserted", views[0].Members, len(rows))
	sc.do("DELETE one row (view rebuild)", 1, func() { _, err = viewed.Exec("DELETE FROM pts WHERE id = 0") })
	if err != nil {
		return err
	}
	res.set("stream.delete_rebuild_ms", sc.p50("DELETE one row (view rebuild)", 1e6), "ms")
	sc.do("DROP + CREATE MATERIALIZED VIEW", 1, func() {
		if _, err = viewed.Exec("DROP MATERIALIZED VIEW hot"); err == nil {
			_, err = viewed.Exec(ingestSetupSQL(true)[2])
		}
	})
	if err != nil {
		return err
	}
	res.set("stream.recompute_ms", sc.p50("DROP + CREATE MATERIALIZED VIEW", 1e6), "ms")

	if err := traceCheckpoint(cfg, sc, res, inserts, userBytes); err != nil {
		return err
	}

	// Served, server tracing off: the moved end-to-end metrics, the WAL's
	// share of a write from sgbd's own /metrics, and recovery after SIGKILL.
	served := func(name string, flags []string, after func(*ingestInstance, *ingestOutcome) error) (*ingestOutcome, error) {
		in, err := setupServeIngest(cfg, flags, st)
		if err != nil {
			return nil, err
		}
		defer in.discard()
		var o *ingestOutcome
		sc.do(name, 4*len(st.cycles), func() { o = ingestLoop(res, in, cfg.guard()) })
		if o.cut {
			return nil, fmt.Errorf("%s: cut short by the guard", name)
		}
		if err := in.drain(); err != nil {
			return nil, err
		}
		return o, after(in, o)
	}
	acked := len(st.points)
	var writeP50 float64
	untraced, err := served("serve_ingest", untracedFlags, func(in *ingestInstance, o *ingestOutcome) error {
		writes := durationsMS(o.writes)
		writeP50 = percentile(writes, 0.5)
		res.set("serve_ingest.write_p50_ms", writeP50, "ms")
		res.set("serve_ingest.write_p99_ms", percentile(writes, 0.99), "ms")
		deltaP50 := percentile(durationsMS(deltaLatencies(res, in, o)), 0.5)
		res.set("serve_ingest.delta_p50_ms", deltaP50, "ms")
		res.set("stream.push_lag_us", (deltaP50-writeP50)*1000, "us")
		m, err := in.srv.scrape()
		if err != nil {
			return err
		}
		res.set("wal.fsyncs_per_write", m["wal_fsync_seconds_count"]/m["wal_appends_total"], "count")
		res.set("wal.fsync_share_of_write", m["wal_fsync_seconds_sum"]/m["wal_fsync_seconds_count"]*1000/writeP50, "ratio")
		rss, err := peakRSSMB(in.srv.pid())
		if err != nil {
			return err
		}
		res.set("serve_ingest.peak_rss_mb", rss, "MB")
		if err := checkIngestState(cfg, res, in, untracedFlags, acked); err != nil {
			return err
		}
		res.set("server.recovery_ms", ms(in.srv.bootTime), "ms")
		res.set("server.replayed_records", float64(in.srv.replayed), "count")
		return nil
	})
	if err != nil {
		return err
	}

	// Served, server tracing on.
	tflags := append(append([]string{}, tracedFlags...), "-slowlog-size", strconv.Itoa(4*len(st.cycles)+len(st.warm)+64))
	traced, err := served("serve_ingest traced", tflags, func(in *ingestInstance, o *ingestOutcome) error {
		return serverSpans(res, in.conn, "INSERT INTO pts", "server.write_span.", []string{"wire_decode", "parse", "execute", "wal_append", "wal_fsync", "stream"})
	})
	if err != nil {
		return err
	}
	res.set("obs.trace_overhead_pct.serve_ingest", 100*(traced.wall.Seconds()/untraced.wall.Seconds()-1), "%")
	return nil
}

// traceWAL measures the log alone on a temporary directory, with serve_ingest's
// INSERT texts as record bodies.
func traceWAL(cfg config, sc scope, res *result, records []string) error {
	dir, err := os.MkdirTemp(cfg.tmp, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var userBytes int64
	appendAll := func(name string, policy wal.SyncPolicy, sub string) (*wal.Log, error) {
		d := filepath.Join(dir, sub)
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
		log, err := wal.Open(wal.Options{Dir: d, Policy: policy}, 0)
		if err != nil {
			return nil, err
		}
		for _, q := range records {
			var (
				err  error
				sync time.Duration
			)
			sc.do(name, 1, func() { _, sync, err = log.AppendSynced(wal.KindStatement, []byte(q)) })
			if err != nil {
				log.Close()
				return nil, err
			}
			if policy == wal.SyncAlways {
				// The one duration not taken from outside: the log reports
				// how long its inline fsync took.
				sc.note("Log.AppendSynced fsync", sync)
			}
		}
		return log, nil
	}
	unsynced, err := appendAll("Log.Append (fsync never)", wal.SyncNever, "never")
	if err != nil {
		return err
	}
	if err := unsynced.Close(); err != nil {
		return err
	}
	synced, err := appendAll("Log.AppendSynced (fsync always)", wal.SyncAlways, "always")
	if err != nil {
		return err
	}
	size, err := synced.SizeBytes()
	if err != nil {
		return err
	}
	if err := synced.Close(); err != nil {
		return err
	}
	for _, q := range records {
		userBytes += int64(len(q))
	}
	var replayed int
	d := sc.do("wal.Replay", len(records), func() {
		_, err = wal.Replay(nil, filepath.Join(dir, "always"), 0, func(wal.Record) error { replayed++; return nil })
	})
	if err != nil {
		return err
	}
	res.check(replayed == len(records), "wal.Replay returned %d records, %d were appended", replayed, len(records))
	res.set("wal.append_us", sc.p50("Log.Append (fsync never)", 1e3), "us")
	res.set("wal.append_synced_us", sc.p50("Log.AppendSynced (fsync always)", 1e3), "us")
	res.set("wal.fsync_us", sc.p50("Log.AppendSynced fsync", 1e3), "us")
	res.set("wal.replay_records_per_s", float64(replayed)/d.Seconds(), "1/s")
	res.set("wal.bytes_per_user_byte", float64(size)/float64(userBytes), "ratio")
	return nil
}

// traceCheckpoint applies serve_ingest's statements to an in-process durable
// store and times one checkpoint of the result.
func traceCheckpoint(cfg config, sc scope, res *result, inserts []string, userBytes int) error {
	dir, err := os.MkdirTemp(cfg.tmp, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := server.OpenStore(server.StoreOptions{Dir: dir, Policy: wal.SyncNever})
	if err != nil {
		return err
	}
	defer store.Close()
	db := store.DB()
	exec := func(q string) error { _, err := db.Exec(q); return err }
	if err := execAll(exec, append(ingestSetupSQL(false), inserts...)); err != nil {
		return err
	}
	sc.do("Store.Checkpoint", 1, func() { err = store.Checkpoint() })
	if err != nil {
		return err
	}
	info, err := os.Stat(filepath.Join(dir, "checkpoint.sgb"))
	if err != nil {
		return err
	}
	res.set("server.checkpoint_ms", sc.p50("Store.Checkpoint", 1e6), "ms")
	res.set("server.checkpoint_bytes_per_user_byte", float64(info.Size())/float64(userBytes), "ratio")
	return nil
}
