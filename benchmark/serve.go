package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"sgb"
	"sgb/internal/client"
	"sgb/internal/stream"
)

// serverProc is one sgbd with the data directory it owns.
type serverProc struct {
	*sgbd
	dir string
}

// startServer makes a fresh data directory under cfg.tmp and boots sgbd on it.
func startServer(cfg config, flags []string) (*serverProc, error) {
	dir, err := os.MkdirTemp(cfg.tmp, "data-")
	if err != nil {
		return nil, err
	}
	p, err := startSgbd(cfg.sgbd, dir, flags...)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &serverProc{sgbd: p, dir: dir}, nil
}

// discard kills the server and removes its data directory.
func (s *serverProc) discard() {
	s.kill()
	os.RemoveAll(s.dir)
}

// restart kills the server (a process crash: nothing is drained or flushed)
// and boots a new one on the same data directory.
func (s *serverProc) restart(cfg config, flags []string) error {
	s.kill()
	p, err := startSgbd(cfg.sgbd, s.dir, flags...)
	if err != nil {
		return err
	}
	s.sgbd = p
	return nil
}

// finishServed fills the metrics both serve workloads share.
func finishServed(res *result, srv *serverProc, setupS float64, reads []time.Duration, ops int, wall time.Duration) error {
	res.set("setup_s", setupS, "s")
	res.latency("query", reads, 0.9)
	res.set("ops_s", float64(ops)/wall.Seconds(), "1/s")
	rss, err := peakRSSMB(srv.pid())
	if err != nil {
		return err
	}
	res.set("peak_rss_mb", rss, "MB")
	return nil
}

// ---- serve_read ----

// readInstance is a loaded server with its client connections.
type readInstance struct {
	srv   *serverProc
	conns []*client.Conn
}

func (in *readInstance) discard() {
	for _, c := range in.conns {
		c.Close()
	}
	in.srv.discard()
}

// setupServeRead boots sgbd, loads pts over the wire, ANALYZEs and warms up
// every connection.
func setupServeRead(cfg config, flags []string, pts []sgb.Point, conns, warm int) (*readInstance, error) {
	srv, err := startServer(cfg, flags)
	if err != nil {
		return nil, err
	}
	in := &readInstance{srv: srv}
	for i := 0; i < conns; i++ {
		c, err := srv.connect()
		if err != nil {
			in.discard()
			return nil, err
		}
		in.conns = append(in.conns, c)
	}
	load := append(checkinLoadSQL(pts), "ANALYZE checkins")
	if err := execAll(func(q string) error { _, err := in.conns[0].Exec(q); return err }, load); err != nil {
		in.discard()
		return nil, err
	}
	for _, c := range in.conns {
		for i := 0; i < warm; i++ {
			if _, err := c.Exec(serveReadSQL); err != nil {
				in.discard()
				return nil, err
			}
		}
	}
	return in, nil
}

// readOutcome is what one connection's closed loop observed.
type readOutcome struct {
	lat     []time.Duration
	digests []stmtDigest
	errs    []error
}

// readLoop drives every connection of in closed-loop for perConn statements
// each and returns the outcomes and the wall time of the phase.
func readLoop(in *readInstance, perConn int, guard time.Duration) ([]readOutcome, time.Duration) {
	out := make([]readOutcome, len(in.conns))
	var wg sync.WaitGroup
	begin := time.Now()
	for k, c := range in.conns {
		wg.Add(1)
		go func(k int, c *client.Conn) {
			defer wg.Done()
			o := &out[k]
			o.lat, _ = timedLoop(perConn, guard, func(int) {
				r, err := c.Exec(serveReadSQL)
				var d stmtDigest
				if err == nil {
					d.Rows, d.Sum = rowsChecksum(r)
				}
				o.digests = append(o.digests, d)
				o.errs = append(o.errs, err)
			})
		}(k, c)
	}
	wg.Wait()
	return out, time.Since(begin)
}

// checkReads counts every statement of outs and fails those that errored or
// whose digest differs from want. It returns all latencies in one slice.
func checkReads(res *result, outs []readOutcome, want stmtDigest) []time.Duration {
	var all []time.Duration
	for k, o := range outs {
		all = append(all, o.lat...)
		for i := range o.lat {
			res.Attempted++
			switch {
			case o.errs[i] != nil:
				res.fail(1, "conn %d op %d: %v", k, i, o.errs[i])
			case o.digests[i] != want:
				res.fail(1, "conn %d op %d: got %+v, embedded answer is %+v", k, i, o.digests[i], want)
			}
		}
	}
	return all
}

// embeddedReadAnswer digests what an embedded database answers to the
// serve_read statement on the same rows.
func embeddedReadAnswer(pts []sgb.Point) (stmtDigest, error) {
	var d stmtDigest
	db, err := loadCheckins(pts)
	if err != nil {
		return d, err
	}
	r, err := db.Exec(serveReadSQL)
	if err != nil {
		return d, err
	}
	d.Rows, d.Sum = rowsChecksum(r)
	return d, nil
}

// runServeRead is the serve_read workload: two connections, each a closed
// loop of the SGB-All statement against a real sgbd.
func runServeRead(cfg config) (*result, error) {
	sz := cfg.sizes()
	res := newResult("serve_read")
	var pts []sgb.Point
	in, setupS, err := repeatSetup(cfg.setupReps(), func() (*readInstance, error) {
		pts = genCheckins(sz.readN, cfg.seed)
		return setupServeRead(cfg, untracedFlags, pts, 2, sz.readWarm)
	}, (*readInstance).discard)
	if err != nil {
		return nil, err
	}
	defer in.discard()

	outs, wall := readLoop(in, sz.readOps/2, cfg.guard())
	want, err := embeddedReadAnswer(pts)
	if err != nil {
		return nil, err
	}
	lat := checkReads(res, outs, want)
	if err := finishServed(res, in.srv, setupS, lat, len(lat), wall); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// ---- serve_ingest ----

// ingestInstance is a server with the table, index and view created, the
// writer connected, the subscriber attached and the warm-up rows inserted.
type ingestInstance struct {
	srv    *serverProc
	conn   *client.Conn
	stream *ingestStream
	sub    *subscriber
}

func (in *ingestInstance) discard() {
	if in.sub != nil {
		in.sub.stop()
	}
	if in.conn != nil {
		in.conn.Close()
	}
	in.srv.discard()
}

// subscriber is connection B: it folds the view's deltas into its own copy of
// the group state and notes when each statement's first delta arrived.
type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}
	// Written by the goroutine, read after done is closed.
	state     map[int64][]int64
	firstSeen map[uint64]time.Time // statement WAL sequence → first delta
	err       error
}

// subscribe attaches to view and consumes deltas until one introduces the row
// lastID, the context is cancelled or the stream breaks.
func subscribe(addr, view string, lastID int64) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	sub, err := client.Subscribe(ctx, addr, view)
	if err != nil {
		cancel()
		return nil, err
	}
	s := &subscriber{
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     map[int64][]int64{},
		firstSeen: map[uint64]time.Time{},
	}
	go func() {
		defer close(s.done)
		for ev := range sub.Events {
			now := time.Now()
			if ev.Rebase {
				s.state = map[int64][]int64{}
				continue
			}
			seq := stream.StmtSeq(ev.Delta.Seq)
			if _, ok := s.firstSeen[seq]; !ok {
				s.firstSeen[seq] = now
			}
			stream.Apply(s.state, ev.Delta)
			for _, id := range ev.Delta.Members {
				if id == lastID {
					return
				}
			}
		}
		s.err = sub.Err()
		if s.err == nil {
			s.err = fmt.Errorf("delta stream ended before row %d arrived", lastID)
		}
	}()
	return s, nil
}

// wait blocks until the subscriber has seen the last row or d has passed.
func (s *subscriber) wait(d time.Duration) error {
	select {
	case <-s.done:
		return s.err
	case <-time.After(d):
		return fmt.Errorf("subscriber still waiting for the last row after %v", d)
	}
}

func (s *subscriber) stop() {
	s.cancel()
	<-s.done
}

// setupServeIngest boots sgbd, creates the schema and the view, attaches the
// subscriber and inserts the warm-up rows.
func setupServeIngest(cfg config, flags []string, st *ingestStream) (*ingestInstance, error) {
	srv, err := startServer(cfg, flags)
	if err != nil {
		return nil, err
	}
	in := &ingestInstance{srv: srv, stream: st}
	if in.conn, err = srv.connect(); err != nil {
		in.discard()
		return nil, err
	}
	exec := func(q string) error { _, err := in.conn.Exec(q); return err }
	if err := execAll(exec, ingestSetupSQL(true)); err != nil {
		in.discard()
		return nil, err
	}
	if in.sub, err = subscribe(srv.addr, "hot", int64(len(st.points)-1)); err != nil {
		in.discard()
		return nil, err
	}
	if err := execAll(exec, st.warm); err != nil {
		in.discard()
		return nil, err
	}
	return in, nil
}

// drain inserts the sentinel, the one row past the stream, and waits for its
// delta: once that has reached the subscriber, so has every delta before it.
func (in *ingestInstance) drain() error {
	if _, err := in.conn.Exec(in.stream.sentinel); err != nil {
		return fmt.Errorf("sentinel insert: %w", err)
	}
	return in.sub.wait(30 * time.Second)
}

// ingestOutcome is what connection A observed during the timed phase.
type ingestOutcome struct {
	writes, reads []time.Duration
	sent          []time.Time // when each timed INSERT was sent
	wall          time.Duration
	cut           bool // the guard stopped the loop early
}

// ingestLoop drives the writer: per cycle three 8-row INSERTs and one indexed
// SELECT, each sent when the previous one has answered. Every answer is
// checked on the spot against what the statement stream implies.
func ingestLoop(res *result, in *ingestInstance, guard time.Duration) *ingestOutcome {
	st := in.stream
	o := &ingestOutcome{}
	perCell := map[int]int{}
	rows := 0
	countRows := func(n int) {
		for ; n > 0; n-- {
			perCell[st.cells[rows]]++
			rows++
		}
	}
	countRows(len(st.warm) * ingestRowsPerInsert)
	begin := time.Now()
	for i, cyc := range st.cycles {
		for _, q := range cyc[:3] {
			t := time.Now()
			r, err := in.conn.Exec(q)
			o.writes = append(o.writes, time.Since(t))
			o.sent = append(o.sent, t)
			res.Attempted++
			if err != nil {
				res.fail(1, "cycle %d insert: %v", i, err)
			} else if r.RowsAffected != ingestRowsPerInsert {
				res.fail(1, "cycle %d insert: %d rows affected, want %d", i, r.RowsAffected, ingestRowsPerInsert)
			}
			countRows(ingestRowsPerInsert)
		}
		t := time.Now()
		r, err := in.conn.Exec(cyc[3])
		o.reads = append(o.reads, time.Since(t))
		res.Attempted++
		if err != nil {
			res.fail(1, "cycle %d select: %v", i, err)
		} else if got, _ := r.Rows[0][0].AsInt(); len(r.Rows) != 1 || int(got) != perCell[st.readCells[i]] {
			res.fail(1, "cycle %d select: count %d, want %d", i, got, perCell[st.readCells[i]])
		}
		if time.Since(begin) > guard {
			fmt.Fprintf(os.Stderr, "benchmark: serve_ingest cut short after %d of %d cycles (%v)\n", i+1, len(st.cycles), guard)
			o.cut = true
			break
		}
	}
	o.wall = time.Since(begin)
	return o
}

// deltaLatencies pairs the timed INSERTs with the first delta each caused.
// Statements reach the WAL in the order A sent them and every INSERT adds
// rows to the view, so the k-th distinct statement sequence B saw belongs to
// the k-th INSERT since B attached.
func deltaLatencies(res *result, in *ingestInstance, o *ingestOutcome) []time.Duration {
	seqs := make([]uint64, 0, len(in.sub.firstSeen))
	for s := range in.sub.firstSeen {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	warm := len(in.stream.warm)
	wantStmts := warm + len(o.sent) + 1 // + the sentinel
	res.check(len(seqs) == wantStmts, "subscriber saw deltas of %d statements, %d were acknowledged", len(seqs), wantStmts)
	var out []time.Duration
	for k, sent := range o.sent {
		if warm+k < len(seqs) {
			out = append(out, in.sub.firstSeen[seqs[warm+k]].Sub(sent))
		}
	}
	return out
}

// checkIngestState compares the server's table, the subscriber's folded view
// state and — after a SIGKILL and restart on the same directory — the
// recovered table with what connection A had acknowledged.
func checkIngestState(cfg config, res *result, in *ingestInstance, flags []string, acked int) error {
	st := in.stream
	wantSum := int64(acked) * int64(acked-1) / 2 // ids are 0..acked-1
	tableOK := func(when string) error {
		r, err := in.conn.Exec("SELECT count(*), sum(id) FROM pts")
		if err != nil {
			return fmt.Errorf("%s: %w", when, err)
		}
		n, _ := r.Rows[0][0].AsInt()
		sum, _ := r.Rows[0][1].AsInt()
		res.check(int(n) == acked && sum == wantSum, "%s: table has %d rows (id sum %d), %d were acknowledged (id sum %d)", when, n, sum, acked, wantSum)
		return nil
	}
	if err := tableOK("after the run"); err != nil {
		return err
	}

	if in.sub != nil {
		// The view must hold exactly the connected components of the
		// acknowledged points, whatever order the deltas built them in.
		ref, err := sgb.GroupAny(st.points[:acked], sgb.Options{Metric: sgb.L2, Eps: ingestEps, Algorithm: sgb.IndexBounds})
		if err != nil {
			return err
		}
		want := make([][]int64, len(ref.Groups))
		for i, g := range ref.Groups {
			for _, id := range g.IDs {
				want[i] = append(want[i], int64(id))
			}
		}
		got := make([][]int64, 0, len(in.sub.state))
		for _, members := range in.sub.state {
			got = append(got, members)
		}
		res.check(canonicalPartition(got) == canonicalPartition(want), "subscriber folded %d groups, GroupAny of the acknowledged points has %d (or members differ)", len(got), len(want))
	}

	// Process-crash durability: kill -9, restart, every acknowledged row must
	// be back. The operating system's cache survives a process kill, so this
	// says nothing about power loss.
	in.conn.Close()
	if err := in.srv.restart(cfg, flags); err != nil {
		return err
	}
	var err error
	if in.conn, err = in.srv.connect(); err != nil {
		return err
	}
	return tableOK("after SIGKILL and restart")
}

// runServeIngest is the serve_ingest workload: one writer connection mixing
// INSERTs and indexed reads, one subscriber on the materialized view.
func runServeIngest(cfg config) (*result, error) {
	sz := cfg.sizes()
	res := newResult("serve_ingest")
	in, setupS, err := repeatSetup(cfg.setupReps(), func() (*ingestInstance, error) {
		st := genIngest(sz.ingestCycles, sz.ingestWarm, cfg.seed)
		return setupServeIngest(cfg, untracedFlags, st)
	}, (*ingestInstance).discard)
	if err != nil {
		return nil, err
	}
	defer in.discard()

	o := ingestLoop(res, in, cfg.guard())
	if err := finishServed(res, in.srv, setupS, o.reads, len(o.reads)+len(o.writes), o.wall); err != nil {
		return nil, err
	}
	res.latency("write", o.writes, 0.99)

	acked := (len(in.stream.warm) + len(o.writes)) * ingestRowsPerInsert
	if !o.cut {
		if err := in.drain(); err != nil {
			return nil, err
		}
		acked++
		deltas := deltaLatencies(res, in, o)
		res.set("delta_p50_ms", percentile(durationsMS(deltas), 0.5), "ms")
		res.Samples["delta"] = len(deltas)
	} else {
		in.sub.stop()
		in.sub = nil
		res.fail(1, "run cut short: delta latency and view state not checked")
	}
	if err := checkIngestState(cfg, res, in, untracedFlags, acked); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}
