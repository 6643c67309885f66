// Command sgbd is the similarity group-by database server: it serves a
// shared engine.DB over the internal/wire TCP protocol and exports
// Prometheus metrics plus health probes over HTTP.
//
//	sgbd -addr 127.0.0.1:7433 -metrics-addr 127.0.0.1:9433 \
//	     -data-dir /var/lib/sgbd -fsync always -checkpoint-interval 1m \
//	     -max-conns 100 -idle-timeout 5m
//
// Flags:
//
//	-addr            TCP listen address for the wire protocol
//	-metrics-addr    HTTP listen address for /metrics, /healthz, /readyz ("" disables)
//	-data-dir DIR    durable mode: write-ahead log + checkpoints in DIR;
//	                 recovery replays the log tail at boot
//	-fsync POLICY    WAL fsync policy: always | interval | never
//	-fsync-interval D  flush period when -fsync interval
//	-checkpoint-interval D  background snapshot+log-trim period (0 disables)
//	-max-conns N     reject connections beyond N concurrently open (0 = off)
//	-idle-timeout D  close connections idle between statements for D (0 = off)
//	-max-rows N      default per-query row-materialization limit (0 = off)
//	-max-time D      default per-query execution time limit (0 = off)
//	-alg NAME        default SGB algorithm: auto (cost-based) | allpairs |
//	                 bounds | index
//	-drain-timeout D grace period for in-flight statements on shutdown
//	-slow-query D    slowlog threshold: statements at least this slow are
//	                 kept with their full trace (0 keeps all, -1 disables)
//	-slowlog-size N  slow-query ring buffer capacity
//	-trace-sample N  collect per-operator EXPLAIN ANALYZE actuals on every
//	                 Nth statement (1 = every statement, 0 = never)
//	-auto-analyze    re-ANALYZE tables in the background when a write pushes
//	                 their statistics past the staleness threshold (default on)
//	-mem-budget N    process-wide query memory budget (suffix K/M/G; 0 = off).
//	                 Queries are admitted against it and shed with a typed
//	                 retryable error under sustained pressure
//	-max-active-queries N  cap statements executing concurrently (0 = off);
//	                 excess statements queue, then shed with CodeOverloaded
//	-admission-queue N  bound on statements waiting for an execution slot
//	-probe-interval D  how often a degraded (read-only after disk fault) store
//	                 re-probes the disk and tries to promote back to writable
//	-version         print version and build info, then exit
//
// The metrics listener also serves the observability surface: /debug/queries
// (live process list), /debug/slowlog (recent slow queries with their
// traces), /debug/views (materialized view state, delta rates, staleness,
// subscriber counts), and the standard /debug/pprof/ profiles.
//
// Without -data-dir the database is ephemeral: it starts empty and is lost at
// exit.
//
// Materialized views (CREATE MATERIALIZED VIEW ... GROUP BY ... WITHIN eps)
// are maintained incrementally from the commit path in both boot modes and
// served to SUBSCRIBE clients as typed delta streams with WAL-anchored
// resume tokens; see internal/stream.
//
// With -data-dir, every committed DML/DDL statement is appended to the WAL
// before it is acknowledged on the wire (under -fsync always, a kill -9 or
// power loss after the acknowledgement loses nothing), and boot recovers by
// loading the latest checkpoint then replaying the log tail. The HTTP
// /readyz endpoint answers 503 until that recovery completes and 503 again
// while draining; /healthz answers 200 whenever the process is up.
//
// Per-connection sessions inherit the flag defaults and may override them
// with wire Set messages (sgbcli -connect maps \limits, \alg onto
// those). SIGINT/SIGTERM drain gracefully: the listener closes,
// in-flight statements get -drain-timeout to finish, then a final checkpoint
// is written when -data-dir is set.
//
// sgbd prints "listening on <addr>" and "metrics on http://<addr>/metrics"
// to stdout once ready, so scripts using ":0" ports can scrape the actual
// addresses.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"sgb/internal/engine"
	"sgb/internal/obs"
	"sgb/internal/server"
	"sgb/internal/stream"
	"sgb/internal/wal"
)

// buildVersion identifies this sgbd build in -version output and the
// sgbd_build_info metric. Overridable at link time:
//
//	go build -ldflags "-X main.buildVersion=v1.2.3" ./cmd/sgbd
var buildVersion = "0.6.0-dev"

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7433", "wire protocol listen address")
		metricsAddr  = flag.String("metrics-addr", "127.0.0.1:9433", "HTTP /metrics,/healthz,/readyz listen address (empty disables)")
		dataDir      = flag.String("data-dir", "", "durable data directory (WAL + checkpoints); empty = not durable")
		fsyncPolicy  = flag.String("fsync", "always", "WAL fsync policy: always|interval|never")
		fsyncEvery   = flag.Duration("fsync-interval", 100*time.Millisecond, "flush period with -fsync interval")
		ckptEvery    = flag.Duration("checkpoint-interval", time.Minute, "background checkpoint period (0 disables)")
		maxConns     = flag.Int("max-conns", 0, "max concurrently open connections (0 = unlimited)")
		idleTimeout  = flag.Duration("idle-timeout", 0, "close connections idle between statements this long (0 = never)")
		maxRows      = flag.Int64("max-rows", 0, "default per-query rows-materialized limit (0 = unlimited)")
		maxTime      = flag.Duration("max-time", 0, "default per-query execution time limit (0 = unlimited)")
		alg          = flag.String("alg", "auto", "default SGB algorithm: auto|allpairs|bounds|index")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight statements on shutdown")
		slowQuery    = flag.Duration("slow-query", 100*time.Millisecond, "slowlog threshold (0 logs every statement, negative disables)")
		slowlogSize  = flag.Int("slowlog-size", 128, "slow-query ring buffer capacity")
		traceSample  = flag.Int("trace-sample", engine.DefaultTraceSampling, "collect EXPLAIN ANALYZE actuals every Nth statement (1 = always, 0 = never)")
		autoAnalyze  = flag.Bool("auto-analyze", true, "re-ANALYZE tables in the background when their statistics go stale")
		memBudget    = flag.String("mem-budget", "", "process-wide query memory budget, e.g. 256M or 2G (empty/0 = unlimited)")
		maxActive    = flag.Int("max-active-queries", 0, "max statements executing concurrently (0 = unlimited)")
		admitQueue   = flag.Int("admission-queue", 0, "max statements waiting for an execution slot (0 = default 64)")
		probeEvery   = flag.Duration("probe-interval", 0, "degraded-store disk re-probe period (0 = default 1s)")
		faultBudget  = flag.Int64("fault-disk-budget", 0, "TESTING ONLY: inject ENOSPC after this many WAL bytes (0 = off)")
		showVersion  = flag.Bool("version", false, "print version and build info, then exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Printf("sgbd %s (%s, %s/%s)\n", buildVersion, runtime.Version(), runtime.GOOS, runtime.GOARCH)
		return
	}
	cfg := daemonConfig{
		addr: *addr, metricsAddr: *metricsAddr,
		dataDir: *dataDir, fsync: *fsyncPolicy, fsyncInterval: *fsyncEvery,
		checkpointInterval: *ckptEvery, maxConns: *maxConns,
		idleTimeout: *idleTimeout, maxRows: *maxRows, maxTime: *maxTime,
		alg: *alg, drainTimeout: *drainTimeout,
		slowQuery: *slowQuery, slowlogSize: *slowlogSize, traceSample: *traceSample,
		autoAnalyze: *autoAnalyze,
		maxActive:   *maxActive, admitQueue: *admitQueue,
		probeInterval: *probeEvery, faultDiskBudget: *faultBudget,
	}
	var err error
	if cfg.memBudget, err = parseBytes(*memBudget); err != nil {
		fmt.Fprintln(os.Stderr, "sgbd: bad -mem-budget:", err)
		os.Exit(1)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "sgbd:", err)
		os.Exit(1)
	}
}

type daemonConfig struct {
	addr, metricsAddr  string
	dataDir            string
	fsync              string
	fsyncInterval      time.Duration
	checkpointInterval time.Duration
	maxConns           int
	idleTimeout        time.Duration
	maxRows            int64
	maxTime            time.Duration
	alg                string
	drainTimeout       time.Duration
	slowQuery          time.Duration
	slowlogSize        int
	traceSample        int
	autoAnalyze        bool
	memBudget          int64
	maxActive          int
	admitQueue         int
	probeInterval      time.Duration
	faultDiskBudget    int64
}

// parseBytes parses a byte count with an optional K/M/G suffix ("256M").
func parseBytes(s string) (int64, error) {
	if s == "" || s == "0" {
		return 0, nil
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("want a non-negative byte count like 256M, got %q", s)
	}
	return n * mult, nil
}

func run(cfg daemonConfig) error {
	// The HTTP side comes up before recovery so /healthz answers immediately
	// and /readyz honestly reports 503 while the WAL tail replays.
	reg := obs.NewRegistry()
	health := server.NewHealth()

	// Build identity and uptime. The fsync label reflects the effective
	// durability mode ("none" without -data-dir), so one scrape answers
	// "what is this process and how safe are its commits".
	fsyncLabel := "none"
	if cfg.dataDir != "" {
		fsyncLabel = cfg.fsync
	}
	reg.Gauge(fmt.Sprintf("sgbd_build_info{version=%q,go=%q,fsync=%q}",
		buildVersion, runtime.Version(), fsyncLabel)).Set(1)
	uptime := reg.Gauge("server_uptime_seconds")
	procStart := time.Now()

	var metricsSrv *http.Server
	var mux *http.ServeMux
	if cfg.metricsAddr != "" {
		ln, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listen %s: %w", cfg.metricsAddr, err)
		}
		mux = http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			uptime.Set(time.Since(procStart).Seconds())
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			_ = reg.WritePrometheus(w)
		})
		health.Register(mux)
		// Standard pprof profiles, on the metrics listener rather than
		// http.DefaultServeMux so the wire port stays protocol-only.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		metricsSrv = &http.Server{Handler: mux}
		go func() { _ = metricsSrv.Serve(ln) }()
		fmt.Printf("metrics on http://%s/metrics\n", ln.Addr())
	}

	// Boot the database: durable store or ephemeral. The stream manager rides
	// the commit path in both modes — as the store's commit observer when
	// durable (WAL sequences number the delta stream, and recovery replay
	// regenerates delta history), or hooked straight into the engine otherwise.
	streams := stream.NewManager()
	var (
		db    *engine.DB
		store *server.Store
	)
	if cfg.dataDir != "" {
		policy, err := wal.ParseSyncPolicy(cfg.fsync)
		if err != nil {
			return err
		}
		var fs wal.FS
		if cfg.faultDiskBudget > 0 {
			// Testing hook: a FaultFS with an ENOSPC byte budget simulates the
			// disk filling up mid-run, driving the degraded read-only mode.
			ffs := wal.NewFaultFS(wal.OS)
			ffs.FailWithENOSPCAfter(cfg.faultDiskBudget)
			fs = ffs
			fmt.Printf("fault injection: WAL ENOSPC after %d bytes\n", cfg.faultDiskBudget)
		}
		store, err = server.OpenStore(server.StoreOptions{
			Dir:                cfg.dataDir,
			Policy:             policy,
			SyncInterval:       cfg.fsyncInterval,
			CheckpointInterval: cfg.checkpointInterval,
			Metrics:            reg,
			Observer:           streams,
			FS:                 fs,
			ProbeInterval:      cfg.probeInterval,
		})
		if err != nil {
			return err
		}
		db = store.DB()
		fmt.Printf("recovered data dir %s (%d tables, %d wal records replayed, fsync %s)\n",
			cfg.dataDir, len(db.Catalog().Names()), store.ReplayedRecords(), policy)
	} else {
		db = engine.NewDB()
		db.SetMetrics(reg)
		streams.AttachEngine(db)
	}

	alg, ok := engine.ParseSGBAlgorithm(cfg.alg)
	if !ok {
		return fmt.Errorf("unknown -alg %q (want auto|allpairs|bounds|index)", cfg.alg)
	}
	db.SetSGBAlgorithm(alg)
	db.SetLimits(engine.Limits{MaxRowsMaterialized: cfg.maxRows, MaxExecutionTime: cfg.maxTime})
	db.SetTraceSampling(cfg.traceSample)
	db.SetAutoAnalyze(cfg.autoAnalyze)
	// The budget arms only after recovery: boot-time WAL replay must never be
	// subject to admission control.
	db.SetMemoryBudget(cfg.memBudget)

	srv := server.New(db, server.Config{
		Addr:               cfg.addr,
		MaxConns:           cfg.maxConns,
		IdleTimeout:        cfg.idleTimeout,
		SlowQueryThreshold: cfg.slowQuery,
		SlowLogSize:        cfg.slowlogSize,
		Streams:            streams,
		Store:              store,
		MaxActiveQueries:   cfg.maxActive,
		AdmissionQueue:     cfg.admitQueue,
	})
	if err := srv.Start(); err != nil {
		return err
	}
	if mux != nil {
		// ServeMux registration is concurrency-safe, so the introspection
		// endpoints may join the already-serving metrics mux now that the
		// server exists.
		srv.RegisterDebug(mux)
	}
	fmt.Printf("listening on %s\n", srv.Addr())
	if store != nil {
		health.SetDegradedFunc(func() bool {
			degraded, _, _ := store.Degraded()
			return degraded
		})
	}
	health.SetReady(true)

	// Graceful shutdown: SIGINT/SIGTERM stops accepting, drains in-flight
	// statements for drainTimeout, then force-cancels what remains.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	sig := <-sigCh
	health.SetReady(false)
	fmt.Printf("received %s, draining (grace %v)\n", sig, cfg.drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "sgbd: drain incomplete:", err)
	}
	if metricsSrv != nil {
		_ = metricsSrv.Shutdown(context.Background())
	}
	if store != nil {
		if err := store.Close(); err != nil {
			return fmt.Errorf("closing data dir: %w", err)
		}
		fmt.Printf("final checkpoint written to %s\n", cfg.dataDir)
	}
	return nil
}
