// Command fmserve runs the multi-tenant training service: a long-lived
// HTTP/JSON server that registers datasets once, tracks a lifetime privacy
// budget per tenant (every fit debits it atomically; exhaustion yields a
// typed 402), and serves ε-differentially private fits of every registered
// task (linear, ridge, logistic, median; funcmech.TaskNames) with the full
// public option surface. One governor of -worker-cap tokens (default
// GOMAXPROCS) bounds fits in flight, ingest folds and extra kernel workers
// together, so concurrent tenants cannot oversubscribe the machine; a fit
// waits for its token before it is charged.
//
// Beyond one-shot fits, streams accept records continuously
// (POST /v1/streams, /v1/streams/{name}/ingest) and serve private refits
// from live coefficient accumulators with no dataset rescan
// (/v1/streams/{name}/refit). Ingest and dataset registration accept both
// JSON bodies (the default) and the fmbin binary frame under
// Content-Type: application/x-fmbin — see docs/FORMAT.md and cmd/fmbin for
// encoding batches from the shell. With -snapshot-dir the stream state is
// persisted — periodically when -snapshot-every > 0, and always on graceful
// shutdown — and restored on boot, so a restarted server refits without
// re-ingesting a single record; snapshots store their coefficient payloads
// as compressed fmbin frames (accumulator envelope v4, the only version
// that restores: a snapshot holding any other stops the boot).
//
// With -wal-dir the privacy accounting is crash-safe: every budget debit is
// appended to a write-ahead log (fsynced per commit unless -wal-fsync=false)
// before any noise is drawn, and boot replays the journal after restoring
// the snapshots — load tenants.json, replay the live segments, then apply
// -tenant flags — so a kill -9 can only ever over-count a tenant's lifetime
// ε-spend, never under-count it. Snapshot passes fold the journal into
// tenants.json and compact the covered segments, keeping the log bounded.
//
// Usage:
//
//	fmserve -addr=:8080 -gen income=us:30000:1 -tenant acme=2.0
//	fmserve -addr=:8080 -worker-cap=8
//	fmserve -addr=:8080 -snapshot-dir=/var/lib/fmserve -snapshot-every=30s \
//	        -wal-dir=/var/lib/fmserve/wal
//
// Datasets and tenants can also be created at runtime via POST /v1/datasets
// and POST /v1/tenants. On SIGINT/SIGTERM the server stops accepting
// requests and drains in-flight fits before exiting (see -drain-timeout).
// The public listener closes a connection that takes more than 10 s to send
// its request headers, and a keep-alive connection idle for 2 minutes.
//
// Observability: every request carries a trace id (X-Request-Id, generated
// when absent) and records spans for queueing, kernel work, the solve, the
// noise draw and the WAL fsync; GET /v1/debug/traces returns the most recent
// traces and -trace-log emits each as one JSON line. GET /metrics serves the
// counters, gauges and latency histograms in Prometheus text format —
// including per-tenant ε-spend — and is the service's only counter surface;
// -debug-addr binds net/http/pprof on a separate, operator-only listener.
// See docs/OBSERVABILITY.md.
//
// Endpoints: GET /healthz, GET /metrics, GET /v1/debug/traces,
// POST/GET /v1/datasets, POST/GET /v1/tenants, GET /v1/tenants/{name},
// POST /v1/fit, POST/GET /v1/streams, POST /v1/streams/{name}/ingest,
// POST /v1/streams/{name}/refit. See the README's Serving and Streaming
// sections for the request and response shapes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // profiling handlers for the -debug-addr listener
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"funcmech"
	"funcmech/internal/serve"
	"funcmech/internal/stream"
	"funcmech/internal/wal"
)

// Slow-client bounds on the public listener: a connection that has not
// sent its request headers within readHeaderTimeout is closed, and so is a
// keep-alive connection idle for idleTimeout. They are constants, not flags,
// because no deployment needs other values.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		workerCap     = flag.Int("worker-cap", 0, "governor tokens shared by fits in flight, ingest folds and kernel workers; excess fits queue before they are charged (0 = GOMAXPROCS)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight fits")
		snapshotDir   = flag.String("snapshot-dir", "", "directory for stream snapshots; restored on boot, saved on shutdown (empty = no persistence)")
		snapshotEvery = flag.Duration("snapshot-every", 30*time.Second, "periodic stream-snapshot interval (0 = only on shutdown; needs -snapshot-dir)")
		walDir        = flag.String("wal-dir", "", "directory for the ε-accounting write-ahead log; replayed on boot so hard kills never under-count spend (empty = snapshots only)")
		walFsync      = flag.Bool("wal-fsync", true, "fsync the WAL on every charge; =false trades a crash window of recent charges for lower fit latency")
		debugAddr     = flag.String("debug-addr", "", "separate listen address for net/http/pprof profiling endpoints (empty = profiling off; never expose publicly)")
		traceLog      = flag.Bool("trace-log", false, "emit one structured JSON log line per completed request trace on stderr")
		gens          []string
		tenants       []string
	)
	flag.Func("gen", "register a generated census dataset, name=profile:n[:seed] (repeatable)", func(v string) error {
		gens = append(gens, v)
		return nil
	})
	flag.Func("tenant", "create a tenant, name=budget (repeatable)", func(v string) error {
		tenants = append(tenants, v)
		return nil
	})
	flag.Parse()

	srv := serve.New(serve.Config{WorkerCap: *workerCap})
	for _, spec := range gens {
		name, ds, err := parseGen(spec)
		if err != nil {
			fatal(err)
		}
		if err := srv.Registry().Register(name, ds); err != nil {
			fatal(err)
		}
		log.Printf("fmserve: dataset %q registered (%d records × %d features)", name, ds.Len(), ds.NumFeatures())
	}
	// Boot order is load-bearing for the accounting: restore the snapshots
	// (streams, then tenants.json — persisted lifetime ε-spend is
	// authoritative), replay the write-ahead log's live segments over them,
	// and only then apply the -tenant flags. A flag re-declaring a restored
	// or replayed tenant must never reset its accounting.
	var store *stream.Store
	var budgetsLSN uint64
	if *snapshotDir != "" {
		var err error
		if store, err = stream.NewStore(*snapshotDir); err != nil {
			fatal(err)
		}
		n, err := store.LoadAll(srv.Streams())
		if err != nil {
			fatal(fmt.Errorf("fmserve: restoring snapshots: %w", err))
		}
		records, batches := srv.Streams().Totals()
		log.Printf("fmserve: restored %d stream(s) from %s (%d records over %d batches, no re-ingest needed)",
			n, store.Dir(), records, batches)
		var nt int
		nt, budgetsLSN, err = srv.Tenants().LoadBudgets(store.Dir())
		if err != nil {
			fatal(fmt.Errorf("fmserve: restoring tenant budgets: %w", err))
		}
		if nt > 0 {
			log.Printf("fmserve: restored %d tenant budget(s) from %s (lifetime ε-spend preserved, wal lsn %d covered)",
				nt, store.Dir(), budgetsLSN)
		}
	}
	var wlog *wal.Log
	if *walDir != "" {
		applied, last, err := srv.ReplayWAL(*walDir, budgetsLSN)
		if err != nil {
			fatal(fmt.Errorf("fmserve: replaying wal: %w", err))
		}
		// The next LSN must clear everything any snapshot claims to cover,
		// even if compaction emptied the journal itself.
		floor := max(last, budgetsLSN)
		for _, st := range srv.Streams().All() {
			floor = max(floor, st.WALLSN())
		}
		if wlog, err = wal.Open(*walDir, wal.Options{Fsync: *walFsync, Floor: floor}); err != nil {
			fatal(fmt.Errorf("fmserve: opening wal: %w", err))
		}
		srv.UseWAL(wlog)
		log.Printf("fmserve: wal replay applied %d event(s) from %s (last lsn %d, fsync=%v)",
			applied, *walDir, wlog.LastLSN(), *walFsync)
	}
	for _, spec := range tenants {
		name, budget, err := parseTenant(spec)
		if err != nil {
			fatal(err)
		}
		if t, ok := srv.Tenants().Lookup(name); ok {
			if t.Session.Total() != budget {
				fatal(fmt.Errorf("fmserve: -tenant %q=%v conflicts with restored lifetime budget %v", name, budget, t.Session.Total()))
			}
			log.Printf("fmserve: tenant %q already restored from snapshot; keeping persisted ε-spend %v", name, t.Session.Spent())
			continue
		}
		if _, err := srv.Tenants().Create(name, budget); err != nil {
			fatal(err)
		}
		log.Printf("fmserve: tenant %q created (lifetime ε = %v)", name, budget)
	}

	if *traceLog {
		srv.SetTraceLogger(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	}
	// The profiling listener is deliberately its own socket: pprof exposes
	// goroutine stacks and heap contents, so it stays off the service address
	// entirely and is only bound when an operator asks for it.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(fmt.Errorf("fmserve: debug listener: %w", err))
		}
		go func() {
			// http.DefaultServeMux carries the net/http/pprof handlers
			// registered by the import's init.
			if err := http.Serve(dln, http.DefaultServeMux); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("fmserve: debug server: %v", err)
			}
		}()
		log.Printf("fmserve: pprof profiling on %s/debug/pprof/", dln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	// The token cap bounds fits in flight and workers alike; perfbench
	// parses both numbers from this line.
	tokens := srv.Governor().Cap()
	log.Printf("fmserve: listening on %s (max fits %d, worker cap %d)", ln.Addr(), tokens, tokens)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One snapshot pass: read the journal position FIRST, then collect state —
	// every charge journaled at or below that LSN was already debited, so the
	// snapshots necessarily fold it in and replay may skip it. Only when the
	// whole pass persisted does compaction fold the covered segments away.
	snapshotPass := func() error {
		var covered uint64
		if wlog != nil {
			covered = wlog.LastLSN()
		}
		if err := store.SaveAll(srv.Streams(), covered); err != nil {
			return fmt.Errorf("fmserve: stream snapshot: %w", err)
		}
		if err := srv.Tenants().SaveBudgets(store.Dir(), covered); err != nil {
			return fmt.Errorf("fmserve: tenant-budget snapshot: %w", err)
		}
		if wlog != nil {
			if n, err := wlog.Compact(covered); err != nil {
				log.Printf("fmserve: wal compaction failed: %v", err)
			} else if n > 0 {
				log.Printf("fmserve: wal compacted %d segment(s) up to lsn %d", n, covered)
			}
		}
		return nil
	}

	snapDone := make(chan struct{})
	close(snapDone)
	if store != nil && *snapshotEvery > 0 {
		snapDone = make(chan struct{})
		go func() {
			defer close(snapDone)
			t := time.NewTicker(*snapshotEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if err := snapshotPass(); err != nil {
						log.Printf("fmserve: periodic snapshot failed: %v", err)
					}
				}
			}
		}()
	}

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop()

	log.Printf("fmserve: draining in-flight fits (timeout %s)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		fatal(fmt.Errorf("fmserve: drain failed: %w", err))
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	if store != nil {
		// Final snapshot after the drain, so every ingested batch survives
		// the restart. Wait out any periodic pass still in flight first — a
		// stale save finishing later would rename over the final one. With
		// nothing in flight, the pass covers the journal's last LSN exactly,
		// so the next boot's replay is a no-op (idempotent restart).
		<-snapDone
		if err := snapshotPass(); err != nil {
			fatal(fmt.Errorf("fmserve: final snapshot failed: %w", err))
		}
		log.Printf("fmserve: stream snapshots and tenant budgets saved to %s", store.Dir())
	}
	if wlog != nil {
		if err := wlog.Close(); err != nil {
			fatal(fmt.Errorf("fmserve: closing wal: %w", err))
		}
	}
	log.Printf("fmserve: drained, bye")
}

// parseGen parses name=profile:n[:seed].
func parseGen(spec string) (string, *funcmech.Dataset, error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return "", nil, fmt.Errorf("fmserve: -gen %q: want name=profile:n[:seed]", spec)
	}
	parts := strings.Split(rest, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return "", nil, fmt.Errorf("fmserve: -gen %q: want name=profile:n[:seed]", spec)
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil {
		return "", nil, fmt.Errorf("fmserve: -gen %q: bad record count: %v", spec, err)
	}
	seed := int64(1)
	if len(parts) == 3 {
		seed, err = strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return "", nil, fmt.Errorf("fmserve: -gen %q: bad seed: %v", spec, err)
		}
	}
	ds, err := serve.GenerateCensus(parts[0], n, seed)
	if err != nil {
		return "", nil, err
	}
	return name, ds, nil
}

// parseTenant parses name=budget.
func parseTenant(spec string) (string, float64, error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return "", 0, fmt.Errorf("fmserve: -tenant %q: want name=budget", spec)
	}
	budget, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return "", 0, fmt.Errorf("fmserve: -tenant %q: bad budget: %v", spec, err)
	}
	return name, budget, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "%v\n", err)
	os.Exit(1)
}
