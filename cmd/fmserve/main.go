// Command fmserve runs the multi-tenant training service of internal/serve:
// a long-lived HTTP/JSON server that registers datasets once, tracks a
// lifetime privacy budget per tenant (every fit debits it atomically;
// exhaustion yields a typed 402), serves ε-differentially private fits of
// every registered task, and refits from streams of ingested records
// without rescanning them.
//
// This command keeps only flags, listeners and signals. Durable state is
// internal/serve's: serve.Open restores the snapshots (-snapshot-dir) and
// replays the write-ahead log (-wal-dir), a ticker calls Checkpoint every
// -snapshot-every, and after SIGINT/SIGTERM drains in-flight requests,
// Server.Close runs the final snapshot pass. The README's fmserve flag
// table, which scripts/check_docs.sh checks against the flags defined here,
// documents every flag and its default; its Serving, Streaming, Durability
// and Observability sections document the endpoints.
//
// Usage:
//
//	fmserve -addr=:8080 -gen income=us:30000:1 -tenant acme=2.0
//	fmserve -addr=:8080 -snapshot-dir=/var/lib/fmserve -snapshot-every=30s \
//	        -wal-dir=/var/lib/fmserve/wal
//
// The public listener closes a connection that takes more than 10 s to send
// its request headers, and a keep-alive connection idle for 2 minutes;
// -debug-addr binds net/http/pprof on a separate, operator-only listener.
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

	srv, err := serve.Open(serve.Config{WorkerCap: *workerCap},
		serve.Storage{SnapshotDir: *snapshotDir, WALDir: *walDir, Fsync: *walFsync})
	if err != nil {
		fatal(fmt.Errorf("fmserve: %w", err))
	}
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
	// Declare never resets a restored or replayed accountant: the same
	// lifetime budget keeps it, a different one stops the boot.
	for _, spec := range tenants {
		name, budget, err := parseTenant(spec)
		if err != nil {
			fatal(err)
		}
		t, created, err := srv.Tenants().Declare(name, budget)
		if err != nil {
			fatal(fmt.Errorf("fmserve: -tenant: %w", err))
		}
		if created {
			log.Printf("fmserve: tenant %q created (lifetime ε = %v)", name, budget)
		} else {
			log.Printf("fmserve: tenant %q already restored; keeping persisted ε-spend %v", name, t.Session.Spent())
		}
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

	if *snapshotDir != "" && *snapshotEvery > 0 {
		// Nothing waits for this goroutine: Checkpoint serializes with Close.
		go func() {
			t := time.NewTicker(*snapshotEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if err := srv.Checkpoint(); err != nil {
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
	// The final snapshot comes after the drain, so every ingested batch
	// survives the restart.
	if err := srv.Close(); err != nil {
		fatal(fmt.Errorf("fmserve: %w", err))
	}
	if *snapshotDir != "" {
		log.Printf("fmserve: stream snapshots and tenant budgets saved to %s", *snapshotDir)
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
