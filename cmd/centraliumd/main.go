// Command centraliumd serves the what-if/plan/explain control-plane API
// over HTTP from warm converged-scenario snapshots. See internal/server
// for the serving model (per-request forks, bounded worker pool,
// deterministic responses) and README.md for the endpoint reference.
//
// Usage:
//
//	centraliumd [-addr :8080] [-workers 4] [-queue 64] [-timeout 30s]
//	centraliumd -data-dir /var/lib/centralium [-fsync always]
//
// With -data-dir the daemon is durable: plan search progress journals to
// a write-ahead log after every completed level, guarded executions
// (POST /v1/execute) checkpoint to it before every wave with their
// last-good snapshots in the object store, and a restarted daemon
// recovers its jobs on boot — an in-flight POST /v1/plan resumes by plan
// ID from its last journaled level, and a campaign killed mid-execution
// resumes from its WAL checkpoint to the byte-identical terminal state.
// Scenario bases and memoized responses are rebuilt on demand.
//
// SIGINT/SIGTERM drains: in-flight requests finish, new ones get 503,
// then the listener closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"centralium/internal/server"
	"centralium/internal/store"
)

// options is one parsed command line.
type options struct {
	addr    string
	workers int
	queue   int
	cache   int
	memo    int
	timeout time.Duration
	drainT  time.Duration
	dataDir string
	fsync   string
	compact int
}

// parseFlags parses args (without the program name) into options.
func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("centraliumd", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.workers, "workers", 4, "worker pool width (concurrent evaluations)")
	fs.IntVar(&o.queue, "queue", 64, "admission queue depth beyond the pool (then 429)")
	fs.IntVar(&o.cache, "cache", 8, "warm snapshot cache size (scenario bases)")
	fs.IntVar(&o.memo, "memo", 256, "response memo size (bodies)")
	fs.DurationVar(&o.timeout, "timeout", 30*time.Second, "default per-request deadline")
	fs.DurationVar(&o.drainT, "drain-timeout", 60*time.Second, "max wait for in-flight work on shutdown")
	fs.StringVar(&o.dataDir, "data-dir", "", "durable state directory (WAL + snapshot store); empty serves in-memory only")
	fs.StringVar(&o.fsync, "fsync", "always", "WAL fsync policy with -data-dir: always, interval, or never")
	fs.IntVar(&o.compact, "compact-segments", 8, "compact the WAL once it exceeds this many segments")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, err := o.syncPolicy(); err != nil {
		return nil, err
	}
	return o, nil
}

// syncPolicy maps the -fsync flag onto the store's policy.
func (o *options) syncPolicy() (store.SyncPolicy, error) {
	switch o.fsync {
	case "always":
		return store.SyncAlways, nil
	case "interval":
		return store.SyncInterval, nil
	case "never":
		return store.SyncNever, nil
	}
	return 0, fmt.Errorf("unknown -fsync policy %q (always, interval, never)", o.fsync)
}

// build opens the durable store (when configured), recovers, and
// returns the serving daemon plus the store to close on shutdown (nil
// without -data-dir).
func build(o *options) (*server.Server, *store.Store, error) {
	cfg := server.Config{
		Workers:         o.workers,
		QueueDepth:      o.queue,
		CacheSize:       o.cache,
		MemoSize:        o.memo,
		DefaultTimeout:  o.timeout,
		CompactSegments: o.compact,
	}
	var st *store.Store
	if o.dataDir != "" {
		sync, err := o.syncPolicy()
		if err != nil {
			return nil, nil, err
		}
		st, err = store.Open(o.dataDir, store.Options{Sync: sync})
		if err != nil {
			return nil, nil, fmt.Errorf("open data dir: %w", err)
		}
		cfg.Store = st
	}
	srv, err := server.Open(cfg)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return nil, nil, err
	}
	return srv, st, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	srv, st, err := build(o)
	if err != nil {
		log.Fatalf("centraliumd: %v", err)
	}
	if st != nil {
		plans, execs, truncated := srv.Recovered()
		log.Printf("centraliumd recovered from %s: %d plans, %d executions (%d corrupt tail bytes truncated)",
			o.dataDir, plans, execs, truncated)
	}
	httpSrv := &http.Server{Addr: o.addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("centraliumd listening on %s (workers=%d queue=%d)", o.addr, o.workers, o.queue)

	select {
	case err := <-errCh:
		log.Fatalf("centraliumd: %v", err)
	case <-ctx.Done():
	}

	log.Printf("centraliumd draining (up to %v)...", o.drainT)
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainT)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "centraliumd: drain: %v\n", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "centraliumd: shutdown: %v\n", err)
	}
	if st != nil {
		if err := st.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "centraliumd: close store: %v\n", err)
		}
	}
	log.Printf("centraliumd stopped")
}
