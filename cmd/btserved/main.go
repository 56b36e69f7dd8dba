// Command btserved is the long-running serving daemon over the nocbt
// simulator: an HTTP/JSON service executing inference requests on a
// sharded pool of warm accelerator engines via a work-conserving
// micro-batcher, with a content-addressed result cache in front of
// experiments and inferences.
//
// Usage:
//
//	btserved [-addr :8344] [-replicas 2] [-max-batch 8] [-cache-entries 1024]
//	         [-cache-dir DIR] [-trace-spans 4096] [-pprof]
//
// Endpoints (see internal/serve):
//
//	GET  /healthz              liveness + uptime
//	GET  /metrics              Prometheus text counters, histograms and gauges
//	GET  /v1/experiments       registered experiments
//	POST /v1/experiments/run   {"name":"fig12","params":{"seed":1}}
//	POST /v1/infer             {"model":"lenet","seed":1,"input_seed":7}
//	GET  /debug/trace          newest serving spans as Chrome trace-event JSON
//	GET  /debug/pprof/         net/http/pprof (only with -pprof)
//
// Every request is answered with an X-Request-ID header and logged as one
// structured slog record; error bodies repeat the request ID.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nocbt/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "btserved:", err)
		os.Exit(1)
	}
}

// testOnListen, when set by a test, observes the bound address.
var testOnListen func(net.Addr)

// run parses flags, builds the serving stack and serves until ctx is
// cancelled (then drains connections and returns nil).
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("btserved", flag.ContinueOnError)
	addr := fs.String("addr", ":8344", "listen address")
	replicas := fs.Int("replicas", 2, "warm engines per (platform, model, seed) shard")
	maxBatch := fs.Int("max-batch", 8, "most requests coalesced into one batch while every replica is busy (1 disables coalescing)")
	cacheEntries := fs.Int("cache-entries", 1024, "result cache memory-tier capacity")
	cacheDir := fs.String("cache-dir", "", "result cache disk tier (empty: memory only)")
	traceSpans := fs.Int("trace-spans", 4096, "span ring capacity for /debug/trace (negative disables)")
	enablePprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	srv, err := serve.New(serve.Config{
		Replicas:     *replicas,
		MaxBatch:     *maxBatch,
		CacheEntries: *cacheEntries,
		CacheDir:     *cacheDir,
		TraceSpans:   *traceSpans,
		EnablePprof:  *enablePprof,
		Logger:       slog.New(slog.NewTextHandler(stdout, nil)),
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if testOnListen != nil {
		testOnListen(ln.Addr())
	}
	fmt.Fprintf(stdout, "btserved: listening on %s (replicas=%d max-batch=%d)\n",
		ln.Addr(), *replicas, *maxBatch)

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Fprintln(stdout, "btserved: shutting down")
		//nocbtlint:ignore ctxcheck: the parent ctx is already cancelled here; the shutdown grace period needs its own clock
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			return err
		}
		<-errc // Serve has returned http.ErrServerClosed
		return nil
	}
}
