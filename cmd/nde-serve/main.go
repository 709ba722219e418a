// Command nde-serve is the data-debugging daemon: the nde facade —
// kNN-Shapley importance, removal what-ifs, cleaning-strategy comparison
// — served as a JSON HTTP API with the ops telemetry plane mounted on
// the same listener.
//
// Usage:
//
//	nde-serve [-addr 127.0.0.1:8080] [-slots 4] [-queue 8]
//	          [-max-body 8388608] [-pprof] [-drain-timeout 30s]
//	          [telemetry flags]
//
// Endpoints:
//
//	POST /v1/datasets    register train/valid[/test] CSVs or inline matrices
//	POST /v1/importance  kNN-Shapley scores for every training row
//	POST /v1/whatif      batch removal what-ifs (identity provenance)
//	POST /v1/cleaning    cleaning-strategy comparison (needs test+truth)
//	GET  /v1/runs/{id}   poll an async run
//	GET  /metrics /healthz /readyz /trace   ops plane
//
// Lifecycle: SIGTERM or SIGINT starts a graceful drain — /readyz flips
// to 503, new computations are shed with 503 class "draining", in-flight
// ones (async runs included) finish, then the listener shuts down and
// the telemetry session (ledger, metric/trace dumps) is flushed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nde/internal/obs"
	"nde/internal/obs/ops"
	"nde/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "nde-serve:", err)
		os.Exit(1)
	}
}

// serveConfig maps the flags to a serve.Config. The config reads Queue 0
// as "use the default", so -queue 0, no queue at all, becomes -1.
func serveConfig(slots, queue int, maxBody int64, pprof bool) serve.Config {
	if queue == 0 {
		queue = -1
	}
	return serve.Config{Slots: slots, Queue: queue, MaxBodyBytes: maxBody, Ops: ops.Config{Pprof: pprof}}
}

// run is the whole daemon behind flag parsing; it returns instead of
// exiting so tests can drive a full lifecycle in-process. It serves
// until the listener fails or a termination signal completes a drain.
func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("nde-serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for a free port)")
	slots := fs.Int("slots", 4, "concurrent computation budget")
	queue := fs.Int("queue", 8, "computations that may wait for a slot before 429s (0: shed as soon as every slot is busy)")
	maxBody := fs.Int64("max-body", 8<<20, "request body cap in bytes")
	pprofFlag := fs.Bool("pprof", false, "expose /debug/pprof on the listener")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight computations on shutdown")
	tf := ops.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A daemon's /metrics is only useful if counters move, so obs is on
	// regardless of the telemetry flags (which add the ledger and dumps).
	obs.Enable()
	sess, err := tf.StartDaemon("nde-serve", stderr)
	if err != nil {
		return err
	}

	core := serve.NewServer(serveConfig(*slots, *queue, *maxBody, *pprofFlag))
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		sess.Close()
		return fmt.Errorf("listening on %s: %w", *addr, err)
	}
	srv := &http.Server{Handler: core.Handler(), ReadHeaderTimeout: 5 * time.Second}

	// Register the signal handler before announcing the address so a
	// supervisor that kills us immediately is never missed.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	fmt.Fprintf(stderr, "nde-serve: listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		// The listener died on its own; there is nothing to drain.
		sess.Close()
		return err
	case sig := <-sigc:
		fmt.Fprintf(stderr, "nde-serve: %s received, draining\n", sig)
	}

	// Drain: stop admitting computations, wait (bounded) for in-flight
	// ones, then close the listener and flush the telemetry session.
	drained := make(chan struct{})
	go func() {
		core.Drain()
		close(drained)
	}()
	select {
	case <-drained:
		fmt.Fprintln(stderr, "nde-serve: in-flight work finished")
	case <-time.After(*drainTimeout):
		fmt.Fprintf(stderr, "nde-serve: drain timeout after %s, shutting down anyway\n", *drainTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "nde-serve: shutdown: %v\n", err)
	}
	if err := sess.Close(); err != nil {
		return fmt.Errorf("closing telemetry session: %w", err)
	}
	fmt.Fprintln(stderr, "nde-serve: drained, bye")
	return nil
}
