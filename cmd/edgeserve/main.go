// Command edgeserve is the long-running query service over the lake:
// it assembles the same pipeline as edgereport (store, agg cache,
// rollup tier, fault plan) and serves the experiment registry, the
// paper's figures and ad-hoc scans over HTTP. Concurrent queries
// share one pipeline's caches under admission control, so many
// readers cannot OOM one lake.
//
// Usage:
//
//	edgeserve -store /data/lake -aggcache /data/agg -rollup /data/rollups
//	edgeserve -addr 127.0.0.1:8080 -query-workers 8 -queue 16
//	edgeserve -scale small -stride 240          # simulation-fed, no lake
//
// Endpoints: /v1/healthz, /v1/metrics, /v1/experiments,
// /v1/figures/{name}, /v1/scan, and the token-gated POST
// /v1/admin/{compact,rollups/prewarm} (see README for the parameter
// table). Responses are cached per lake generation and carry strong
// ETags; repeated dashboard queries answer from memory, 304 when the
// client already holds the bytes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/serve"
)

func main() {
	sf := cli.Register(flag.CommandLine, "edgeserve")
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		addrFile   = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts racing startup)")
		qWorkers   = flag.Int("query-workers", 0, "concurrent query executors (0 = NumCPU)")
		queue      = flag.Int("queue", 0, "queued requests before 429 shedding (0 = 2x query-workers)")
		qTimeout   = flag.Duration("query-timeout", 30*time.Second, "per-query deadline, queue wait included; expiry answers 504")
		scanDays   = flag.Int("scan-max-days", serve.MaxScanDays, "largest /v1/scan day span")
		cacheBytes = flag.Int64("cache", 0, "response-cache budget in bytes (0 = 64MiB default, negative disables)")
		adminToken = flag.String("admin-token", "", "bearer token for POST /v1/admin endpoints (empty = admin disabled)")
	)
	flag.Parse()
	ctx, stop := sf.Start()
	defer stop()
	cfg, err := sf.Config()
	if err != nil {
		sf.Fatal(err)
	}

	srv := serve.New(core.New(cfg), serve.Options{
		Workers:      *qWorkers,
		Queue:        *queue,
		QueryTimeout: *qTimeout,
		MaxScanDays:  *scanDays,
		CacheBytes:   *cacheBytes,
		AdminToken:   *adminToken,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		sf.Fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		// Written atomically so a watcher never reads a half-written
		// address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(bound), 0o644); err != nil {
			sf.Fatal(err)
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			sf.Fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "edgeserve: listening on %s\n", bound)

	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			sf.Fatal(err)
		}
	case <-ctx.Done():
		// Graceful drain: in-flight queries get a grace window, new
		// connections are refused immediately.
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			fmt.Fprintf(os.Stderr, "edgeserve: shutdown: %v\n", err)
		}
		fmt.Fprintln(os.Stderr, "edgeserve: drained, bye")
	}
}
