// Command vanid is the always-on characterization service: it accepts
// trace uploads over HTTP, stores them in a trace repository, characterizes
// them on a bounded worker pool, and serves the resulting reports from a
// content-addressed cache and fleet aggregates from the repository.
//
// Usage:
//
//	vanid -addr :8080 -workers 4 -queue-depth 64 -cache-entries 256 -data-dir /var/lib/vanid
//
// Without -data-dir the repository lives in a fresh temporary directory and
// is lost to the next start.
//
// Upload a trace and poll the job:
//
//	curl -s --data-binary @trace.trc 'http://localhost:8080/v1/traces?window=1s:30s&ranks=0-15'
//	curl -s http://localhost:8080/v1/jobs/j00000001
//	curl -s http://localhost:8080/v1/reports/<report_id>
//
// On SIGTERM or SIGINT the daemon stops accepting work, drains queued and
// running jobs (bounded by -drain-timeout), and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vani/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound listen address to this file (for port-0 scripting)")
	workers := flag.Int("workers", 4, "characterization worker pool size")
	queueDepth := flag.Int("queue-depth", 64, "bounded job queue depth (full queue returns 429)")
	cacheEntries := flag.Int("cache-entries", 256, "report cache capacity (LRU entries)")
	dataDir := flag.String("data-dir", "", "trace repository root, kept across restarts (default: a fresh temp dir)")
	compactEvery := flag.Duration("compact-every", 0, "background repository compaction period (0 disables; POST /v1/compact always works)")
	retainAge := flag.Duration("retain-age", 0, "drop stored traces older than this during repository GC (0 keeps everything)")
	retainCount := flag.Int("retain-count", 0, "cap stored traces at this many, dropping the oldest during repository GC (0 = no cap)")
	retainBytes := flag.Int64("retain-bytes", 0, "cap stored traces' total bytes, dropping the oldest during repository GC (0 = no cap)")
	par := flag.Int("parallelism", 0, "per-job analyzer parallelism (0 = GOMAXPROCS)")
	cacheBytes := flag.Int64("cache-bytes", 0, "decoded-block cache budget in bytes (0 = 256 MiB default, negative disables)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to drain jobs on shutdown before aborting them")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (off by default)")
	flag.Parse()

	srv, err := server.New(server.Config{
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		CacheEntries: *cacheEntries,
		DataDir:      *dataDir,
		CompactEvery: *compactEvery,
		RetainAge:    *retainAge,
		RetainCount:  *retainCount,
		RetainBytes:  *retainBytes,
		Parallelism:  *par,
		CacheBytes:   *cacheBytes,
		EnablePprof:  *pprofOn,
	})
	if err != nil {
		log.Fatalf("vanid: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("vanid: listen %s: %v", *addr, err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			log.Fatalf("vanid: writing -addr-file: %v", err)
		}
	}
	log.Printf("vanid: listening on %s (workers=%d queue=%d cache=%d)",
		bound, *workers, *queueDepth, *cacheEntries)

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("vanid: %s: draining (timeout %s)", sig, *drainTimeout)
	case err := <-errc:
		log.Fatalf("vanid: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("vanid: http shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("vanid: drain incomplete, jobs aborted: %v", err)
		os.Exit(1)
	}
	fmt.Println("vanid: drained, bye")
}
