// Command htc-server runs the HTC alignment service: an HTTP API backed
// by a bounded job queue and worker pool that executes the pipeline of
// internal/core per request and caches results by content hash.
//
// Usage:
//
//	htc-server [-addr :8080] [-workers N] [-queue N] [-cache N]
//	           [-prepared-cache N] [-dataset-cache N] [-max-nodes N] [-quiet]
//	           [-pprof]
//
// Endpoints (see internal/server):
//
//	POST   /v1/align         submit a job; body names a built-in or
//	                         uploaded dataset, or carries two inline
//	                         graphs plus a config
//	POST   /v1/sweep         run a list of configs over one shared prepared
//	                         pair (stages 1–2 paid once for the whole sweep)
//	POST   /v1/refine        RefiNA-refine a finished job's or an uploaded
//	                         matching
//	GET    /v1/jobs/{id}     poll status; queue position while waiting, live
//	                         progress while running, the result once done
//	DELETE /v1/jobs/{id}     cancel a queued or running job
//	PUT    /v1/datasets/{id} upload a real dataset in any registered format
//	                         (edge list, adjacency list, JSON, htc-graph)
//	GET    /v1/datasets      list built-in and uploaded datasets
//	GET    /v1/datasets/{id} uploaded dataset metadata
//	DELETE /v1/datasets/{id} remove an uploaded dataset
//	GET    /v1/capabilities  feature roster: backends, formats, variants,
//	                         limits
//	GET    /v1/healthz       liveness and queue occupancy
//	GET    /v1/metrics       Prometheus text metrics
//
// -pprof additionally mounts the net/http/pprof profiling handlers under
// /debug/pprof/ (off by default: profiles expose internals, so the
// operator opts in explicitly).
//
// Example:
//
//	htc-server -addr :8080 &
//	curl -s localhost:8080/v1/align -d '{"dataset":"synthetic","n":120,"config":{"variant":"HTC-L","epochs":20}}'
//	curl -s localhost:8080/v1/jobs/job-000001-xxxxxxx
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"github.com/htc-align/htc/internal/server"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	log.SetPrefix("htc-server: ")

	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", max(1, runtime.NumCPU()-1), "alignment worker pool size")
	queueDepth := flag.Int("queue", 0, "submission backlog capacity (0 = 2×workers)")
	cacheSize := flag.Int("cache", 128, "result cache capacity in entries")
	preparedCache := flag.Int("prepared-cache", 8, "prepared-artifact cache capacity in graph pairs")
	datasetCache := flag.Int("dataset-cache", 16, "uploaded-dataset store capacity in entries")
	maxNodes := flag.Int("max-nodes", 20000, "per-graph node limit at admission (-1 = unlimited)")
	quiet := flag.Bool("quiet", false, "suppress per-job logging")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
	flag.Parse()

	opts := server.Options{
		Workers:           *workers,
		QueueDepth:        *queueDepth,
		CacheSize:         *cacheSize,
		PreparedCacheSize: *preparedCache,
		DatasetCacheSize:  *datasetCache,
		MaxNodes:          *maxNodes,
	}
	if !*quiet {
		opts.Log = log.Default()
	}
	svc := server.New(opts)

	handler := http.Handler(svc)
	if *pprofOn {
		// The service owns its own mux, so the pprof handlers are mounted
		// explicitly rather than through the DefaultServeMux side effect.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", svc)
		handler = mux
		log.Print("profiling enabled at /debug/pprof/")
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("listening on %s (%d workers, queue=%d, cache=%d, max-nodes=%d)",
		*addr, opts.Workers, opts.QueueDepth, opts.CacheSize, opts.MaxNodes)

	select {
	case <-ctx.Done():
		log.Print("shutdown signal received, draining...")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	svc.Close() // cancels outstanding jobs, waits for workers
	m := svc.Metrics()
	log.Printf("served %d jobs (%d completed, %d failed, %d cancelled, %d cache hits, %d prepared reuses, %d dataset uploads)",
		m.JobsSubmitted.Load(), m.JobsCompleted.Load(), m.JobsFailed.Load(),
		m.JobsCancelled.Load(), m.CacheHits.Load(), m.PreparedHits.Load(), m.DatasetUploads.Load())
}
