// Command apspd is the APSP query daemon: it serves shortest-path queries,
// graph updates and blocker-set constructions over HTTP JSON, against a
// content-addressed pool of warm apsp.Runners (internal/serve). Concurrent
// requests per graph are coalesced into single warm-session batches, and
// answers are linearizable per graph: each response names the graph
// version (update count) it reflects.
//
// With -data-dir the daemon is durable: every load and accepted update
// batch is journaled (write-ahead, CRC-framed) before the caller sees
// success, checkpoint snapshots bound replay length, and a restart
// recovers every graph to its last acknowledged version — /readyz returns
// 503 with replay progress until recovery proves the state, then flips to
// 200. DESIGN.md §12 documents the format and the recovery contract.
//
//	apspd -addr :8359 -pool 8 -data-dir /var/lib/apspd -fsync always
//	curl -s localhost:8359/v1/graphs -d '{"scenario":"random-n64-s1"}'
//	curl -s localhost:8359/v1/graphs/<key>/query -d '{"pairs":[[0,5]]}'
//	curl -s localhost:8359/readyz
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"congestapsp/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8359", "listen address")
		pool     = flag.Int("pool", 8, "max warm Runners pooled (LRU beyond)")
		maxQueue = flag.Int("max-queue", 256, "per-graph batch queue depth (shed with 429 beyond)")
		maxBatch = flag.Int("max-batch", 4096, "max pairs/updates per request")
		maxN     = flag.Int("max-n", 4096, "max vertices per loaded graph")
		parallel = flag.Bool("parallel", false, "run pooled computations on the parallel execution mode")
		maxBytes = flag.Int64("max-bytes", 0, "approximate pool byte budget: evict warm Runners beyond it (0 = entry-count LRU only)")
		dataDir  = flag.String("data-dir", "", "durability root: journal + checkpoint graphs here, recover on boot (empty = in-memory only)")
		fsync    = flag.String("fsync", "always", "journal sync policy: always (sync before ack) or interval (timer-batched)")
		fsyncInt = flag.Duration("fsync-interval", 100*time.Millisecond, "sync period under -fsync interval")
		ckptN    = flag.Int("checkpoint-every", 64, "checkpoint a graph after this many journaled update batches")
	)
	flag.Parse()

	svc := serve.New(serve.Config{
		PoolSize:  *pool,
		MaxQueue:  *maxQueue,
		MaxBatch:  *maxBatch,
		MaxGraphN: *maxN,
		Parallel:  *parallel,
		MaxBytes:  *maxBytes,
	})

	var storeOpt serve.StoreOptions
	if *dataDir != "" {
		policy, err := serve.ParseFsyncPolicy(*fsync)
		if err != nil {
			log.Fatal(err)
		}
		storeOpt = serve.StoreOptions{
			Fsync:           policy,
			FsyncInterval:   *fsyncInt,
			CheckpointEvery: *ckptN,
			MaxGraphN:       *maxN,
			// APSPD_CRASH arms the seeded crash-point instrument — used by
			// the crash-recovery test harness, never in normal operation.
			CrashSpec: os.Getenv("APSPD_CRASH"),
		}
		// Gate /v1 before the listener opens: no request can observe
		// pre-recovery state, only 503 + progress.
		svc.BeginRecovery()
	}

	server := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// The resolved address line is load-bearing: the crash-recovery harness
	// parses it to find a daemon bound to port 0.
	log.Printf("apspd listening on %s (pool %d, queue %d)", ln.Addr(), *pool, *maxQueue)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		server.Shutdown(shutdownCtx)
	}()

	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(ln) }()

	if *dataDir != "" {
		start := time.Now()
		if err := svc.Recover(*dataDir, storeOpt); err != nil {
			log.Fatalf("apspd: recovery failed, refusing to serve: %v", err)
		}
		p := svc.Progress()
		log.Printf("apspd recovered %d graph(s), %d update record(s) replayed in %s; ready",
			p.GraphsDone, p.RecordsReplayed, time.Since(start).Round(time.Millisecond))
	}

	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		log.Printf("apspd: closing store: %v", err)
	}
}
