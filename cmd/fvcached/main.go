// Command fvcached is the long-lived simulation service: an HTTP/JSON
// front end over the fvcache measurement engine for many concurrent
// clients.
//
//	fvcached -addr 127.0.0.1:8080
//
//	POST /v1/measure    measure one or many configurations over a workload
//	                    (?deadline_ms= bounds the request; expired -> 504)
//	POST /v1/sweep      reproduce paper artifacts (streams JSON lines)
//	GET  /v1/workloads  list registered workloads
//	GET  /v1/artifacts  list reproducible artifacts
//	GET  /healthz       liveness (200 while the process serves HTTP)
//	GET  /readyz        readiness (503 during boot recovery and drain)
//	GET  /debug/metrics telemetry in Prometheus text format
//	                    (?format=json for the snapshot, ?fleet=1 for the
//	                    fleet-merged view)
//	GET  /debug/fleet   ring layout, per-peer health, ownership counters
//	GET  /debug/requests flight recorder: recent request traces as JSON
//	                    (?n= count, ?slowest=K, ?errors=1 filters)
//
// With -peers the process joins a static consistent-hash fleet:
//
//	fvcached -addr 127.0.0.1:9001 \
//	  -peers http://127.0.0.1:9001,http://127.0.0.1:9002,http://127.0.0.1:9003
//
// Each (workload, scale, config) key is owned by exactly one node;
// requests landing elsewhere are proxied to the owner (one hop max),
// and an unreachable owner degrades to local execution.
//
// Requests for the same workload and scale arriving within the
// coalescing window are fused into a single batch replay; the "batch"
// stanza of each response reports how a request was executed. When the
// batch queue is full new requests are rejected with 429. SIGINT or
// SIGTERM drains gracefully: in-flight requests complete, then the
// process exits.
//
// Results are cached in memory, and durably under -cache-dir: repeat
// measurements are O(1), survive restarts, and every on-disk entry is
// CRC-validated on read — corrupt or torn entries are quarantined to
// <cache-dir>/corrupt and recomputed, never served. The boot recovery
// scan runs while /readyz reports 503; a failing disk (ENOSPC, I/O
// errors) degrades the cache to memory-only instead of taking the
// service down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"fvcache/internal/fleet"
	"fvcache/internal/harness"
	"fvcache/internal/obs"
	"fvcache/internal/resultcache"
	"fvcache/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address (host:port, :0 picks a free port)")
		queue      = flag.Int("queue", 64, "batch queue depth (full queue rejects with 429)")
		window     = flag.Duration("coalesce", 10*time.Millisecond, "coalescing window for same-workload requests")
		reqLimit   = flag.Duration("request-timeout", 120*time.Second, "per-batch execution deadline")
		drain      = flag.Duration("drain", 30*time.Second, "graceful shutdown deadline")
		cacheDir   = flag.String("cache-dir", "", "durable result cache directory (empty = memory-only cache)")
		cacheMemMB = flag.Int("cache-mem-mb", 64, "result cache memory tier budget in MiB")
		cacheDisk  = flag.Int("cache-disk-mb", 256, "result cache disk tier budget in MiB")
		deadlineMS = flag.Int64("deadline-ms", 0, "default per-request deadline in ms (0 = none; requests may override with deadline_ms)")
		traceRing  = flag.Int("trace-ring", 256, "flight-recorder capacity: most recent N request traces kept for /debug/requests")
		peers      = flag.String("peers", "", "comma-separated peer URLs forming a consistent-hash fleet (empty = single node); self is derived from -addr unless -self is set")
		selfURL    = flag.String("self", "", "this node's advertised base URL (default http://<resolved -addr>)")
	)
	cf := harness.AddCommonFlags(flag.CommandLine, harness.FlagWorkers|harness.FlagTimeout, "")
	of := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	if err := of.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "fvcached:", err)
		return harness.ExitUsage
	}
	defer func() {
		if err := of.Stop(); err != nil && code == harness.ExitOK {
			fmt.Fprintln(os.Stderr, "fvcached: telemetry:", err)
			code = harness.ExitFailure
		}
	}()

	ctx, cancel := cf.Context(context.Background())
	defer cancel()

	// Listen before building the server: with -addr :0 the fleet self
	// identity is only known once the port is bound.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fvcached:", err)
		return harness.ExitFailure
	}

	var fl *fleet.Fleet
	if *peers != "" {
		self := *selfURL
		if self == "" {
			self = "http://" + ln.Addr().String()
		}
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		fl, err = fleet.New(fleet.Options{Self: self, Peers: peerList})
		if err != nil {
			ln.Close()
			fmt.Fprintln(os.Stderr, "fvcached:", err)
			return harness.ExitUsage
		}
		obs.Log.Info("fleet membership", "self", fl.SelfURL(), "size", fl.Size())
	}

	sv := serve.New(serve.Options{
		// -workers sizes the pool: one batch replays per worker.
		Workers:         cf.Workers,
		QueueDepth:      *queue,
		CoalesceWindow:  *window,
		RequestTimeout:  *reqLimit,
		DefaultDeadline: time.Duration(*deadlineMS) * time.Millisecond,
		TraceRing:       *traceRing,
		StartUnready:    true, // ready once the cache recovery scan finishes
		Fleet:           fl,
	})
	httpSrv := &http.Server{Handler: sv.Handler()}
	fmt.Printf("fvcached listening on %s\n", ln.Addr())
	obs.Log.Info("fvcached up", "addr", ln.Addr().String())

	// Open the result cache while the listener is already accepting:
	// /readyz reports 503 until the boot recovery scan (quarantining any
	// torn or corrupt entries a crash left behind) finishes. An unusable
	// cache directory degrades to a memory-only cache — never an outage.
	go func() {
		opt := resultcache.Options{
			Dir:       *cacheDir,
			MemBytes:  int64(*cacheMemMB) << 20,
			DiskBytes: int64(*cacheDisk) << 20,
		}
		rc, err := resultcache.Open(opt)
		if err != nil {
			obs.Log.Warn("result cache unavailable, serving without durable tier", "dir", *cacheDir, "err", err.Error())
			opt.Dir = ""
			if rc, err = resultcache.Open(opt); err != nil {
				obs.Log.Warn("memory result cache unavailable, serving uncached", "err", err.Error())
			}
		}
		if rc != nil {
			st := rc.Stats()
			obs.Log.Info("result cache ready", "dir", *cacheDir,
				"entries", st.DiskEntries, "quarantined", st.Quarantined)
			sv.SetResultCache(rc)
		}
		sv.SetReady(true)
		fmt.Println("fvcached ready")
	}()

	// Drain on signal: flush coalescing windows and finish queued
	// batches first (handlers blocked on results unblock), then close
	// the listener once every handler has written its response.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		dctx, dcancel := context.WithTimeout(context.Background(), *drain)
		defer dcancel()
		if err := sv.Shutdown(dctx); err != nil {
			obs.Log.Warn("drain incomplete", "err", err.Error())
		}
		if err := httpSrv.Shutdown(dctx); err != nil {
			obs.Log.Warn("http shutdown", "err", err.Error())
		}
	}()

	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "fvcached:", err)
		return harness.ExitFailure
	}
	<-drained
	fmt.Println("fvcached drained")
	return harness.ExitOK
}
