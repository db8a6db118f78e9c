// Command rlibmd serves the generated correctly rounded libraries over
// a compact binary TCP protocol (see internal/server). Concurrent
// small requests for the same (function, representation) are coalesced
// into large batches before hitting the EvalSlice kernels; overload is
// shed with explicit BUSY responses; results are bit-exact with the
// in-process library.
//
//	rlibmd -addr 127.0.0.1:7043 -admin 127.0.0.1:7044
//
// The admin listener exports Prometheus text metrics (per-function
// request/value/busy counts, latency histograms, coalescing stats,
// oracle tier-0 and Ziv-ladder counters) at /metrics and the standard
// pprof endpoints at /debug/pprof/. The always-on flight recorder
// keeps the last few thousand wide events in memory, serves them at
// /debug/flight, and dumps them to -flight-dir as JSON when an anomaly
// trigger fires (SIGQUIT, a sustained BUSY fraction, or an external
// hit on /debug/flight/trigger). SIGINT/SIGTERM trigger a graceful
// drain: in-flight requests finish, then the process exits.
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

	rlibm "rlibm32"
	"rlibm32/internal/libm"
	"rlibm32/internal/oracle"
	"rlibm32/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7043", "serve address")
	admin := flag.String("admin", "", "admin (/metrics, pprof, flight recorder) address; empty disables")
	workers := flag.Int("workers", 0, "evaluation workers (default GOMAXPROCS)")
	maxFrame := flag.Int("max-frame", server.DefaultMaxFrame, "max frame payload bytes")
	maxBatch := flag.Int("max-batch", 1<<16, "max values per coalesced kernel dispatch")
	maxInflight := flag.Int64("max-inflight", 1<<20, "max admitted-but-unevaluated values before BUSY shedding")
	connInflight := flag.Int("conn-inflight", 64, "max pipelined requests in flight per connection")
	readTimeout := flag.Duration("read-timeout", 2*time.Minute, "per-frame read deadline")
	writeTimeout := flag.Duration("write-timeout", 30*time.Second, "per-response write deadline")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline")
	flightDir := flag.String("flight-dir", ".", "directory for flight-recorder anomaly dumps; empty keeps the ring in-memory only")
	flightEvents := flag.Int("flight-events", 4096, "wide events retained in the flight-recorder ring")
	busyDumpFrac := flag.Float64("busy-dump-frac", 0.5, "shed fraction that triggers a flight dump (negative disables)")
	flag.Parse()

	s := server.New(server.Config{
		Addr:         *addr,
		Workers:      *workers,
		MaxFrame:     *maxFrame,
		MaxBatch:     *maxBatch,
		MaxInflight:  *maxInflight,
		ConnInflight: *connInflight,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		FlightDir:    *flightDir,
		FlightEvents: *flightEvents,
		BusyDumpFrac: *busyDumpFrac,
	})
	// Everything the process observes lands on one registry: the oracle
	// cache/Ziv counters (exercised by any server-side verification
	// tooling) and the EvalSlice batch counters join the server's own
	// series on /metrics.
	oracle.EnableTelemetry(s.Metrics().Registry())
	rlibm.EnableTelemetry(s.Metrics().Registry())

	if *admin != "" {
		adminSrv := &http.Server{Addr: *admin, Handler: s.AdminHandler()}
		go func() {
			if err := adminSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("rlibmd: admin listener: %v", err)
			}
		}()
		defer adminSrv.Close()
	}

	// SIGQUIT is the operator's "what just happened" button: dump the
	// flight ring and keep serving.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			if path, ok := s.Flight().TriggerDump("sigquit"); ok {
				log.Printf("rlibmd: flight recorder dumped to %s", path)
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- s.ListenAndServe() }()

	nfuncs := 0
	for _, v := range libm.Variants() {
		nfuncs += len(libm.Names(v))
	}
	log.Printf("rlibmd: serving %d functions on %s", nfuncs, *addr)

	select {
	case err := <-errc:
		if err != nil && err != server.ErrServerClosed {
			log.Fatalf("rlibmd: %v", err)
		}
	case got := <-sig:
		log.Printf("rlibmd: %v: draining (timeout %s)", got, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			log.Fatalf("rlibmd: drain failed: %v", err)
		}
		fmt.Println("rlibmd: drained cleanly")
	}
}
