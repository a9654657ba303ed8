// Command nordserved serves NoC simulations over HTTP: jobs are
// submitted as JSON, scheduled on a bounded worker pool, and memoized in
// a content-addressed result cache so identical configurations are
// simulated exactly once.
//
// It runs in one of three modes:
//
//	-mode local        single process (the default): jobs execute on an
//	                   in-process worker pool.
//	-mode coordinator  owns the queue and cache, leases jobs to fleet
//	                   workers over /fleet/v1/*, and degrades to local
//	                   execution when no worker is registered.
//	-mode worker       registers with -coordinator, leases jobs,
//	                   heartbeats while executing, and reports results.
//
//	nordserved -addr :8080 -workers 4 -cache-dir /var/cache/nord
//	nordserved -mode coordinator -addr :8080 -lease-ttl 10s
//	nordserved -mode worker -coordinator http://host:8080 -slots 4
//
//	curl -s localhost:8080/v1/jobs -d '{"kind":"synthetic","synthetic":{"design":"nord","rate":0.05}}'
//	curl -s localhost:8080/v1/jobs/j000001
//	curl -sN localhost:8080/v1/jobs/j000001/events
//	curl -s localhost:8080/metrics
//
// On SIGTERM/SIGINT a server drains: intake stops (503), queued and
// running jobs get -drain-timeout to finish, then stragglers are
// canceled cooperatively through the sim layer's context polling. A
// worker gives unfinished jobs back to the coordinator so they requeue
// immediately instead of waiting out their lease TTL.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nord/internal/fleet"
	"nord/internal/serve"
)

func main() {
	var (
		mode         = flag.String("mode", "local", "local | coordinator | worker")
		addr         = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		workers      = flag.Int("workers", 0, "in-process worker pool size (default GOMAXPROCS); a coordinator runs jobs on it while no fleet worker is live")
		queue        = flag.Int("queue", 64, "queued-job limit before submissions get 429 (a coordinator bounds its unleased jobs by it too)")
		cacheEntries = flag.Int("cache-entries", 512, "in-memory result cache capacity")
		cacheDir     = flag.String("cache-dir", "", "directory for on-disk cache spill (empty disables)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")
		jobDeadline  = flag.Duration("job-deadline", 0, "per-job wall-clock execution budget, on this process or a fleet worker (0 = unbounded)")

		// Coordinator-mode flags.
		leaseTTL    = flag.Duration("lease-ttl", 10*time.Second, "coordinator: lease TTL (un-heartbeated leases requeue after this); heartbeat, lease poll and requeue backoff scale with it")
		maxAttempts = flag.Int("max-attempts", 4, "coordinator: lease grants per job before it is failed")
		journalDir  = flag.String("journal-dir", "", "coordinator: job journal directory — makes the coordinator crash-durable (empty disables)")

		// Worker-mode flags.
		coordinator = flag.String("coordinator", "", "worker: coordinator base URL (http://host:port)")
		workerID    = flag.String("worker-id", "", "worker: fleet identity (default hostname-pid)")
		slots       = flag.Int("slots", 1, "worker: jobs executed in parallel")
	)
	flag.Parse()

	switch *mode {
	case "worker":
		os.Exit(runWorker(*coordinator, *workerID, *slots))
	case "local", "coordinator":
	default:
		fmt.Fprintf(os.Stderr, "nordserved: unknown -mode %q (local, coordinator, worker)\n", *mode)
		os.Exit(2)
	}

	cfg := serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cacheEntries,
		CacheDir:     *cacheDir,
		JobDeadline:  *jobDeadline,
	}
	var coord *fleet.Coordinator
	if *mode == "coordinator" {
		var journal *fleet.Journal
		if *journalDir != "" {
			var err error
			journal, err = fleet.OpenJournal(*journalDir, fleet.JournalOptions{})
			if err != nil {
				fmt.Fprintf(os.Stderr, "nordserved: opening journal: %v\n", err)
				os.Exit(1)
			}
		}
		cfg.Dispatcher = func(s *serve.Server) serve.Dispatcher {
			coord = fleet.NewCoordinator(s, fleet.Options{
				LeaseTTL:    *leaseTTL,
				MaxAttempts: *maxAttempts,
				Journal:     journal,
			})
			return coord
		}
	}

	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	handler := srv.Handler()
	if coord != nil {
		mux := http.NewServeMux()
		mux.Handle("/fleet/", coord.Handler())
		mux.Handle("/", handler)
		handler = mux
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("nordserved listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: handler}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigs:
		fmt.Printf("nordserved: %s, draining (budget %s)\n", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "nordserved: drain incomplete: %v\n", err)
		}
		_ = httpSrv.Shutdown(context.Background())
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// runWorker runs worker mode until SIGTERM/SIGINT; in-flight jobs are
// given back to the coordinator on the way out.
func runWorker(coordinator, id string, slots int) int {
	if coordinator == "" {
		fmt.Fprintln(os.Stderr, "nordserved: -mode worker needs -coordinator http://host:port")
		return 2
	}
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w, err := fleet.NewWorker(fleet.WorkerOptions{
		Coordinator: coordinator,
		ID:          id,
		Slots:       slots,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	fmt.Printf("nordserved worker %s serving %s (%d slots)\n", id, coordinator, slots)
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("nordserved worker %s: drained\n", id)
	return 0
}
