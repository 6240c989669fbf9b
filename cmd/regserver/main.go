// Command regserver runs the reg-cluster mining service: a long-lived HTTP
// server with a content-addressed dataset registry, an asynchronous job
// manager over the parallel miner, an LRU result cache, and Prometheus-style
// metrics.
//
// Usage:
//
//	regserver -addr :8371 -jobs 2 -cache 256
//
// The API surface (see internal/service):
//
//	POST   /datasets?name=...   upload a TSV matrix (content-addressed)
//	GET    /datasets            list datasets
//	GET    /datasets/{id}       dataset detail with per-gene row stats
//	GET    /datasets/{id}/tsv   download the (imputed) matrix
//	DELETE /datasets/{id}       remove a dataset
//	POST   /datasets/{id}/append?axis=conditions|genes
//	                            grow a dataset by a delta TSV: a new
//	                            content-addressed version with recorded
//	                            lineage; re-mining it under unchanged params
//	                            repairs the RWave index and re-mines only the
//	                            subtrees the delta dirtied
//	GET    /datasets/{id}/diff/{parent}
//	                            clusters added/removed/grown vs the parent's
//	                            result (regcluster.diff/v1)
//	POST   /jobs                submit a mining job (JSON body)
//	POST   /sweep               submit a batch ε/γ/MinG/MinC parameter sweep
//	GET    /sweeps, /sweeps/{id} sweep summaries (one RWave build per γ group)
//	GET    /jobs, /jobs/{id}    inspect jobs
//	POST   /jobs/{id}/cancel    cooperative cancellation
//	GET    /jobs/{id}/stream    NDJSON cluster stream (live)
//	GET    /jobs/{id}/result    settled result document
//	GET    /metrics, /healthz, /debug/pprof/*
//
// Distributed mode (see internal/dist): `-mode coordinator` serves the same
// API, and every job shares its queue of per-condition subtrees with remote
// workers, which lease them over HTTP beside the job's -local-workers local
// ones; `-mode worker -join URL` turns the process into
// such a worker — it replicates datasets by content hash, mines leased
// subtrees, and ships clusters back in heartbeats. A worker killed mid-lease
// costs one lease TTL: the coordinator re-issues the subtree from the last
// received watermark, and the merged output stays byte-identical to a
// single-node run.
//
// On SIGINT/SIGTERM the server stops accepting work and drains running jobs,
// cancelling whatever is still mining when the grace period expires.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"regcluster/internal/dist"
	"regcluster/internal/obs"
	"regcluster/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "regserver:", err)
		os.Exit(1)
	}
}

// run boots the service and blocks until ctx is cancelled (or the listener
// fails). It prints the bound address to stdout as its first line so callers
// using ":0" can discover the port.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("regserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8371", "listen address (host:port; port 0 picks a free port)")
		jobs        = fs.Int("jobs", 2, "mining jobs allowed to run concurrently")
		workers     = fs.Int("workers", 0, "default per-job worker count (0 = all cores)")
		maxWorkers  = fs.Int("max-workers", 64, "reject submissions asking for more workers than this")
		cacheSize   = fs.Int("cache", 256, "result-cache entries (negative disables caching)")
		modelCache  = fs.Int("model-cache", 16, "shared RWave model sets retained across jobs that agree on (dataset, γ-scheme) (negative disables retention)")
		maxDatasets = fs.Int("max-datasets", 64, "dataset registry capacity")
		maxUpload   = fs.Int64("max-upload-bytes", 64<<20, "largest accepted dataset upload")
		maxDuration = fs.Duration("max-job-duration", 0, "hard per-job mining deadline (0 = unlimited)")
		maxNodes    = fs.Int("max-nodes", 0, "server-side cap on search nodes per job (0 = unlimited)")
		maxClusters = fs.Int("max-clusters", 0, "server-side cap on clusters per job (0 = unlimited)")
		grace       = fs.Duration("grace", 30*time.Second, "shutdown grace period before running jobs are interrupted")
		dataDir     = fs.String("data-dir", "", "durable state directory: datasets, results, and the job journal survive restarts; interrupted jobs resume from their checkpoints (empty = in-memory only)")
		ckEvery     = fs.Int("checkpoint-every", 64, "journal a miner checkpoint every N delivered clusters (negative = only at subtree boundaries)")
		retries     = fs.Int("retries", 2, "transient job failures retried with capped exponential backoff (negative disables)")
		trace       = fs.Bool("trace", false, "record a span tree per job (queue wait, mining attempts, stream replays), served at GET /jobs/{id}/trace")
		logFormat   = fs.String("log-format", "text", `structured log format: "text" or "json" (one JSON object per line)`)
		slowJob     = fs.Duration("slow-job", 30*time.Second, "log a warning with a per-phase breakdown for jobs slower than this (0 disables)")
		tenantsFile = fs.String("tenants", "", "JSON file of API-key tenants (weights, priorities, quotas); empty = anonymous tenant only")
		tenantRate  = fs.Float64("tenant-rate", 0, "default per-tenant submission rate limit in jobs/sec (0 = unlimited)")
		tenantBurst = fs.Int("tenant-burst", 0, "default per-tenant submission burst (0 = ceil(rate))")
		maxActive   = fs.Int("max-active-per-tenant", 0, "jobs one tenant may have queued+running at once (0 = unlimited)")
		maxQueued   = fs.Int("max-queued-per-tenant", 0, "jobs one tenant may have waiting for a slot (0 = unlimited)")
		shedAt      = fs.Int("shed-watermark", 0, "total queued jobs above which the newest lowest-priority queued work is shed (0 = disabled)")
		mode        = fs.String("mode", "single", `mining mode: "single" (in-process), "coordinator" (lease subtrees to workers), or "worker" (join a coordinator)`)
		join        = fs.String("join", "", "coordinator base URL a worker registers with (worker mode only)")
		advertise   = fs.String("advertise", "", "name this worker reports to the coordinator (default: the hostname)")
		leaseTTL    = fs.Duration("lease-ttl", 5*time.Second, "coordinator lease TTL: a lease without a heartbeat for this long is revoked and re-issued")
		localMiners = fs.Int("local-workers", 1, "local mining workers each coordinator job runs beside remote workers (0 = remote workers only)")
		slots       = fs.Int("slots", 0, "subtree leases a worker mines concurrently (0 = all cores)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	format, err := obs.ParseFormat(*logFormat)
	if err != nil {
		return err
	}
	if *mode == "worker" {
		return runWorker(ctx, workerOptions{
			addr: *addr, join: *join, advertise: *advertise, slots: *slots, format: format,
		}, stdout, stderr)
	}
	if *join != "" {
		return fmt.Errorf("-join only applies to -mode worker (got -mode %s)", *mode)
	}
	// The service treats DistLocalWorkers 0 as "default one worker"; the flag's
	// 0 means "none" (pure remote mining), which the service spells negative.
	distLocal := *localMiners
	if distLocal <= 0 {
		distLocal = -1
	}
	slow := *slowJob
	if slow <= 0 {
		slow = -1 // Config treats 0 as "use the default"; negative disables
	}
	var tenants []service.TenantConfig
	if *tenantsFile != "" {
		tenants, err = service.LoadTenants(*tenantsFile)
		if err != nil {
			return err
		}
	}

	svc, err := service.Open(service.Config{
		MaxConcurrentJobs:       *jobs,
		DefaultWorkers:          *workers,
		MaxWorkersPerJob:        *maxWorkers,
		CacheEntries:            *cacheSize,
		ModelCacheEntries:       *modelCache,
		MaxDatasets:             *maxDatasets,
		MaxUploadBytes:          *maxUpload,
		MaxJobDuration:          *maxDuration,
		MaxNodesPerJob:          *maxNodes,
		MaxClustersPerJob:       *maxClusters,
		Tenants:                 tenants,
		TenantRatePerSec:        *tenantRate,
		TenantBurst:             *tenantBurst,
		MaxActivePerTenant:      *maxActive,
		MaxQueuedPerTenant:      *maxQueued,
		ShedWatermark:           *shedAt,
		DataDir:                 *dataDir,
		CheckpointEveryClusters: *ckEvery,
		MaxJobRetries:           *retries,
		Logger:                  obs.NewLogger(stderr, format),
		EnableTracing:           *trace,
		SlowJobThreshold:        slow,
		Mode:                    *mode,
		LeaseTTL:                *leaseTTL,
		DistLocalWorkers:        distLocal,
	})
	if err != nil {
		return err
	}
	defer svc.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "regserver: listening on http://%s\n", ln.Addr())

	httpSrv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "regserver: shutting down")

	graceCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Drain the job manager first: new submissions are rejected immediately
	// and cluster streams close as their jobs settle, so the subsequent HTTP
	// shutdown is not held open by long-lived /stream requests. Both phases
	// share the grace period.
	drainErr := svc.Shutdown(graceCtx)
	httpErr := httpSrv.Shutdown(graceCtx)
	if drainErr != nil && !errors.Is(drainErr, context.DeadlineExceeded) {
		return drainErr
	}
	if httpErr != nil && !errors.Is(httpErr, context.DeadlineExceeded) {
		return httpErr
	}
	fmt.Fprintln(stdout, "regserver: bye")
	return nil
}

// workerOptions is the worker-mode slice of the flag set.
type workerOptions struct {
	addr      string
	join      string
	advertise string
	slots     int
	format    obs.Format
}

// workerConfig resolves the worker flags: the advertised name defaults to the
// hostname, and -slots 0 holds one lease per core.
func (opt workerOptions) workerConfig(logf func(string, ...any)) dist.WorkerConfig {
	name := opt.advertise
	if name == "" {
		name, _ = os.Hostname()
	}
	slots := opt.slots
	if slots == 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	return dist.WorkerConfig{Coordinator: opt.join, Name: name, Slots: slots, Logf: logf}
}

// runWorker turns the process into a mining worker: it registers with the
// coordinator at -join, long-polls for subtree leases, and serves only a
// local /healthz (liveness plus lease counters) on -addr. It blocks until ctx
// is cancelled; mining in flight at that point is abandoned and the
// coordinator re-issues it after one lease TTL.
func runWorker(ctx context.Context, opt workerOptions, stdout, stderr io.Writer) error {
	if opt.join == "" {
		return errors.New("-mode worker requires -join (coordinator base URL)")
	}
	logger := obs.NewLogger(stderr, opt.format)
	w := dist.NewWorker(opt.workerConfig(logger.Printf))

	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "regserver: worker listening on http://%s (coordinator %s)\n", ln.Addr(), opt.join)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(map[string]any{ //nolint:errcheck // best-effort probe body
			"status":           "ok",
			"mode":             "worker",
			"coordinator":      opt.join,
			"leases_completed": w.Completed.Load(),
			"leases_abandoned": w.Abandoned.Load(),
			"leases_nacked":    w.Nacked.Load(),
			"replicas_fetched": w.Replicated.Load(),
		})
	})
	httpSrv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	runErr := make(chan error, 1)
	go func() { runErr <- w.Run(ctx) }()

	select {
	case err := <-serveErr:
		return err
	case err := <-runErr:
		if err != nil {
			return err
		}
	case <-ctx.Done():
		<-runErr // Run returns once its lease loops notice the cancellation.
	}
	fmt.Fprintln(stdout, "regserver: worker shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	fmt.Fprintln(stdout, "regserver: bye")
	return nil
}
