// Package service is the long-running mining service layer over the
// parallel reg-cluster miner: a content-addressed dataset registry, an async
// job manager with server-side budgets and deadlines, an LRU result cache
// keyed by (matrix content hash, canonical Params), and an in-process
// metrics registry. cmd/regserver exposes it over HTTP JSON.
//
// # HTTP surface
//
//	POST /datasets?name=N         upload a TSV matrix (idempotent by content hash)
//	GET  /datasets                list datasets
//	GET  /datasets/{id}           dataset detail including per-gene row stats
//	GET  /datasets/{id}/tsv       download the matrix as TSV
//	DELETE /datasets/{id}         unregister a dataset
//	POST /datasets/{id}/append    grow a dataset by a delta TSV (?axis=conditions|genes)
//	GET  /datasets/{id}/diff/{p}  result diff vs dataset p (regcluster.diff/v1)
//	POST /jobs                    submit {dataset, params, workers, timeout_ms}
//	POST /sweep                   submit a batch ε/γ/MinG/MinC parameter sweep
//	GET  /sweeps                  list sweeps with per-point status
//	GET  /sweeps/{id}             sweep summary (regcluster.sweep/v1)
//	GET  /jobs                    list jobs
//	GET  /jobs/{id}               job status with live progress counters
//	POST /jobs/{id}/cancel        cooperative cancellation
//	GET  /jobs/{id}/stream        NDJSON: one cluster per line as mined, then a summary line
//	GET  /jobs/{id}/result        the settled result as a report.Document
//	GET  /tenants                 list tenants with live occupancy and usage
//	GET  /tenants/{id}/usage      one tenant's quota state and usage ledger
//	GET  /metrics                 Prometheus text exposition
//	GET  /healthz                 liveness + scheduler saturation
//	GET  /debug/pprof/...         net/http/pprof
//
// Mining output is deterministic for any worker count, so the result cache
// is exact: a hit returns byte-identical clusters to re-mining, and repeated
// parameter sweeps over one dataset pay the mining cost once per distinct
// Params. A second cache sits below it: prebuilt RWave model sets keyed by
// (dataset, γ-scheme), shared across jobs and sweep points that differ only
// in ε/MinG/MinC/caps, so an ε-sweep performs exactly one index build.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"reflect"
	"strings"
	"sync/atomic"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/dist"
	"regcluster/internal/faultinject"
	"regcluster/internal/obs"
	"regcluster/internal/report"
)

// Config bounds one Server. The zero value is usable: every limit defaults
// to the value documented on its field.
type Config struct {
	// MaxConcurrentJobs is the number of jobs that may mine at once
	// (default 2); further jobs queue.
	MaxConcurrentJobs int
	// DefaultWorkers is the per-job worker count used when a submission
	// does not specify one (default 0 = GOMAXPROCS).
	DefaultWorkers int
	// MaxWorkersPerJob rejects submissions asking for more parallelism
	// (default 64; 0 keeps the default).
	MaxWorkersPerJob int
	// CacheEntries bounds the result cache (default 256; negative disables
	// caching).
	CacheEntries int
	// ModelCacheEntries bounds the shared RWave-model cache: prebuilt
	// per-gene index sets keyed by (dataset, γ-scheme), reused across jobs
	// and sweep points that differ only in ε/MinG/MinC/caps (default 16;
	// negative disables retention — concurrent duplicate builds still
	// coalesce). Each entry holds one model per gene of its dataset.
	ModelCacheEntries int
	// MaxDatasets bounds the registry (default 64).
	MaxDatasets int
	// MaxUploadBytes bounds one dataset upload (default 64 MiB).
	MaxUploadBytes int64
	// MaxJobDuration caps (and defaults) the per-job mining deadline; a
	// submission asking for more is clamped (default 0 = unlimited).
	MaxJobDuration time.Duration
	// MaxNodesPerJob / MaxClustersPerJob are server-side budget caps: a
	// submission with a larger (or unlimited) Params.MaxNodes/MaxClusters
	// is clamped down to them (default 0 = unlimited).
	MaxNodesPerJob    int
	MaxClustersPerJob int

	// Tenants configures API-key tenants (the -tenants file). Requests
	// without a key run as the built-in anonymous tenant, so an empty list
	// keeps every pre-tenancy flow working. The per-tenant fields below are
	// the server-wide defaults a TenantConfig zero field inherits.
	Tenants []TenantConfig
	// TenantRatePerSec / TenantBurst are the default submission token-bucket
	// parameters (0 = unlimited rate; burst defaults to ceil(rate)).
	TenantRatePerSec float64
	TenantBurst      int
	// MaxActivePerTenant bounds one tenant's jobs queued or running at once;
	// MaxQueuedPerTenant bounds its scheduler queue depth. Exceeding either
	// rejects the submission with 429 + Retry-After (0 = unlimited).
	MaxActivePerTenant int
	MaxQueuedPerTenant int
	// ShedWatermark is the global queued-work bound: when the total queue
	// exceeds it, the scheduler sheds the newest lowest-priority queued jobs
	// (journaled as cancelled-by-shed) until it is back at the watermark, and
	// keeps rejecting sheddable submissions until the queue drains to half the
	// watermark (0 = shedding disabled).
	ShedWatermark int

	// DataDir enables durability: datasets, settled results, and the job
	// journal live under this directory, written atomically, and a restart
	// replays them — re-registering datasets, restoring the result cache,
	// and resuming interrupted jobs from their checkpoints. Empty keeps the
	// fully in-memory behavior.
	DataDir string
	// CheckpointEveryClusters is the miner snapshot cadence: a checkpoint
	// is journaled every N delivered clusters, plus at every subtree
	// boundary (default 64; negative keeps only the boundary snapshots).
	CheckpointEveryClusters int
	// MaxJobRetries bounds transient-failure retries per job (default 2;
	// negative disables retrying).
	MaxJobRetries int
	// RetryBaseDelay seeds the capped exponential backoff between retries
	// (default 100ms, doubling per attempt, capped at 5s, plus jitter).
	RetryBaseDelay time.Duration
	// Logf receives recovery and durability diagnostics (default log.Printf).
	Logf func(format string, args ...any)

	// Logger is the structured logger for request logs, slow-job warnings,
	// and recovery events. When nil, one is derived from Logf (text format),
	// so legacy printf sinks keep receiving every line.
	Logger *obs.Logger
	// EnableTracing records a span tree per job (queue wait, mining attempts
	// with per-phase children, stream replays), served by
	// GET /jobs/{id}/trace. Off by default: the tracing hooks then degrade to
	// nil no-ops that allocate nothing.
	EnableTracing bool
	// SlowJobThreshold emits a warning with a per-phase breakdown for any job
	// whose total wall time (queue + mining) exceeds it (default 30s;
	// negative disables).
	SlowJobThreshold time.Duration

	// Mode selects how jobs mine: "single" (default) uses the in-process
	// parallel engine; "coordinator" runs the same engine with every job's
	// queue of per-condition subtrees shared with remote workers, which
	// lease them over the /dist/* endpoints beside DistLocalWorkers local
	// ones; the output is byte-identical either way. (Worker mode is a
	// different process shape entirely and lives in cmd/regserver, not
	// here.)
	Mode string
	// LeaseTTL is how long a coordinator lease survives without a worker
	// heartbeat before its subtree is re-queued (default 5s).
	LeaseTTL time.Duration
	// DistLocalWorkers is the number of local mining workers each
	// coordinator-mode job runs beside remote workers: 0 means 1 (the
	// coordinator can always finish a job alone), negative means none —
	// jobs then wait for remote workers.
	DistLocalWorkers int
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrentJobs <= 0 {
		c.MaxConcurrentJobs = 2
	}
	if c.MaxWorkersPerJob <= 0 {
		c.MaxWorkersPerJob = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.ModelCacheEntries == 0 {
		c.ModelCacheEntries = 16
	}
	if c.MaxDatasets <= 0 {
		c.MaxDatasets = 64
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 64 << 20
	}
	switch {
	case c.CheckpointEveryClusters == 0:
		c.CheckpointEveryClusters = 64
	case c.CheckpointEveryClusters < 0:
		c.CheckpointEveryClusters = 0 // boundary-only snapshots
	}
	if c.MaxJobRetries == 0 {
		c.MaxJobRetries = 2
	} else if c.MaxJobRetries < 0 {
		c.MaxJobRetries = 0
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 100 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	if c.Logger == nil {
		logf := c.Logf
		c.Logger = obs.NewFuncLogger(func(line string) { logf("%s", line) }, obs.FormatText)
	}
	switch {
	case c.SlowJobThreshold == 0:
		c.SlowJobThreshold = 30 * time.Second
	case c.SlowJobThreshold < 0:
		c.SlowJobThreshold = 0 // disabled
	}
	return c
}

// Server wires the registry, job manager, cache and metrics behind one
// http.Handler; with Config.DataDir set it also owns the durable store and
// the job journal.
type Server struct {
	cfg      Config
	registry *registry
	jobs     *jobManager
	sweeps   *sweepManager
	cache    *resultCache
	metrics  *Metrics
	mux      *http.ServeMux
	logf     func(format string, args ...any)

	// Observability: the structured logger every diagnostic routes through,
	// the periodic runtime sampler feeding /metrics gauges, and the request
	// sequence for log correlation IDs.
	obsLog  *obs.Logger
	sampler *obs.RuntimeSampler
	reqSeq  atomic.Int64

	// Durable state; nil on an in-memory server.
	store *store
	wal   *journal

	// coord is the distributed-mining coordinator; nil outside
	// Mode == "coordinator".
	coord *dist.Coordinator
}

// Open boots a Server. With Config.DataDir set it runs the full recovery
// sequence — load datasets, restore the result cache, replay and compact the
// job journal, re-enqueue interrupted jobs — before returning, so by the
// time the handler serves its first request the service has caught up with
// its pre-crash self. Errors are reserved for an unusable data-dir (cannot
// create, cannot write the journal); data corruption degrades to logged
// warnings and a partial (or clean) boot.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		registry: newRegistry(cfg.MaxDatasets),
		cache:    newResultCache(cfg.CacheEntries),
		metrics:  NewMetrics(),
		obsLog:   cfg.Logger,
	}
	// Legacy printf sinks route through the structured logger's bridge, so
	// every diagnostic gets the envelope (and the configured format).
	s.logf = s.obsLog.Printf
	s.jobs = newJobManager(cfg.MaxConcurrentJobs, s.cache, s.metrics)
	tenants, err := newTenantSet(cfg.Tenants, tenantDefaults{
		ratePerSec: cfg.TenantRatePerSec,
		burst:      cfg.TenantBurst,
		maxActive:  cfg.MaxActivePerTenant,
		maxQueued:  cfg.MaxQueuedPerTenant,
	})
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	s.jobs.tenants = tenants
	s.jobs.sched = newScheduler(cfg.MaxConcurrentJobs, cfg.ShedWatermark, s.metrics)
	s.jobs.models = newModelCache(cfg.ModelCacheEntries, s.metrics)
	s.jobs.datasets = s.registry.get
	s.sweeps = newSweepManager()
	s.jobs.ckEvery = cfg.CheckpointEveryClusters
	s.jobs.maxRetries = cfg.MaxJobRetries
	s.jobs.retryBase = cfg.RetryBaseDelay
	s.jobs.logf = s.logf
	s.jobs.log = s.obsLog
	s.jobs.trace = cfg.EnableTracing
	s.jobs.slowJob = cfg.SlowJobThreshold
	switch cfg.Mode {
	case "", "single":
	case "coordinator":
		// The coordinator must exist before recovery: interrupted jobs
		// re-enqueued at boot mine through it like fresh ones.
		s.coord = dist.NewCoordinator(dist.Config{
			LeaseTTL: cfg.LeaseTTL,
			Datasets: registrySource{s.registry},
			Events:   s.distEvent,
			Logf:     s.logf,
		})
		local := cfg.DistLocalWorkers
		if local == 0 {
			local = 1
		}
		s.jobs.distribute = func(j *Job, o *core.Options) {
			o.Workers = local // negative: none, with the queue shared
			o.Share = s.coord.Share(j.ID, j.Dataset.ID, j.Params, j.obs.TraceSpan())
		}
	default:
		return nil, fmt.Errorf("service: unknown mode %q (want single or coordinator)", cfg.Mode)
	}
	if cfg.DataDir != "" {
		st, err := openStore(cfg.DataDir, s.logf)
		if err != nil {
			return nil, err
		}
		s.store = st
		s.jobs.store = st
		s.cache.onEvict = st.deleteResult
		t0 := time.Now()
		if err := s.bootRecover(); err != nil {
			return nil, err
		}
		replay := time.Since(t0)
		s.metrics.ObservePhase(PhaseReplay, replay)
		s.obsLog.Info("boot recovery complete",
			"dur_ms", replay.Milliseconds(),
			"datasets", s.registry.size(),
			"jobs", len(s.jobs.list()),
		)
	}
	s.sampler = obs.NewRuntimeSampler(0, nil)
	s.sampler.Start()
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// New returns a ready-to-serve Server. It cannot fail without a DataDir;
// callers configuring one should prefer Open, since New panics on a boot
// error instead of returning it.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic("service: " + err.Error())
	}
	return s
}

// Close releases the server's durable resources (the journal file handle)
// and stops the runtime sampler. Call it after Shutdown; without one, Close
// first drains with an expired grace period — running jobs are cancelled and
// awaited, their settlement writes included — so no job appends to the
// journal once Close returns.
func (s *Server) Close() error {
	s.jobs.stop()
	s.sampler.Stop()
	if s.wal != nil {
		return s.wal.close()
	}
	return nil
}

// Handler returns the HTTP surface of the service, wrapped in the request
// logging middleware.
func (s *Server) Handler() http.Handler { return s.requestLog(s.mux) }

// statusWriter captures the response status for the request log while
// passing streaming (http.Flusher) through to the underlying writer — the
// NDJSON stream handler depends on it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// requestLog assigns each request a correlation ID (echoed in X-Request-Id)
// and emits one structured line per completed request.
func (s *Server) requestLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("r%06d", s.reqSeq.Add(1))
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		s.obsLog.Info("http request",
			"req", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", status,
			"dur_ms", time.Since(start).Milliseconds(),
		)
	})
}

// Metrics returns the server's metrics registry (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Shutdown drains the service: new submissions are rejected with 503, jobs
// already accepted keep running until done or until ctx expires, at which
// point they are cancelled cooperatively and awaited. It returns ctx's error
// when the deadline forced cancellations, nil on a clean drain.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.jobs.drain(ctx)
}

// distEvent bridges coordinator lifecycle events into the structured log.
// Reassignments warn: they mean a worker died or fell behind its heartbeat
// TTL. Nothing is journaled: leases do not survive the coordinator process,
// and the lease spans and regserver_leases_* counters already record them.
func (s *Server) distEvent(ev dist.Event) {
	switch ev.Kind {
	case dist.EventWorkerJoined:
		s.obsLog.Info("worker joined", "worker", ev.Worker, "addr", ev.Addr)
	case dist.EventLeaseReassigned:
		s.obsLog.Warn("lease reassigned",
			"job", ev.Job, "lease", ev.Lease, "worker", ev.Worker,
			"cond", int64(ev.Cond), "skip", int64(ev.Skip), "reason", ev.Reason)
	}
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /datasets", s.handleUpload)
	s.mux.HandleFunc("GET /datasets", s.handleListDatasets)
	s.mux.HandleFunc("GET /datasets/{id}", s.handleGetDataset)
	s.mux.HandleFunc("GET /datasets/{id}/tsv", s.handleDatasetTSV)
	s.mux.HandleFunc("DELETE /datasets/{id}", s.handleDeleteDataset)
	s.mux.HandleFunc("POST /datasets/{id}/append", s.handleAppend)
	s.mux.HandleFunc("GET /datasets/{id}/diff/{parent}", s.handleDiff)
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /sweep", s.handleSweep)
	s.mux.HandleFunc("GET /sweeps", s.handleListSweeps)
	s.mux.HandleFunc("GET /sweeps/{id}", s.handleGetSweep)
	s.mux.HandleFunc("GET /jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /tenants", s.handleListTenants)
	s.mux.HandleFunc("GET /tenants/{id}/usage", s.handleTenantUsage)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.coord != nil {
		s.coord.Routes(s.mux)
	}
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// datasetView is the JSON form of a dataset; row stats only on detail.
type datasetView struct {
	*Dataset
	RowStats []RowStat `json:"row_stats,omitempty"`
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	ds, created, err := s.registry.add(r.URL.Query().Get("name"), body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "upload exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "parse dataset: %v", err)
		return
	}
	if created && s.store != nil {
		if err := s.store.saveDataset(ds); err != nil {
			// A dataset the store cannot persist would silently vanish on
			// restart, breaking the durability promise; reject the upload.
			s.registry.remove(ds.ID)
			writeError(w, http.StatusInternalServerError, "persist dataset: %v", err)
			return
		}
	}
	s.metrics.DatasetsUploaded.Add(1)
	status := http.StatusOK // existing dataset, idempotent re-upload
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, datasetView{Dataset: ds})
}

func (s *Server) handleListDatasets(w http.ResponseWriter, _ *http.Request) {
	list := s.registry.list()
	views := make([]datasetView, len(list))
	for i, ds := range list {
		views[i] = datasetView{Dataset: ds}
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": views})
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	ds, ok := s.registry.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, datasetView{Dataset: ds, RowStats: ds.RowStats()})
}

func (s *Server) handleDatasetTSV(w http.ResponseWriter, r *http.Request) {
	ds, ok := s.registry.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "text/tab-separated-values")
	ds.Matrix().WriteTSV(w)
}

func (s *Server) handleDeleteDataset(w http.ResponseWriter, r *http.Request) {
	if !s.registry.remove(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, "unknown dataset %q", r.PathValue("id"))
		return
	}
	if s.store != nil {
		s.store.deleteDataset(r.PathValue("id"))
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleAppend grows a dataset by an append delta. The body is a TSV holding
// only the appended entries — new columns for axis=conditions (the default),
// new rows for axis=genes. The result is a NEW content-addressed dataset
// version with its lineage recorded and journaled; the parent is never
// mutated, so prior results stay valid and diffable.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	axis := r.URL.Query().Get("axis")
	if axis == "" {
		axis = DeltaAxisConditions
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	ds, created, err := s.registry.appendDelta(r.PathValue("id"), axis, r.URL.Query().Get("name"), body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "delta exceeds %d bytes", tooBig.Limit)
			return
		}
		if _, ok := s.registry.get(r.PathValue("id")); !ok {
			writeError(w, http.StatusNotFound, "unknown dataset %q", r.PathValue("id"))
			return
		}
		writeError(w, http.StatusBadRequest, "append delta: %v", err)
		return
	}
	if created && s.store != nil {
		if err := s.store.saveDataset(ds); err != nil {
			s.registry.remove(ds.ID)
			writeError(w, http.StatusInternalServerError, "persist dataset: %v", err)
			return
		}
	}
	status := http.StatusOK // delta converged on an existing dataset
	if created {
		s.metrics.DatasetAppends.Add(1)
		if ds.Delta != nil {
			// Journal the lineage so incremental re-mining survives restarts.
			// Best-effort like every WAL append: a failure degrades the next
			// boot to cold mining, never availability.
			s.jobs.journalAppend(journalRecord{Type: recDelta, Dataset: ds.ID, Delta: ds.Delta})
		}
		status = http.StatusCreated
	}
	writeJSON(w, status, datasetView{Dataset: ds})
}

// DiffSchemaID identifies the result-diff document format.
const DiffSchemaID = "regcluster.diff/v1"

// ClusterGrowth pairs the parent- and child-side versions of one cluster
// whose chain survived the delta but whose membership changed.
type ClusterGrowth struct {
	Before report.NamedCluster `json:"before"`
	After  report.NamedCluster `json:"after"`
}

// DiffDocument is the response of GET /datasets/{id}/diff/{parent}: the
// settled child result compared against the parent's, keyed by (chain,
// direction). Added/Removed hold clusters present on only one side; Grown
// holds chains present on both with different membership; Unchanged counts
// identical clusters.
type DiffDocument struct {
	Schema    string                `json:"schema"`
	Dataset   string                `json:"dataset"`
	Parent    string                `json:"parent"`
	Job       string                `json:"job"`
	Params    core.Params           `json:"params"`
	Added     []report.NamedCluster `json:"added"`
	Removed   []report.NamedCluster `json:"removed"`
	Grown     []ClusterGrowth       `json:"grown"`
	Unchanged int                   `json:"unchanged"`
}

// diffKey identifies a cluster across the two results: the condition chain
// (names, in chain order) plus the orientation.
func diffKey(nc report.NamedCluster) string {
	return strings.Join(nc.Chain, "\x1f") + "\x1f|" + nc.Direction
}

// handleDiff compares the latest settled result on a dataset against the
// parent's cached result under the same parameters. The endpoint works for
// any dataset pair that has both results resident — lineage makes the diff
// meaningful but is not required.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	childID, parentID := r.PathValue("id"), r.PathValue("parent")
	if _, ok := s.registry.get(childID); !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", childID)
		return
	}
	if _, ok := s.registry.get(parentID); !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", parentID)
		return
	}
	// Latest done job on the child fixes the parameter point of the diff.
	var child *JobView
	for _, j := range s.jobs.list() {
		v := j.View()
		if v.Dataset == childID && v.Status == StatusDone {
			child = &v
		}
	}
	if child == nil {
		writeError(w, http.StatusNotFound, "no settled result for dataset %q; mine it first", childID)
		return
	}
	childRes, ok := s.cache.get(cacheKey(childID, child.Params))
	if !ok {
		writeError(w, http.StatusNotFound, "result for dataset %q evicted; re-mine it", childID)
		return
	}
	parentRes, ok := s.cache.get(cacheKey(parentID, child.Params))
	if !ok {
		writeError(w, http.StatusNotFound, "no result for dataset %q under the same params; mine it first", parentID)
		return
	}

	parentBy := make(map[string]report.NamedCluster, len(parentRes.clusters))
	for _, nc := range parentRes.clusters {
		parentBy[diffKey(nc)] = nc
	}
	diff := DiffDocument{
		Schema:  DiffSchemaID,
		Dataset: childID,
		Parent:  parentID,
		Job:     child.ID,
		Params:  child.Params,
		Added:   []report.NamedCluster{},
		Removed: []report.NamedCluster{},
		Grown:   []ClusterGrowth{},
	}
	seen := make(map[string]bool, len(childRes.clusters))
	for _, nc := range childRes.clusters {
		key := diffKey(nc)
		seen[key] = true
		old, ok := parentBy[key]
		switch {
		case !ok:
			diff.Added = append(diff.Added, nc)
		case reflect.DeepEqual(old.Members, nc.Members):
			diff.Unchanged++
		default:
			diff.Grown = append(diff.Grown, ClusterGrowth{Before: old, After: nc})
		}
	}
	for _, nc := range parentRes.clusters {
		if !seen[diffKey(nc)] {
			diff.Removed = append(diff.Removed, nc)
		}
	}
	writeJSON(w, http.StatusOK, diff)
}

// submitRequest is the body of POST /jobs.
type submitRequest struct {
	Dataset string      `json:"dataset"`
	Params  core.Params `json:"params"`
	// Workers is the per-job worker count; 0 uses the server default. The
	// cluster output is identical for every worker count.
	Workers int `json:"workers"`
	// TimeoutMS is the mining deadline in milliseconds; 0 uses the server
	// maximum (if any). Values above the server maximum are clamped.
	TimeoutMS int64 `json:"timeout_ms"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	// Drain pre-check: during graceful shutdown new work must be turned away
	// immediately with 503 + Retry-After, not accepted only to be interrupted
	// when the grace period expires.
	if s.jobs.isClosed() {
		s.rejectDraining(w)
		return
	}
	var req submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	ds, ok := s.registry.get(req.Dataset)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", req.Dataset)
		return
	}
	p := req.Params
	if err := p.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid params: %v", err)
		return
	}
	if p.CustomGammas != nil && len(p.CustomGammas) != ds.Genes {
		writeError(w, http.StatusBadRequest, "invalid params: %d CustomGammas for %d genes", len(p.CustomGammas), ds.Genes)
		return
	}
	workers := req.Workers
	if workers == 0 {
		workers = s.cfg.DefaultWorkers
	}
	if err := core.ValidateWorkers(workers, s.cfg.MaxWorkersPerJob); err != nil {
		writeError(w, http.StatusBadRequest, "invalid workers: %v", err)
		return
	}
	// Server- and tenant-side budget caps: clamp BEFORE the cache key is
	// derived so a clamped submission and an explicit submission of the same
	// effective budget share a cache entry. A tenant with an aggregate node
	// pool additionally clamps unlimited node budgets to the pool capacity, so
	// every one of its jobs charges the pool a finite amount.
	p.MaxNodes = clampCap(p.MaxNodes, s.cfg.MaxNodesPerJob)
	p.MaxClusters = clampCap(p.MaxClusters, s.cfg.MaxClustersPerJob)
	p.MaxNodes = clampCap(p.MaxNodes, tn.maxNodes)
	p.MaxClusters = clampCap(p.MaxClusters, tn.maxClusters)
	if tn.nodes != nil {
		p.MaxNodes = clampCap(p.MaxNodes, int(tn.nodes.Capacity()))
	}
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	if req.TimeoutMS < 0 {
		writeError(w, http.StatusBadRequest, "invalid timeout_ms: %d", req.TimeoutMS)
		return
	}
	if s.cfg.MaxJobDuration > 0 && (timeout == 0 || timeout > s.cfg.MaxJobDuration) {
		timeout = s.cfg.MaxJobDuration
	}

	j, err := s.jobs.submitAs(tn, ds, p, workers, timeout)
	var adm *admissionError
	switch {
	case errors.Is(err, ErrDraining):
		s.rejectDraining(w)
	case errors.As(err, &adm):
		writeAdmissionError(w, adm)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		writeJSON(w, http.StatusAccepted, j.View())
	}
}

// resolveTenant authenticates the request's tenant; an unknown API key is a
// 401 (a typo'd key must fail loudly, never demote to anonymous limits).
func (s *Server) resolveTenant(w http.ResponseWriter, r *http.Request) (*tenant, bool) {
	tn, err := s.jobs.tenants.resolve(r)
	if err != nil {
		writeError(w, http.StatusUnauthorized, "%v", err)
		return nil, false
	}
	return tn, true
}

// writeAdmissionError renders a 429/503 admission rejection with its
// Retry-After header (whole seconds, at least 1).
func writeAdmissionError(w http.ResponseWriter, adm *admissionError) {
	w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds(adm.retryAfter)))
	writeError(w, adm.status, "%s", adm.msg)
}

// rejectDraining turns away a submission during graceful drain: 503 plus a
// Retry-After derived from the backlog still draining, so clients and load
// balancers know when a replacement instance is worth trying.
func (s *Server) rejectDraining(w http.ResponseWriter) {
	depth := s.jobs.queuedOrRunning()
	w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds(s.jobs.sched.retryAfter(depth))))
	writeError(w, http.StatusServiceUnavailable, "%v", ErrDraining)
}

// clampCap lowers a requested budget cap to the server limit; 0 means the
// caller asked for unlimited, which a configured server limit overrides.
func clampCap(requested, limit int) int {
	if limit > 0 && (requested == 0 || requested > limit) {
		return limit
	}
	return requested
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	jobs := s.jobs.list()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.View()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.cancelJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

// streamSummary is the final NDJSON line of a job stream; its Done field
// distinguishes it from cluster lines.
type streamSummary struct {
	Done     bool        `json:"done"`
	Status   JobStatus   `json:"status"`
	Error    string      `json:"error,omitempty"`
	Clusters int         `json:"clusters"`
	Stats    *core.Stats `json:"stats,omitempty"`
}

// handleStream replays the job's clusters from the beginning and then
// follows the live run, one compact JSON cluster per line (the NamedCluster
// schema), flushing after every batch; the last line is a streamSummary. A
// cached job streams its full result immediately.
//
// The handler is a pure subscriber: an encoder error, a vanished client, or
// even a panic inside the response path ends THIS stream only — the mining
// job it watches is untouched, and other subscribers keep streaming.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.metrics.StreamsInflight.Add(1)
	defer s.metrics.StreamsInflight.Add(-1)
	defer func() {
		if rec := recover(); rec != nil {
			s.metrics.PanicsRecovered.Add(1)
			s.logf("service: stream %s: contained panic: %v", j.ID, rec)
		}
	}()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	sent := 0
	ssp := j.root.Start("stream") // a replay may outlive the job span; that's fine
	defer func() {
		ssp.SetInt("clusters", int64(sent))
		ssp.End()
	}()
	for {
		clusters, terminal, changed := j.Snapshot(sent)
		for _, nc := range clusters {
			if err := faultinject.Hook("stream.write"); err != nil {
				return // injected subscriber failure
			}
			if err := enc.Encode(nc); err != nil {
				return // client went away
			}
			sent++
		}
		if len(clusters) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			break
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
	_, stats, errMsg, _ := j.Result()
	enc.Encode(streamSummary{Done: true, Status: j.Status(), Error: errMsg, Clusters: sent, Stats: &stats})
	if flusher != nil {
		flusher.Flush()
	}
}

// handleResult returns the settled outcome as a report.Document — the same
// stable schema cmd/regcluster -json emits.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	clusters, stats, errMsg, terminal := j.Result()
	if !terminal {
		writeError(w, http.StatusConflict, "job %s is %s; poll or stream instead", j.ID, j.Status())
		return
	}
	if errMsg != "" {
		writeError(w, http.StatusConflict, "job %s ended %s: %s", j.ID, j.Status(), errMsg)
		return
	}
	doc := &report.Document{Schema: report.SchemaID, Params: j.Params, Stats: stats, Clusters: clusters}
	w.Header().Set("Content-Type", "application/json")
	doc.Write(w)
}

// handleTrace returns the finished (or still-growing) span tree of one job.
// 404 covers both an unknown job and a server running without -trace.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	tree := j.Trace()
	if tree == nil {
		writeError(w, http.StatusNotFound, "no trace for job %s (run the server with tracing enabled)", j.ID)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"job":    j.ID,
		"status": j.Status(),
		"trace":  tree,
	})
}

// tenantView builds the JSON view of one tenant: identity, live scheduler
// occupancy, node-pool state, and the cumulative usage ledger.
func (s *Server) tenantView(tn *tenant) tenantView {
	g := s.jobs.sched.gauges(tn)
	return tenantView{
		ID:                 tn.id,
		Weight:             tn.weight,
		Priority:           priorityNames[tn.priority],
		Queued:             g.queued,
		Running:            g.running,
		NodeBudgetInUse:    tn.nodes.InUse(),
		NodeBudgetCapacity: tn.nodes.Capacity(),
		Usage:              tn.usageSnapshot(),
	}
}

// handleListTenants lists every tenant (anonymous first) with live occupancy
// and usage. API keys are never echoed.
func (s *Server) handleListTenants(w http.ResponseWriter, _ *http.Request) {
	tenants := s.jobs.tenants.list()
	views := make([]tenantView, len(tenants))
	for i, tn := range tenants {
		views[i] = s.tenantView(tn)
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": views})
}

// handleTenantUsage is the per-tenant accounting endpoint.
func (s *Server) handleTenantUsage(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.jobs.tenants.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown tenant %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.tenantView(tn))
}

// handleHealthz is the readiness probe. By the time Open returns, the
// registry is loaded and the journal replayed, so readiness reduces to "not
// draining": 200 while the server accepts submissions, 503 once Shutdown has
// begun (load balancers and coordinator placement checks steer away). The
// body reports the mode, the scheduler's saturation (queue depth, shed state,
// per-class backlog — so balancers can stop routing BEFORE hard 429s), and,
// in coordinator mode, the worker pool state.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	draining := s.jobs.isClosed()
	mode := s.cfg.Mode
	if mode == "" {
		mode = "single"
	}
	sat := s.jobs.sched.saturationSnapshot()
	backlog := make(map[string]int, numPriorities)
	for class, n := range sat.byClass {
		backlog[priorityNames[class]] = n
	}
	resp := map[string]any{
		"status":           "ok",
		"ready":            !draining,
		"mode":             mode,
		"datasets":         s.registry.size(),
		"jobs_active":      s.jobs.queuedOrRunning(),
		"queue_depth":      sat.queued,
		"slots_busy":       sat.running,
		"shedding":         sat.shedding,
		"backlog_by_class": backlog,
	}
	status := http.StatusOK
	if draining {
		resp["status"] = "draining"
		status = http.StatusServiceUnavailable
	}
	if s.coord != nil {
		resp["workers_connected"] = s.coord.WorkersConnected()
		resp["leases_active"] = s.coord.ActiveLeases()
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteTo(w, []gauge{
		{"regcluster_datasets", "Registered datasets.", func() int64 { return int64(s.registry.size()) }},
		{"regcluster_cache_entries", "Entries in the result cache.", func() int64 { return int64(s.cache.len()) }},
		{"regserver_model_cache_entries", "Shared RWave model sets currently retained.", func() int64 { return int64(s.jobs.models.len()) }},
		{"regcluster_jobs_running", "Jobs holding a mining slot.", func() int64 { return int64(s.jobs.runningCount()) }},
		{"regcluster_jobs_active", "Jobs queued or running.", func() int64 { return int64(s.jobs.queuedOrRunning()) }},
		{"regserver_jobs_queued", "Jobs waiting for a mining slot.", func() int64 {
			q := s.jobs.queuedOrRunning() - s.jobs.runningCount()
			if q < 0 {
				q = 0
			}
			return int64(q)
		}},
		{"regserver_streams_inflight", "Live cluster-stream subscribers.", func() int64 { return s.metrics.StreamsInflight.Load() }},
		{"regserver_goroutines", "Goroutines at the last runtime sample.", func() int64 { return int64(s.sampler.Latest().Goroutines) }},
		{"regserver_heap_alloc_bytes", "Heap bytes in use at the last runtime sample.", func() int64 { return int64(s.sampler.Latest().HeapAllocBytes) }},
		{"regserver_gc_runs", "Completed GC cycles at the last runtime sample.", func() int64 { return int64(s.sampler.Latest().NumGC) }},
	})
	gp := "regserver_gc_pause_seconds_total"
	fmt.Fprintf(w, "# HELP %s Cumulative GC pause at the last runtime sample.\n# TYPE %s gauge\n%s %g\n",
		gp, gp, gp, s.sampler.Latest().GCPauseTotal.Seconds())
	s.writeTenantMetrics(w)
	if s.coord != nil {
		joined, issued, reassigned, completed := s.coord.Counters()
		writeMetric := func(kind, name, help string, v int64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, help, name, kind, name, v)
		}
		writeMetric("gauge", "regserver_workers_connected", "Workers heard from within the last three lease TTLs.", int64(s.coord.WorkersConnected()))
		writeMetric("gauge", "regserver_leases_active", "Subtree leases currently outstanding.", int64(s.coord.ActiveLeases()))
		writeMetric("counter", "regserver_workers_joined_total", "Worker registrations accepted.", joined)
		writeMetric("counter", "regserver_leases_issued_total", "Subtree leases issued (re-issues included).", issued)
		writeMetric("counter", "regserver_leases_reassigned_total", "Leases revoked (heartbeat TTL or worker nack) and re-queued.", reassigned)
		writeMetric("counter", "regserver_leases_completed_total", "Subtree leases completed by a final heartbeat.", completed)
	}
}

// writeTenantMetrics renders the per-tenant families, one labeled series per
// tenant: the cumulative usage counters and the live queue/slot gauges.
func (s *Server) writeTenantMetrics(w io.Writer) {
	tenants := s.jobs.tenants.list()
	family := func(kind, name, help string, value func(*tenant) string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		for _, tn := range tenants {
			fmt.Fprintf(w, "%s{tenant=%q} %s\n", name, tn.id, value(tn))
		}
	}
	usage := make(map[string]TenantUsage, len(tenants))
	gauges := make(map[string]tenantGauges, len(tenants))
	for _, tn := range tenants {
		usage[tn.id] = tn.usageSnapshot()
		gauges[tn.id] = s.jobs.sched.gauges(tn)
	}
	i := func(f func(TenantUsage) int64) func(*tenant) string {
		return func(tn *tenant) string { return fmt.Sprintf("%d", f(usage[tn.id])) }
	}
	family("counter", "regserver_tenant_jobs_total", "Submissions accepted per tenant.", i(func(u TenantUsage) int64 { return u.Jobs }))
	family("counter", "regserver_tenant_jobs_completed_total", "Jobs settled done per tenant.", i(func(u TenantUsage) int64 { return u.Completed }))
	family("counter", "regserver_tenant_jobs_failed_total", "Jobs settled failed per tenant.", i(func(u TenantUsage) int64 { return u.Failed }))
	family("counter", "regserver_tenant_jobs_cancelled_total", "Caller cancellations per tenant.", i(func(u TenantUsage) int64 { return u.Cancelled }))
	family("counter", "regserver_tenant_jobs_shed_total", "Queued jobs evicted by overload shedding per tenant.", i(func(u TenantUsage) int64 { return u.Shed }))
	family("counter", "regserver_tenant_jobs_rejected_total", "Submissions refused with 429 per tenant.", i(func(u TenantUsage) int64 { return u.Rejected }))
	family("counter", "regserver_tenant_nodes_total", "Search-tree nodes mined by settled jobs per tenant.", i(func(u TenantUsage) int64 { return u.Nodes }))
	family("counter", "regserver_tenant_clusters_total", "Clusters emitted by settled jobs per tenant.", i(func(u TenantUsage) int64 { return u.Clusters }))
	family("counter", "regserver_tenant_node_seconds_total", "Mining-slot seconds consumed per tenant.",
		func(tn *tenant) string { return fmt.Sprintf("%g", usage[tn.id].NodeSeconds) })
	family("gauge", "regserver_tenant_jobs_queued", "Jobs waiting for a slot per tenant.",
		func(tn *tenant) string { return fmt.Sprintf("%d", gauges[tn.id].queued) })
	family("gauge", "regserver_tenant_jobs_running", "Jobs holding a slot per tenant.",
		func(tn *tenant) string { return fmt.Sprintf("%d", gauges[tn.id].running) })
}
