package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/faultinject"
	"regcluster/internal/obs"
	"regcluster/internal/report"
	"regcluster/internal/rwave"
)

// JobStatus is the lifecycle state of a mining job.
//
//	queued ──▶ running ──▶ done
//	   │           ├─────▶ failed
//	   │           ├─────▶ interrupted   (shutdown; resumes on next boot)
//	   └───────────┴─────▶ cancelled
//
// Cache hits are born terminal: a submission whose result is cached is
// recorded as done with Cached set, without ever occupying a mining slot.
// Interrupted is terminal *within this process* — the job's checkpoint is
// journaled and the next boot re-enqueues it.
type JobStatus string

const (
	StatusQueued      JobStatus = "queued"
	StatusRunning     JobStatus = "running"
	StatusDone        JobStatus = "done"
	StatusFailed      JobStatus = "failed"
	StatusCancelled   JobStatus = "cancelled"
	StatusInterrupted JobStatus = "interrupted"
)

// terminal reports whether no further state changes can happen in this
// process.
func (s JobStatus) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled || s == StatusInterrupted
}

// ErrDraining is returned by submit once shutdown has begun.
var ErrDraining = errors.New("service: shutting down, not accepting jobs")

// Job is one submitted mining request. All mutable state is guarded by mu;
// clusters only ever grows during one attempt, so snapshot readers may retain
// the returned slice prefix without copying (rewindTo re-allocates rather
// than truncating in place for the same reason).
type Job struct {
	ID      string
	Dataset *Dataset
	Params  core.Params
	Workers int
	Timeout time.Duration

	// tn is the owning tenant (never nil once submitted: keyless submissions
	// belong to the anonymous tenant). nodeCost is the reservation this job
	// holds in the tenant's aggregate node-budget pool, released at settle;
	// entry is its scheduler queue entry — its reservation of a mining slot —
	// nil only while a cache hit is expected to settle it.
	tn       *tenant
	nodeCost int64
	entry    *schedEntry

	obs core.Observer // live node/cluster counters while mining

	// Tracing state, armed by startTrace before the job is published (so
	// handlers read the fields without locking). All nil when tracing is off;
	// every span operation degrades to a no-op then.
	tracer    *obs.Tracer
	root      *obs.Span // the "job" span: queue + attempts + streams
	queueSpan *obs.Span

	mu        sync.Mutex
	status    JobStatus
	cached    bool
	recovered bool // re-enqueued from the journal at boot
	shed      bool // evicted from the queue by the overload shedder
	err       string
	stack     string // panic stack when a contained worker panic failed the job
	clusters  []report.NamedCluster
	stats     core.Stats
	created   time.Time
	started   time.Time
	finished  time.Time
	changed   chan struct{} // closed and replaced on every state change
	cancel    context.CancelFunc
	done      chan struct{} // closed once status is terminal

	// Crash-recovery state. lastCkpt is the most recent miner snapshot (the
	// resume point of the next attempt); journaled and journaledSubtrees are
	// how many clusters and settled subtrees' Stats the WAL already holds;
	// attempts counts transient-failure retries.
	lastCkpt          *core.Checkpoint
	journaled         int
	journaledSubtrees int
	attempts          int

	// incr reports how the incremental re-mine path handled this job (nil
	// when the job had no delta lineage to exploit); subtrees are the
	// per-subtree Stats of its settled run, kept with its cached result so
	// a child dataset's job can splice from it.
	incr     *core.IncrementalInfo
	subtrees []core.Stats

	// Phase durations, settled as each phase ends (for the slow-job log).
	queuedFor time.Duration
	ranFor    time.Duration
}

// startTrace arms per-job span recording: a "job" root span with a "queue"
// child that ends when the job takes a mining slot. Must run before the job
// is published to the manager's table — handlers read the span fields
// without locking, relying on that happens-before.
func (j *Job) startTrace() {
	j.tracer = obs.New()
	j.root = j.tracer.Start("job")
	j.root.SetAttr("id", j.ID)
	j.root.SetAttr("dataset", j.Dataset.ID)
	j.queueSpan = j.root.Start("queue")
}

// Trace snapshots the job's span forest; nil when tracing is off.
func (j *Job) Trace() []*obs.Node { return j.tracer.Tree() }

// JobView is the JSON form of a job's state at one instant.
type JobView struct {
	ID      string    `json:"id"`
	Dataset string    `json:"dataset"`
	Status  JobStatus `json:"status"`
	Cached  bool      `json:"cached"`
	// Tenant is the owning tenant's ID (omitted for anonymous submissions,
	// so pre-tenancy clients see an unchanged schema).
	Tenant string `json:"tenant,omitempty"`
	// Shed marks a job the overload shedder evicted from the queue; its
	// status is cancelled.
	Shed bool `json:"shed,omitempty"`
	// Recovered marks a job re-enqueued from the journal after a restart.
	Recovered bool        `json:"recovered,omitempty"`
	Workers   int         `json:"workers"`
	Params    core.Params `json:"params"`
	Error     string      `json:"error,omitempty"`
	// Stack is the captured goroutine stack when a contained worker panic
	// failed the job.
	Stack string `json:"stack,omitempty"`
	// Attempts counts transient-failure retries already spent.
	Attempts int `json:"attempts,omitempty"`
	// Clusters is the number of clusters delivered so far (final once the
	// status is terminal).
	Clusters int `json:"clusters"`
	// LiveNodes/LiveClusters are the miner's live progress counters; they
	// may slightly overshoot the settled Stats on truncated runs.
	LiveNodes    int64       `json:"live_nodes"`
	LiveClusters int64       `json:"live_clusters"`
	Stats        *core.Stats `json:"stats,omitempty"` // settled, terminal only
	// Incremental reports how the delta-reuse path handled the job: subtrees
	// spliced from the parent result versus re-mined, or the fallback reason.
	// Omitted for jobs without delta lineage.
	Incremental *core.IncrementalInfo `json:"incremental,omitempty"`
	CreatedAt   time.Time             `json:"created_at"`
	StartedAt   *time.Time            `json:"started_at,omitempty"`
	FinishedAt  *time.Time            `json:"finished_at,omitempty"`
}

// View snapshots the job for serialization.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.ID,
		Dataset:   j.Dataset.ID,
		Status:    j.status,
		Cached:    j.cached,
		Shed:      j.shed,
		Recovered: j.recovered,
		Workers:   j.Workers,
		Params:    j.Params,
		Error:     j.err,
		Stack:     j.stack,
		Attempts:  j.attempts,

		Clusters:     len(j.clusters),
		LiveNodes:    j.obs.Nodes(),
		LiveClusters: j.obs.Clusters(),
		CreatedAt:    j.created,
	}
	if j.tn != nil && j.tn.id != AnonymousTenant {
		v.Tenant = j.tn.id
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	if j.status.terminal() {
		st := j.stats
		v.Stats = &st
	}
	if j.incr != nil {
		inf := *j.incr
		v.Incremental = &inf
	}
	return v
}

// Status returns the job's current status.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Done returns a channel closed when the job reaches a terminal status.
func (j *Job) Done() <-chan struct{} { return j.done }

// Snapshot returns the clusters delivered so far starting at index from,
// whether the job is terminal, and a channel that signals the next change.
// The returned slice aliases the job's grow-only buffer.
func (j *Job) Snapshot(from int) (clusters []report.NamedCluster, terminal bool, changed <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from > len(j.clusters) {
		from = len(j.clusters)
	}
	return j.clusters[from:], j.status.terminal(), j.changed
}

// Result returns the settled outcome of a terminal job.
func (j *Job) Result() (clusters []report.NamedCluster, stats core.Stats, errMsg string, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.clusters, j.stats, j.err, j.status.terminal()
}

// bump wakes every Snapshot waiter. Callers hold j.mu.
func (j *Job) bump() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// rewindTo discards clusters past the watermark of ck (nil: from scratch)
// before a retry resumes from it, so the resumed attempt never re-delivers
// them. The prefix is COPIED into a fresh backing array: stream readers may
// still hold aliases of the old one, and the re-mined appends must not write
// through those (the re-mined values are identical — mining is deterministic
// — but the race detector rightly objects to the overlapping writes).
func (j *Job) rewindTo(ck *core.Checkpoint) {
	watermark, settled := 0, 0
	if ck != nil {
		watermark, settled = ck.Delivered(), ck.NextCond
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if watermark < len(j.clusters) {
		j.clusters = append([]report.NamedCluster(nil), j.clusters[:watermark]...)
	}
	j.journaled = min(j.journaled, watermark)
	j.journaledSubtrees = min(j.journaledSubtrees, settled)
}

// resumePoint returns the snapshot the next mining attempt starts from.
func (j *Job) resumePoint() *core.Checkpoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastCkpt
}

// jobManager owns the job table, the weighted-fair mining-slot scheduler,
// the tenant table, the result-cache interaction, and — when the server is
// durable — the job journal. One manager serves one Server.
type jobManager struct {
	cache   *resultCache
	metrics *Metrics

	// sched shares the mining slots across tenants (weighted-fair with
	// priority classes); tenants resolves API keys and holds quotas + usage.
	sched   *scheduler
	tenants *tenantSet

	// models is the shared RWave-build cache; nil means every attempt builds
	// its own index (the pre-cache behavior, kept for bare-manager tests).
	models *modelCache

	// datasets resolves a dataset ID to its live registry entry; the Server
	// wires it so delta-lineage jobs can reach their parent matrix. Nil (bare
	// managers) disables the incremental path.
	datasets func(id string) (*Dataset, bool)

	// distribute, set in coordinator mode, fits a run's options to the
	// coordinator: the run shares its subtree queue with the remote workers
	// and mines beside them on Config.DistLocalWorkers local ones. Output is
	// byte-identical either way.
	distribute func(j *Job, o *core.Options)

	// Durability plumbing; wal/store are nil on an in-memory server.
	wal     *journal
	store   *store
	ckEvery int        // checkpoint cadence in delivered clusters
	usageMu sync.Mutex // orders usage snapshots into the journal (journalUsage)
	logf    func(format string, args ...any)

	// Observability plumbing set by the Server: log is the structured logger
	// (nil-safe), trace arms per-job span recording, and slowJob is the
	// threshold above which a settled job emits a per-phase breakdown warning
	// (0 disables).
	log     *obs.Logger
	trace   bool
	slowJob time.Duration

	// Transient-failure retry policy: up to maxRetries re-attempts, sleeping
	// retryBase<<attempt (capped at retryMax) plus up to 50% jitter.
	maxRetries int
	retryBase  time.Duration
	retryMax   time.Duration

	draining atomic.Bool // drain() began; cancellations become interruptions

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // submission order for listing
	seq     int
	closed  bool
	drained bool           // a drain returned: no job runs or can start again
	running sync.WaitGroup // one count per live mining goroutine
}

func newJobManager(maxConcurrent int, cache *resultCache, metrics *Metrics) *jobManager {
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	// Bare managers (tests, embedders) run with the anonymous tenant only,
	// no quotas, and shedding disabled — the pre-tenancy behavior.
	tenants, err := newTenantSet(nil, tenantDefaults{})
	if err != nil {
		panic("service: default tenant set: " + err.Error())
	}
	return &jobManager{
		cache:      cache,
		metrics:    metrics,
		sched:      newScheduler(maxConcurrent, 0, metrics),
		tenants:    tenants,
		jobs:       make(map[string]*Job),
		ckEvery:    64,
		logf:       func(string, ...any) {},
		maxRetries: 2,
		retryBase:  100 * time.Millisecond,
		retryMax:   5 * time.Second,
	}
}

// journalAppend writes one WAL record, tolerating failure: the journal is a
// recovery aid, and a disk error must degrade durability, never availability.
func (m *jobManager) journalAppend(rec journalRecord) bool {
	if m.wal == nil {
		return false
	}
	if err := m.wal.append(rec); err != nil {
		m.logf("service: journal %s for %s: %v (continuing without durability)", rec.Type, rec.Job, err)
		return false
	}
	return true
}

// submit registers a mining job for (ds, p) under the anonymous tenant —
// the pre-tenancy entry point, kept for embedders and tests.
func (m *jobManager) submit(ds *Dataset, p core.Params, workers int, timeout time.Duration) (*Job, error) {
	return m.submitAs(m.tenants.anonymous, ds, p, workers, timeout)
}

// admit runs the tenant's admission checks for one would-mine submission of
// j: the token-bucket rate limit, the aggregate node-budget pool, and the
// scheduler's queue/concurrency bounds. On success j holds its scheduler
// queue entry plus a nodeCost-unit pool reservation; on failure it holds
// nothing and the returned error is an *admissionError carrying the HTTP
// status and Retry-After.
func (m *jobManager) admit(j *Job, cached bool) error {
	if err := faultinject.Hook("admission.submit"); err != nil {
		return err
	}
	tn := j.tn
	if tn.bucket != nil {
		if ok, retry := tn.bucket.take(1); !ok {
			return &admissionError{status: 429, retryAfter: retry,
				msg: fmt.Sprintf("tenant %s: submission rate limit exceeded", tn.id)}
		}
	}
	if cached {
		// A cached submission settles instantly without a slot or any node
		// budget: the rate limit is the only check that applies.
		return nil
	}
	var nodeCost int64
	if tn.nodes != nil {
		nodeCost = int64(j.Params.MaxNodes)
		if nodeCost <= 0 {
			// Defense in depth: the HTTP layer clamps unlimited submissions
			// to the pool capacity before keying the cache; a direct caller
			// that skipped the clamp still charges the whole pool.
			nodeCost = tn.nodes.Capacity()
		}
		if !tn.nodes.TryReserve(nodeCost) {
			return &admissionError{status: 429, retryAfter: m.sched.retryAfter(1),
				msg: fmt.Sprintf("tenant %s: node budget exhausted (%d of %d in flight)",
					tn.id, tn.nodes.InUse(), tn.nodes.Capacity())}
		}
	}
	e, err := m.sched.enqueue(j, false)
	if err != nil {
		tn.nodes.Release(nodeCost)
		return err
	}
	j.entry, j.nodeCost = e, nodeCost
	return nil
}

// unadmit returns what admit granted j when it will never run.
func (m *jobManager) unadmit(j *Job) {
	if j.entry != nil {
		m.sched.withdraw(j.entry)
	}
	j.tn.nodes.Release(j.nodeCost)
}

// noteRejected accounts one 429 on the tenant and the global metrics.
func (m *jobManager) noteRejected(tn *tenant) {
	tn.account(TenantUsage{Rejected: 1})
	m.metrics.JobsRejected.Add(1)
}

// submitAs registers a mining job for (ds, p) owned by tn, running tenant
// admission first. When the result cache already holds the outcome, the
// returned job is already done with Cached set and no mining slot or quota
// is consumed. Parameters must be validated by the caller; p is stored as
// submitted (post server- and tenant-side clamping). A rejection returns an
// *admissionError (429 + Retry-After) before anything is journaled.
func (m *jobManager) submitAs(tn *tenant, ds *Dataset, p core.Params, workers int, timeout time.Duration) (*Job, error) {
	if m.isClosed() {
		return nil, ErrDraining
	}
	key := cacheKey(ds.ID, p)
	_, cached := m.cache.get(key)
	j := &Job{
		Dataset: ds,
		Params:  p,
		Workers: workers,
		Timeout: timeout,
		tn:      tn,
		status:  StatusQueued,
		changed: make(chan struct{}),
		done:    make(chan struct{}),
	}
	if err := m.admit(j, cached); err != nil {
		var adm *admissionError
		if errors.As(err, &adm) {
			m.noteRejected(tn)
		}
		return nil, err
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.unadmit(j)
		return nil, ErrDraining
	}
	m.seq++
	j.ID = fmt.Sprintf("job-%06d", m.seq)
	j.created = time.Now().UTC()
	if m.trace {
		j.startTrace()
	}
	seq := m.seq
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.metrics.JobsSubmitted.Add(1)
	m.mu.Unlock()
	tn.account(TenantUsage{Jobs: 1})

	pp := p
	m.journalAppend(journalRecord{Type: recSubmit, Job: j.ID, Seq: seq, Tenant: tn.id,
		Dataset: ds.ID, Params: &pp, Workers: workers, TimeoutMS: timeout.Milliseconds()})
	m.launch(j)
	return j, nil
}

// launch settles a job from the cache or starts its mining goroutine. It is
// shared by submit and boot-time recovery. A cache hit settles without
// mining, so a queue entry it holds is withdrawn and any node-budget charge
// returned immediately.
func (m *jobManager) launch(j *Job) {
	key := cacheKey(j.Dataset.ID, j.Params)
	if res, ok := m.cache.get(key); ok {
		m.unadmit(j)
		m.metrics.CacheHits.Add(1)
		// Charge the ledger before the job is visibly done, as settle does.
		j.tn.account(TenantUsage{Completed: 1, Clusters: int64(len(res.clusters))})
		j.queueSpan.End()
		if j.root != nil {
			j.root.SetAttr("status", string(StatusDone))
			j.root.SetAttr("cached", "true")
			j.root.End()
		}
		j.mu.Lock()
		j.cached = true
		j.clusters = res.clusters
		j.stats = res.stats
		now := time.Now().UTC()
		j.started, j.finished = now, now
		j.status = StatusDone
		j.bump()
		close(j.done)
		j.mu.Unlock()
		st := res.stats
		m.journalAppend(journalRecord{Type: recDone, Job: j.ID, CacheKey: key, Cached: true, Stats: &st})
		m.journalUsage(j.tn)
		return
	}
	m.metrics.CacheMisses.Add(1)
	if j.entry == nil {
		// Admitted as a cache hit whose entry was evicted since: the job
		// still mines, queueing without a second admission.
		j.entry, _ = m.sched.enqueue(j, true)
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	m.running.Add(1)
	go m.run(ctx, j, key)
}

// journalUsage appends the tenant's cumulative usage snapshot. Usage records
// are cumulative, so replay keeps only the last one per tenant and a lost
// append costs at most the delta since the previous settlement. The snapshot
// is read at append time under usageMu, so a later record never carries an
// older ledger than an earlier one.
func (m *jobManager) journalUsage(tn *tenant) {
	if m.wal == nil {
		return
	}
	m.usageMu.Lock()
	defer m.usageMu.Unlock()
	u := tn.usageSnapshot()
	m.journalAppend(journalRecord{Type: recUsage, Tenant: tn.id, Usage: &u})
}

// recover re-enqueues a job reconstructed from the journal at boot: prefix
// clusters already delivered before the crash, plus the snapshot to resume
// from. Runs before the server accepts traffic. Recovery bypasses admission
// — journaled work was admitted once and is never re-rejected — but still
// takes a (forced) queue entry so fairness accounting balances.
func (m *jobManager) recover(j *Job) {
	if m.trace {
		j.startTrace()
	}
	if j.tn == nil {
		j.tn = m.tenants.anonymous
	}
	j.entry, _ = m.sched.enqueue(j, true)
	m.mu.Lock()
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.mu.Unlock()
	m.metrics.Recoveries.Add(1)
	m.launch(j)
}

// restoreTerminal installs the shell of a job that had already settled before
// the restart, so /jobs keeps answering for it.
func (m *jobManager) restoreTerminal(j *Job) {
	close(j.done)
	m.mu.Lock()
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.mu.Unlock()
}

// run executes one mining job: wait for a weighted-fair slot grant, mine
// (with checkpointing and transient-failure retries), settle. A queued job
// may leave the scheduler three ways: granted (mine), cancelled (the ctx
// fired), or shed (the overload watermark evicted it).
func (m *jobManager) run(ctx context.Context, j *Job, key string) {
	defer m.running.Done()
	qstart := time.Now()
	if err := m.sched.acquire(ctx, j.entry); err != nil {
		m.settle(j, key, core.Stats{}, err)
		return
	}
	defer m.sched.release(j)
	if ctx.Err() != nil {
		m.settle(j, key, core.Stats{}, ctx.Err())
		return
	}
	wait := time.Since(qstart)
	m.metrics.ObservePhase(PhaseQueue, wait)
	j.queueSpan.End()

	j.mu.Lock()
	j.queuedFor = wait
	j.status = StatusRunning
	j.started = time.Now().UTC()
	j.bump()
	j.mu.Unlock()
	m.metrics.JobsStarted.Add(1)

	mineCtx := ctx
	if j.Timeout > 0 {
		var cancel context.CancelFunc
		mineCtx, cancel = context.WithTimeout(ctx, j.Timeout)
		defer cancel()
	}

	start := time.Now()
	var stats core.Stats
	var err error
	for attempt := 0; ; attempt++ {
		asp := j.root.Start("attempt")
		if asp != nil {
			asp.SetInt("n", int64(attempt))
			j.obs.SetSpan(asp)
		}
		stats, err = m.mine(mineCtx, j)
		asp.End()
		if err == nil || !isTransient(err) || attempt >= m.maxRetries || mineCtx.Err() != nil {
			break
		}
		m.metrics.JobRetries.Add(1)
		j.mu.Lock()
		j.attempts++
		j.mu.Unlock()
		delay := m.backoff(attempt)
		m.logf("service: job %s attempt %d failed transiently (%v); retrying in %v", j.ID, attempt+1, err, delay)
		select {
		case <-time.After(delay):
		case <-mineCtx.Done():
		}
	}
	j.obs.SetSpan(nil)
	ran := time.Since(start)
	m.metrics.ObserveMiningLatency(ran)
	m.metrics.ObservePhase(PhaseRun, ran)
	j.mu.Lock()
	j.ranFor = ran
	j.mu.Unlock()
	m.settle(j, key, stats, err)
}

// mine runs one attempt over the resumable miner. The attempt resumes from
// the job's last checkpoint (nil on the first attempt of a fresh job),
// having first rewound the delivered clusters to that checkpoint's watermark
// so a retry never duplicates deliveries.
func (m *jobManager) mine(ctx context.Context, j *Job) (core.Stats, error) {
	if err := faultinject.Hook("jobs.mine"); err != nil {
		return core.Stats{}, err
	}
	resume := j.resumePoint()
	j.rewindTo(resume)
	mat := j.Dataset.Matrix()
	ck := core.CheckpointConfig{
		EveryClusters: m.ckEvery,
		OnCheckpoint:  func(c core.Checkpoint) { m.noteCheckpoint(j, c) },
	}
	var models *rwave.Set
	if m.models != nil {
		// One RWave build per (dataset, γ-scheme), shared across every job
		// and retry that agrees on the ModelKey. Passing the job's Observer
		// lands the "rwave.build" span under this job's attempt span when the
		// build actually runs here; jobs that reuse the set skip the span
		// along with the work. A dataset grown by an append-conditions delta
		// builds by repairing the parent's cached models where that set is
		// still resident — same key, same output, less work.
		var err error
		models, err = m.models.getOrBuild(core.ModelKey(j.Dataset.ID, j.Params), func() (*rwave.Set, error) {
			if d := j.Dataset.Delta; d != nil && d.Axis == DeltaAxisConditions {
				if old, ok := m.models.peek(core.ModelKey(d.Parent, j.Params)); ok {
					ms, repaired, err := core.RepairModels(mat, j.Params, old, &j.obs)
					if err == nil {
						m.metrics.ModelRepairs.Add(int64(repaired))
					}
					return ms, err
				}
			}
			return core.BuildModels(mat, j.Params, &j.obs)
		})
		if err != nil {
			return core.Stats{}, err
		}
	}
	visit := func(b *core.Bicluster) bool {
		nc := report.Named(mat, b)
		j.mu.Lock()
		j.clusters = append(j.clusters, nc)
		j.bump()
		j.mu.Unlock()
		m.metrics.ClustersStreamed.Add(1)
		return true
	}
	opts := core.Options{Workers: j.Workers, Visit: visit, Observer: &j.obs, Resume: resume, Checkpoint: ck, Models: models}
	if m.distribute != nil {
		m.distribute(j, &opts)
	}
	if resume == nil {
		if opts.Parent = m.incrementalPlan(j); opts.Parent != nil {
			// No checkpoints: one per subtree boundary raised append-remine op_p50_ms from ~4 to ~8 ms.
			opts.Checkpoint = core.CheckpointConfig{}
		}
	}
	res, err := core.MineWith(ctx, mat, j.Params, opts)
	if err != nil {
		return core.Stats{}, err
	}
	if info := res.Incremental; info != nil {
		if info.Incremental {
			m.metrics.IncrementalMines.Add(1)
			m.metrics.IncrementalSubtreesReused.Add(int64(info.SubtreesReused))
			m.metrics.IncrementalSubtreesMined.Add(int64(info.SubtreesMined))
		} else {
			m.metrics.IncrementalFallbacks.Add(1)
		}
	}
	j.mu.Lock()
	j.incr, j.subtrees = res.Incremental, res.Subtrees
	j.mu.Unlock()
	return res.Stats, nil
}

// incrementalPlan assembles the subtree-reuse input for a delta-lineage job:
// the parent's live matrix and its settled result, resolved back to index
// form. Any missing piece — no lineage, a gene-axis delta, an unregistered
// parent, an evicted parent result, or names that no longer resolve —
// returns nil and the job mines cold without touching the incremental
// metrics: the fallback counter is reserved for runs where reuse was
// plausible but the engine itself declined (a parent result persisted
// before results carried per-subtree Stats, for one).
func (m *jobManager) incrementalPlan(j *Job) *core.Parent {
	d := j.Dataset.Delta
	if d == nil || d.Axis != DeltaAxisConditions || m.datasets == nil || m.cache == nil {
		return nil
	}
	parent, ok := m.datasets(d.Parent)
	if !ok {
		return nil
	}
	res, ok := m.cache.get(cacheKey(d.Parent, j.Params))
	if !ok {
		return nil
	}
	// The child grew by appending, so the parent's gene/condition names keep
	// their indices; resolving against the child therefore reproduces the
	// parent result's index form exactly (and validates the lineage while
	// doing so).
	doc := report.Document{Clusters: res.clusters}
	bs, err := doc.Resolve(j.Dataset.Matrix())
	if err != nil {
		return nil
	}
	return &core.Parent{Matrix: parent.Matrix(), Result: &core.Result{Clusters: bs, Stats: res.stats, Subtrees: res.subtrees}}
}

// noteCheckpoint records a miner snapshot: it becomes the job's resume point
// and — on a durable server — is journaled together with every cluster
// delivered and every subtree's Stats settled since the previous journaled
// record. The callback runs synchronously on the mining emitter goroutine,
// so the append completes before any further cluster is delivered: the WAL
// watermark never runs ahead of delivery.
func (m *jobManager) noteCheckpoint(j *Job, ck core.Checkpoint) {
	m.metrics.Checkpoints.Add(1)
	j.mu.Lock()
	j.lastCkpt = &ck
	watermark := min(ck.Delivered(), len(j.clusters))
	var fresh []report.NamedCluster
	if m.wal != nil && watermark > j.journaled {
		fresh = append([]report.NamedCluster(nil), j.clusters[j.journaled:watermark]...)
	}
	settled := ck.Subtrees[min(j.journaledSubtrees, len(ck.Subtrees)):] // append-only: no copy
	j.mu.Unlock()
	if m.wal == nil {
		return
	}
	if m.journalAppend(checkpointRecord(j.ID, &ck, fresh, settled)) {
		j.mu.Lock()
		j.journaled, j.journaledSubtrees = watermark, len(ck.Subtrees)
		j.mu.Unlock()
	}
}

// backoff returns the capped exponential delay before retry `attempt`+1,
// with up to 50% uniform jitter so a herd of failing jobs does not retry in
// lockstep.
func (m *jobManager) backoff(attempt int) time.Duration {
	d := m.retryBase << attempt
	if d > m.retryMax || d <= 0 {
		d = m.retryMax
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// isTransient reports whether an error is worth retrying: anything that
// declares itself transient (e.g. injected faults, wrapped I/O hiccups).
// Cancellation, deadlines, and worker panics are never transient — the first
// two are caller decisions, and a panic is a bug to surface, not retry.
func isTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// settle moves a job to its terminal state and, on success, publishes the
// result to the cache (and, on a durable server, to disk and the journal).
// Interrupted runs (cancel or deadline) are never cached: their truncation
// point is schedule-dependent, unlike MaxNodes/MaxClusters truncation, which
// is deterministic and therefore cacheable. A worker panic surfaces as
// failed with the captured stack; shutdown-driven cancellation surfaces as
// interrupted, which journals nothing: without a terminal record the next
// boot resumes the job from its last checkpoint record.
//
// Everything in memory is published before the status flips: a reader that
// sees the job terminal — its stream ending, a /diff against it, its
// tenant's /usage, its trace or log — also sees its cached result, ledger
// charge, released node budget, closed spans and slow-job warning. The
// durable writes follow the flip, so a client is never kept waiting on them.
func (m *jobManager) settle(j *Job, key string, stats core.Stats, err error) {
	var perr *core.PanicError
	var status JobStatus
	var errMsg string
	shed := false
	switch {
	case err == nil:
		status = StatusDone
	case errors.As(err, &perr):
		status = StatusFailed
		errMsg = perr.Error()
	case errors.Is(err, errShedOverload):
		status = StatusCancelled
		errMsg = "shed by overload"
		shed = true
	case errors.Is(err, context.Canceled):
		if m.draining.Load() {
			status = StatusInterrupted
			errMsg = "interrupted by shutdown"
		} else {
			status = StatusCancelled
			errMsg = "cancelled"
		}
	case errors.Is(err, context.DeadlineExceeded):
		status = StatusFailed
		errMsg = "deadline exceeded"
	default:
		status = StatusFailed
		errMsg = err.Error()
	}
	j.mu.Lock()
	clusters := j.clusters
	queuedFor, ranFor := j.queuedFor, j.ranFor
	attempts := j.attempts
	subtrees := j.subtrees
	j.mu.Unlock()

	res := cachedResult{clusters: clusters, stats: stats, subtrees: subtrees}
	switch status {
	case StatusDone:
		m.metrics.JobsFinished.Add(1)
		m.metrics.NodesVisited.Add(int64(stats.Nodes))
		m.cache.put(key, res)
	case StatusCancelled:
		if !shed { // JobsShed was counted by the shedder
			m.metrics.JobsCancelled.Add(1)
		}
	case StatusFailed:
		if perr != nil {
			m.metrics.PanicsRecovered.Add(1)
			m.logf("service: job %s failed on a contained worker panic: %v", j.ID, perr.Value)
		}
		m.metrics.JobsFailed.Add(1)
	}
	// Usage accounting: interrupted jobs settle for real after the next boot's
	// resume, so only truly terminal outcomes contribute to the ledger (a
	// restart would otherwise double-count the resumed prefix).
	charged := status != StatusInterrupted
	if charged {
		j.tn.account(jobUsageDelta(status, shed, stats, len(clusters), ranFor))
	}
	j.tn.nodes.Release(j.nodeCost)

	finished := time.Now().UTC()
	j.queueSpan.End() // still open when the job never took a slot
	if j.root != nil {
		j.root.SetAttr("status", string(status))
		if errMsg != "" {
			j.root.SetAttr("error", errMsg)
		}
		j.root.End()
	}
	if total := finished.Sub(j.created); m.slowJob > 0 && total > m.slowJob {
		m.log.Warn("slow job",
			"job", j.ID,
			"status", string(status),
			"total_ms", total.Milliseconds(),
			"queue_ms", queuedFor.Milliseconds(),
			"run_ms", ranFor.Milliseconds(),
			"attempts", attempts,
			"clusters", len(clusters),
			"nodes", stats.Nodes,
		)
	}

	j.mu.Lock()
	j.stats = stats
	j.finished = finished
	j.status = status
	j.err = errMsg
	j.shed = shed
	if perr != nil {
		j.stack = string(perr.Stack)
	}
	j.bump()
	close(j.done)
	j.mu.Unlock()

	switch status {
	case StatusDone:
		if m.store != nil {
			if err := m.store.saveResult(key, res); err != nil {
				m.logf("service: persist result of %s: %v", j.ID, err)
			}
		}
		st := stats
		m.journalAppend(journalRecord{Type: recDone, Job: j.ID, CacheKey: key, Stats: &st})
	case StatusCancelled:
		if shed {
			// Shed evictions are journaled with their own terminal record so a
			// restart neither resurrects them nor miscounts them as caller
			// cancellations.
			m.journalAppend(journalRecord{Type: recShed, Job: j.ID})
		} else {
			m.journalAppend(journalRecord{Type: recCancelled, Job: j.ID})
		}
	case StatusFailed:
		m.journalAppend(journalRecord{Type: recFailed, Job: j.ID, Error: errMsg})
	}
	if charged {
		m.journalUsage(j.tn)
	}
}

// get returns the job with the given ID.
func (m *jobManager) get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// list returns every job in submission order.
func (m *jobManager) list() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// cancelJob requests cooperative cancellation. Cancelling a terminal job is
// a no-op; the returned bool reports whether the job exists.
func (m *jobManager) cancelJob(id string) (*Job, bool) {
	j, ok := m.get(id)
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return j, true
}

// runningCount returns the number of jobs currently holding a mining slot.
func (m *jobManager) runningCount() int { return m.sched.runningSlots() }

// stop ends every job before the server's durable resources go away: unless
// a drain already returned, it drains with an expired grace period, so
// running jobs are cancelled (interrupted, on a durable server) and awaited,
// settlement writes included.
func (m *jobManager) stop() {
	m.mu.Lock()
	drained := m.drained
	m.mu.Unlock()
	if drained {
		return
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = m.drain(expired)
}

// isClosed reports whether drain has begun: the manager no longer accepts
// submissions, so readiness probes should steer traffic elsewhere.
func (m *jobManager) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// queuedOrRunning returns the number of non-terminal jobs.
func (m *jobManager) queuedOrRunning() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, j := range m.jobs {
		if !j.Status().terminal() {
			n++
		}
	}
	return n
}

// drain stops accepting new jobs and waits for in-flight ones. While ctx is
// live the running jobs finish naturally; once it expires they are cancelled
// and drain waits for the cooperative stop (prompt: miners observe
// cancellation at every node boundary). On a durable server a job cancelled
// by the expiring grace period settles as interrupted — it journals no
// terminal record, so the next boot resumes it from its last checkpoint
// record — rather than as a dead-end cancellation.
func (m *jobManager) drain(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		m.running.Wait()
		close(finished)
	}()
	defer func() {
		m.mu.Lock()
		m.drained = true
		m.mu.Unlock()
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
	}
	m.draining.Store(true)
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	for _, j := range jobs {
		j.mu.Lock()
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	<-finished
	return ctx.Err()
}
