package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/faultinject"
	"regcluster/internal/matrix"
	"regcluster/internal/obs"
	"regcluster/internal/rwave"
)

// DatasetSource resolves a content hash to a matrix for replication. The
// service's registry satisfies it; tests use a map.
type DatasetSource interface {
	Dataset(id string) (*matrix.Matrix, bool)
}

// Config tunes a Coordinator. The zero value is usable.
type Config struct {
	// LeaseTTL is how long a remote lease survives without a heartbeat
	// before it is revoked and re-queued. Default 5s.
	LeaseTTL time.Duration
	// LocalWorkers is the number of in-process mining loops each run gets
	// when MineRequest does not override it: 0 means 1 (a coordinator can
	// always make progress alone), negative means none (remote workers
	// only).
	LocalWorkers int
	// MaxUnitFailures bounds explicit worker rejections (nacks) of one
	// subtree before the whole run fails. Default 3. TTL expiries do not
	// count — a dead worker says nothing about the unit.
	MaxUnitFailures int
	// Datasets serves replicas for GET /dist/datasets/{id}.
	Datasets DatasetSource
	// Events, when set, observes worker and lease lifecycle transitions.
	// Called without internal locks held; must be safe for concurrent use.
	Events func(Event)
	// Logf, when set, receives debug lines.
	Logf func(format string, args ...any)
}

// Coordinator owns the distributed side of mining runs: it turns each run
// into per-condition subtree work units, leases them to workers (remote over
// HTTP, or in-process loops), enforces heartbeat TTLs, and folds completed
// units through a core.SubtreeMerger so the output is byte-identical to a
// single-node run. One Coordinator serves any number of concurrent runs.
type Coordinator struct {
	cfg Config

	mu        sync.Mutex
	runs      map[string]*run
	leases    map[string]*leaseState
	workers   map[string]*workerInfo
	runSeq    int
	leaseSeq  int
	workerSeq int

	joined     atomic.Int64
	issued     atomic.Int64
	reassigned atomic.Int64
	completed  atomic.Int64
}

type workerInfo struct {
	id       string
	name     string
	lastSeen time.Time
}

// run is one distributed mining attempt (one jobManager.mine call).
type run struct {
	id      string
	job     string
	dataset string
	m       *matrix.Matrix
	p       core.Params
	models  *rwave.Set
	ctx     context.Context
	span    *obs.Span

	queue []int         // undispatched subtree conditions, dispatch order
	units map[int]*unit // every subtree of this run, keyed by condition

	completed chan int   // conditions whose unit just completed (buffered)
	failed    chan error // first fatal unit error (buffered 1)
}

func (r *run) fail(err error) {
	select {
	case r.failed <- err:
	default:
	}
}

// unit is one subtree work item. All fields are guarded by Coordinator.mu
// until complete is set; after that the run goroutine owns received/stats.
type unit struct {
	cond     int
	received []core.SubtreeCluster // verified prefix of the subtree's clusters
	stats    core.Stats
	complete bool
	leaseID  string // current lease, "" when queued or complete
	failures int    // explicit nacks
}

type leaseState struct {
	id      string
	run     *run
	unit    *unit
	worker  string
	local   bool // in-process lease: exempt from TTL expiry
	skip    int  // received watermark when issued
	expires time.Time
	span    *obs.Span
}

// NewCoordinator builds a Coordinator from cfg.
func NewCoordinator(cfg Config) *Coordinator {
	return &Coordinator{
		cfg:     cfg,
		runs:    make(map[string]*run),
		leases:  make(map[string]*leaseState),
		workers: make(map[string]*workerInfo),
	}
}

func (c *Coordinator) ttl() time.Duration {
	if c.cfg.LeaseTTL > 0 {
		return c.cfg.LeaseTTL
	}
	return 5 * time.Second
}

func (c *Coordinator) maxFailures() int {
	if c.cfg.MaxUnitFailures > 0 {
		return c.cfg.MaxUnitFailures
	}
	return 3
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

func (c *Coordinator) notify(ev Event) {
	if c.cfg.Events != nil {
		c.cfg.Events(ev)
	}
}

// WorkersConnected counts workers heard from within the last three TTLs.
func (c *Coordinator) WorkersConnected() int {
	cutoff := time.Now().Add(-3 * c.ttl())
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.workers {
		if w.lastSeen.After(cutoff) {
			n++
		}
	}
	return n
}

// ActiveLeases counts currently outstanding leases across all runs.
func (c *Coordinator) ActiveLeases() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.leases)
}

// Counters returns the lifetime worker/lease counters for metrics export.
func (c *Coordinator) Counters() (joined, issued, reassigned, completed int64) {
	return c.joined.Load(), c.issued.Load(), c.reassigned.Load(), c.completed.Load()
}

// MineRequest describes one distributed mining run.
type MineRequest struct {
	Job       string         // host-side job id, for events and lease spans
	Matrix    *matrix.Matrix // the dataset (coordinator-side copy)
	DatasetID string         // content hash workers replicate by
	Params    core.Params
	Models    *rwave.Set            // optional prebuilt RWave model set
	Resume    *core.Checkpoint      // optional resume position
	Ck        core.CheckpointConfig // checkpoint emission, as Options.Checkpoint of core.MineWith
	Span      *obs.Span             // optional trace parent
	// LocalWorkers overrides Config.LocalWorkers for this run when nonzero
	// (negative means none).
	LocalWorkers int
}

// Mine runs req distributed and streams merged clusters to visit in exact
// sequential order. It blocks until the run settles and returns Stats
// byte-identical to a single-node core.MineWith of the same request
// (Resume, Checkpoint and Models included), regardless of worker count,
// placement, or mid-run worker loss. A panic on a local mining loop fails
// the run with a *core.PanicError.
func (c *Coordinator) Mine(ctx context.Context, req MineRequest, visit core.Visitor) (core.Stats, error) {
	if req.Matrix == nil {
		return core.Stats{}, fmt.Errorf("dist: MineRequest requires a matrix")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	models := req.Models
	if models == nil {
		var err error
		if models, err = core.BuildModels(req.Matrix, req.Params, nil); err != nil {
			return core.Stats{}, err
		}
	}
	merger, err := core.NewSubtreeMerger(ctx, req.Matrix, req.Params, models, visit, req.Resume, req.Ck)
	if err != nil {
		return core.Stats{}, err
	}
	merger.SetSpan(req.Span)
	if merger.Done() { // checkpoint already covers the whole run
		return merger.Result()
	}
	order, err := core.SubtreeOrder(req.Matrix, req.Params, models)
	if err != nil {
		return core.Stats{}, err
	}

	runCtx, cancel := context.WithCancel(ctx)
	r := c.startRun(runCtx, req, models, merger.NextCond(), order)
	var wg sync.WaitGroup
	defer func() {
		cancel()
		c.finishRun(r)
		wg.Wait()
	}()

	nLocal := req.LocalWorkers
	if nLocal == 0 {
		nLocal = c.cfg.LocalWorkers
	}
	if nLocal == 0 {
		nLocal = 1
	}
	for i := 0; i < nLocal; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.localWorker(runCtx, r)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.revoker(runCtx, r)
	}()

	for !merger.Done() {
		select {
		case cond := <-r.completed:
			c.mu.Lock()
			u := r.units[cond]
			part := &core.SubtreePartial{Cond: cond, Clusters: u.received, Stats: u.stats}
			c.mu.Unlock()
			if _, err := merger.Offer(part); err != nil {
				return core.Stats{}, err
			}
		case err := <-r.failed:
			return core.Stats{}, err
		case <-ctx.Done():
			return core.Stats{}, ctx.Err()
		}
	}
	return merger.Result()
}

func (c *Coordinator) startRun(ctx context.Context, req MineRequest, models *rwave.Set, start int, order []int) *run {
	queue := make([]int, 0, len(order))
	for _, cond := range order {
		if cond >= start {
			queue = append(queue, cond)
		}
	}
	units := make(map[int]*unit, len(queue))
	for _, cond := range queue {
		units[cond] = &unit{cond: cond}
	}
	r := &run{
		job:       req.Job,
		dataset:   req.DatasetID,
		m:         req.Matrix,
		p:         req.Params,
		models:    models,
		ctx:       ctx,
		span:      req.Span,
		queue:     queue,
		units:     units,
		completed: make(chan int, len(queue)+1),
		failed:    make(chan error, 1),
	}
	c.mu.Lock()
	c.runSeq++
	r.id = fmt.Sprintf("run-%06d", c.runSeq)
	c.runs[r.id] = r
	c.mu.Unlock()
	c.logf("dist: run %s job %q: %d subtree units", r.id, r.job, len(queue))
	return r
}

func (c *Coordinator) finishRun(r *run) {
	c.mu.Lock()
	delete(c.runs, r.id)
	for id, ls := range c.leases {
		if ls.run == r {
			delete(c.leases, id)
			endLeaseSpan(ls, "run_finished")
		}
	}
	c.mu.Unlock()
}

func endLeaseSpan(ls *leaseState, outcome string) {
	if ls.span == nil {
		return
	}
	ls.span.SetAttr("outcome", outcome)
	ls.span.End()
}

// take issues the next queued subtree lease to worker. When only is non-nil
// the search is restricted to that run (local loops serve their own run);
// otherwise runs are scanned in id order for determinism. Returns nil when
// no work is available right now.
func (c *Coordinator) take(worker string, local bool, only *run) *leaseState {
	now := time.Now()
	c.mu.Lock()
	var r *run
	if only != nil {
		if only.ctx.Err() == nil && len(only.queue) > 0 {
			r = only
		}
	} else {
		ids := make([]string, 0, len(c.runs))
		for id := range c.runs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			cand := c.runs[id]
			if cand.ctx.Err() == nil && len(cand.queue) > 0 {
				r = cand
				break
			}
		}
	}
	if r == nil {
		c.mu.Unlock()
		return nil
	}
	cond := r.queue[0]
	r.queue = r.queue[1:]
	u := r.units[cond]
	c.leaseSeq++
	ls := &leaseState{
		id:      fmt.Sprintf("lease-%06d", c.leaseSeq),
		run:     r,
		unit:    u,
		worker:  worker,
		local:   local,
		skip:    len(u.received),
		expires: now.Add(c.ttl()),
	}
	if sp := r.span.Start("lease"); sp != nil {
		sp.SetAttr("lease", ls.id)
		sp.SetAttr("worker", worker)
		sp.SetInt("cond", int64(cond))
		sp.SetInt("skip", int64(ls.skip))
		ls.span = sp
	}
	u.leaseID = ls.id
	c.leases[ls.id] = ls
	c.issued.Add(1)
	ev := Event{Kind: EventLeaseIssued, Worker: worker, Job: r.job, Lease: ls.id, Cond: cond, Skip: ls.skip}
	c.mu.Unlock()
	c.notify(ev)
	return ls
}

// wire renders a leaseState as the Lease handed to its holder.
func (c *Coordinator) wire(ls *leaseState) *Lease {
	return &Lease{
		ID:      ls.id,
		Run:     ls.run.id,
		Dataset: ls.run.dataset,
		Params:  ls.run.p,
		Cond:    ls.unit.cond,
		Skip:    ls.skip,
		TTLMS:   c.ttl().Milliseconds(),
	}
}

// revokeLocked drops ls and re-queues its unit at the front of the run's
// queue with the verified watermark preserved, so the next holder resumes
// from what the coordinator already received. Caller holds c.mu.
func (c *Coordinator) revokeLocked(ls *leaseState, reason string) Event {
	delete(c.leases, ls.id)
	u, r := ls.unit, ls.run
	u.leaseID = ""
	r.queue = append([]int{u.cond}, r.queue...)
	c.reassigned.Add(1)
	if ls.span != nil {
		ls.span.SetAttr("reason", reason)
	}
	endLeaseSpan(ls, "revoked")
	return Event{Kind: EventLeaseReassigned, Worker: ls.worker, Job: r.job, Lease: ls.id,
		Cond: u.cond, Skip: len(u.received), Reason: reason}
}

// progress applies one heartbeat: batch append with watermark verification,
// TTL extension, completion, or nack. It is the single merge entry point for
// local and remote workers alike.
func (c *Coordinator) progress(req heartbeatRequest) heartbeatResponse {
	now := time.Now()
	c.mu.Lock()
	if w := c.workers[req.Worker]; w != nil {
		w.lastSeen = now
	}
	ls, ok := c.leases[req.Lease]
	if !ok {
		c.mu.Unlock()
		return heartbeatResponse{Revoked: true}
	}
	r, u := ls.run, ls.unit

	if req.Error != "" { // worker rejects the lease
		ev := c.revokeLocked(ls, req.Error)
		u.failures++
		failed := u.failures >= c.maxFailures()
		var runErr error
		if failed {
			runErr = fmt.Errorf("dist: subtree %d rejected %d times, last: %s", u.cond, u.failures, req.Error)
		}
		c.mu.Unlock()
		c.logf("dist: lease %s (cond %d) nacked by %s: %s", req.Lease, u.cond, req.Worker, req.Error)
		c.notify(ev)
		if failed {
			r.fail(runErr)
		}
		return heartbeatResponse{OK: true}
	}

	if req.Ckpt.Cond != u.cond || req.Ckpt.Delivered != len(u.received)+len(req.Clusters) {
		// A shipment that does not extend the verified prefix exactly —
		// replayed, reordered, or from a confused holder. Revoke; the unit
		// is re-leased from the watermark that did verify.
		ev := c.revokeLocked(ls, "watermark mismatch")
		c.mu.Unlock()
		c.logf("dist: lease %s (cond %d): watermark %d/%d does not extend received %d",
			req.Lease, u.cond, req.Ckpt.Delivered, len(req.Clusters), ev.Skip)
		c.notify(ev)
		return heartbeatResponse{Revoked: true}
	}

	u.received = append(u.received, req.Clusters...)
	ls.expires = now.Add(c.ttl())
	if ls.span != nil && len(req.Clusters) > 0 {
		ls.span.Add("clusters", int64(len(req.Clusters)))
	}
	if !req.Done {
		c.mu.Unlock()
		return heartbeatResponse{OK: true}
	}

	if req.Stats == nil || req.Stats.Truncated {
		// A final heartbeat without complete isolated Stats cannot be merged.
		ev := c.revokeLocked(ls, "incomplete final heartbeat")
		c.mu.Unlock()
		c.notify(ev)
		return heartbeatResponse{Revoked: true}
	}
	u.stats = *req.Stats
	u.complete = true
	u.leaseID = ""
	delete(c.leases, ls.id)
	endLeaseSpan(ls, "completed")
	c.completed.Add(1)
	ev := Event{Kind: EventLeaseCompleted, Worker: req.Worker, Job: r.job, Lease: ls.id,
		Cond: u.cond, Skip: len(u.received)}
	c.mu.Unlock()
	c.notify(ev)
	r.completed <- u.cond // buffered to unit count; never blocks
	return heartbeatResponse{OK: true}
}

// revoker expires remote leases whose holders stopped heartbeating.
func (c *Coordinator) revoker(ctx context.Context, r *run) {
	tick := c.ttl() / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		now := time.Now()
		var evs []Event
		c.mu.Lock()
		for _, ls := range c.leases {
			if ls.run != r || ls.local {
				continue
			}
			if now.After(ls.expires) {
				evs = append(evs, c.revokeLocked(ls, "expired"))
			}
		}
		c.mu.Unlock()
		for _, ev := range evs {
			c.logf("dist: lease %s (cond %d) held by %s expired; re-queued at skip %d",
				ev.Lease, ev.Cond, ev.Worker, ev.Skip)
			c.notify(ev)
		}
	}
}

// localWorker is one in-process mining loop bound to a single run. Local
// leases go through the same lease/heartbeat machinery as remote ones, so
// there is exactly one merge path.
func (c *Coordinator) localWorker(ctx context.Context, r *run) {
	for ctx.Err() == nil {
		ls := c.take("local", true, r)
		if ls == nil {
			select {
			case <-ctx.Done():
				return
			case <-time.After(2 * time.Millisecond):
			}
			continue
		}
		c.mineLocal(ctx, r, ls)
	}
}

// mineLocal mines one leased subtree in process. A miner panic is contained
// here, never crossing the goroutine: the run fails with a *core.PanicError
// carrying the panicking goroutine's stack, as the in-process engine's does.
func (c *Coordinator) mineLocal(ctx context.Context, r *run, ls *leaseState) {
	defer func() {
		if v := recover(); v != nil {
			r.fail(&core.PanicError{Value: v, Stack: debug.Stack()})
		}
	}()
	_ = faultinject.Hook("core.mine.subtree") // panic/delay injection for containment tests
	var batch []core.SubtreeCluster
	emitted := 0
	stats, err := core.MineSubtreeFunc(ctx, r.m, r.p, ls.unit.cond, r.models, func(sc core.SubtreeCluster) bool {
		emitted++
		if emitted <= ls.skip {
			return true
		}
		batch = append(batch, sc)
		return true
	})
	if err != nil { // context cancelled: release the lease, keep the unit re-issuable
		c.mu.Lock()
		var ev Event
		emit := false
		if cur := c.leases[ls.id]; cur == ls {
			ev = c.revokeLocked(ls, "cancelled")
			emit = true
		}
		c.mu.Unlock()
		if emit {
			c.notify(ev)
		}
		return
	}
	c.progress(heartbeatRequest{
		Worker:   ls.worker,
		Lease:    ls.id,
		Clusters: batch,
		Ckpt:     SubtreeCheckpoint{Cond: ls.unit.cond, Delivered: ls.skip + len(batch)},
		Done:     true,
		Stats:    &stats,
	})
}

// Routes registers the coordinator's HTTP surface on mux.
func (c *Coordinator) Routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /dist/register", c.handleRegister)
	mux.HandleFunc("POST /dist/lease", c.handleLease)
	mux.HandleFunc("POST /dist/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("GET /dist/datasets/{id}", c.handleDataset)
}

func distJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	c.workerSeq++
	wi := &workerInfo{id: fmt.Sprintf("w-%06d", c.workerSeq), name: req.Name, lastSeen: time.Now()}
	c.workers[wi.id] = wi
	c.mu.Unlock()
	c.joined.Add(1)
	c.logf("dist: worker %s joined (%s)", wi.id, req.Name)
	c.notify(Event{Kind: EventWorkerJoined, Worker: wi.id, Addr: req.Name})
	distJSON(w, http.StatusOK, registerResponse{Worker: wi.id, HeartbeatMS: (c.ttl() / 3).Milliseconds()})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait < 0 {
		wait = 0
	}
	if wait > 30*time.Second {
		wait = 30 * time.Second
	}
	c.touch(req.Worker)
	deadline := time.Now().Add(wait)
	var ls *leaseState
	for {
		if ls = c.take(req.Worker, false, nil); ls != nil {
			break
		}
		if r.Context().Err() != nil || !time.Now().Before(deadline) {
			break
		}
		select {
		case <-r.Context().Done():
		case <-time.After(25 * time.Millisecond):
		}
	}
	resp := leaseResponse{}
	if ls != nil {
		resp.Lease = c.wire(ls)
	}
	distJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) touch(worker string) {
	c.mu.Lock()
	if w := c.workers[worker]; w != nil {
		w.lastSeen = time.Now()
	}
	c.mu.Unlock()
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	distJSON(w, http.StatusOK, c.progress(req))
}

func (c *Coordinator) handleDataset(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if c.cfg.Datasets == nil {
		http.Error(w, "no dataset source", http.StatusNotFound)
		return
	}
	m, ok := c.cfg.Datasets.Dataset(id)
	if !ok {
		http.Error(w, "unknown dataset", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := w.Write(m.AppendCanonical(nil)); err != nil {
		c.logf("dist: replicating %s: %v", id, err)
	}
}
