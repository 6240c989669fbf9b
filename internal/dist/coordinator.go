package dist

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/matrix"
	"regcluster/internal/obs"
)

// DatasetSource resolves a content hash to a matrix for replication. The
// service's registry satisfies it; tests use a map.
type DatasetSource interface {
	Dataset(id string) (*matrix.Matrix, bool)
}

// Config tunes a Coordinator. The zero value is usable.
type Config struct {
	// LeaseTTL is how long a lease survives without a heartbeat before it
	// is revoked and its subtree put back in its run's queue. Default 5s.
	LeaseTTL time.Duration
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

// Coordinator is the lease layer of distributed mining runs. A core.MineWith
// run shares its queue of level-1 subtree roots through the hook Share
// returns; the coordinator takes roots from it for the workers that poll for
// leases, enforces heartbeat TTLs, appends the clusters each heartbeat ships
// to the run's buffer for that root, and puts a root back when its lease
// lapses or is rejected. The run's engine merges those subtrees exactly as
// it merges its local workers', so the output is byte-identical to a
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

// run is one mining run whose subtree queue is shared with the coordinator.
type run struct {
	id      string
	job     string
	dataset string
	p       core.Params
	span    *obs.Span
	q       *core.SubtreeQueue
	nacks   map[int]int // explicit rejections per subtree
}

// leaseState is one outstanding lease. All fields are guarded by
// Coordinator.mu.
type leaseState struct {
	id       string
	run      *run
	cond     int
	worker   string
	skip     int // clusters buffered when issued
	received int // clusters buffered now: skip plus every accepted batch
	expires  time.Time
	span     *obs.Span
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

// Share returns the core.Options.Share hook of one mining run: while the run
// lasts, the workers polling this coordinator lease its queued subtrees. job
// labels the run's events, dataset is the content hash the workers replicate,
// p the Params they mine with, and sp parents the lease spans.
func (c *Coordinator) Share(job, dataset string, p core.Params, sp *obs.Span) func(*core.SubtreeQueue) func() {
	return func(q *core.SubtreeQueue) func() {
		r := &run{job: job, dataset: dataset, p: p, span: sp, q: q, nacks: make(map[int]int)}
		c.mu.Lock()
		c.runSeq++
		r.id = fmt.Sprintf("run-%06d", c.runSeq)
		c.runs[r.id] = r
		c.mu.Unlock()
		c.logf("dist: run %s job %q shares its subtree queue", r.id, job)
		stop, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			c.revoker(stop, r)
		}()
		return func() {
			close(stop)
			<-stopped
			c.finishRun(r)
		}
	}
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

// take issues worker a lease on the next queued subtree, scanning runs in id
// order for determinism. Returns nil when no run has a subtree queued.
func (c *Coordinator) take(worker string) *leaseState {
	c.mu.Lock()
	ids := make([]string, 0, len(c.runs))
	for id := range c.runs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		r := c.runs[id]
		cond, buffered, ok := r.q.Take()
		if !ok {
			continue
		}
		c.leaseSeq++
		ls := &leaseState{
			id:       fmt.Sprintf("lease-%06d", c.leaseSeq),
			run:      r,
			cond:     cond,
			worker:   worker,
			skip:     buffered,
			received: buffered,
			expires:  time.Now().Add(c.ttl()),
		}
		if sp := r.span.Start("lease"); sp != nil {
			sp.SetAttr("lease", ls.id)
			sp.SetAttr("worker", worker)
			sp.SetInt("cond", int64(cond))
			sp.SetInt("skip", int64(ls.skip))
			ls.span = sp
		}
		c.leases[ls.id] = ls
		c.issued.Add(1)
		ev := Event{Kind: EventLeaseIssued, Worker: worker, Job: r.job, Lease: ls.id, Cond: cond, Skip: ls.skip}
		c.mu.Unlock()
		c.notify(ev)
		return ls
	}
	c.mu.Unlock()
	return nil
}

// wire renders a leaseState as the Lease handed to its holder.
func (c *Coordinator) wire(ls *leaseState) *Lease {
	return &Lease{
		ID:      ls.id,
		Run:     ls.run.id,
		Dataset: ls.run.dataset,
		Params:  ls.run.p,
		Cond:    ls.cond,
		Skip:    ls.skip,
		TTLMS:   c.ttl().Milliseconds(),
	}
}

// revokeLocked drops ls and puts its subtree back at the front of the run's
// queue; what the run already received stays buffered, so the next holder
// resumes from there. Caller holds c.mu.
func (c *Coordinator) revokeLocked(ls *leaseState, reason string) Event {
	delete(c.leases, ls.id)
	ls.run.q.Requeue(ls.cond)
	c.reassigned.Add(1)
	if ls.span != nil {
		ls.span.SetAttr("reason", reason)
	}
	endLeaseSpan(ls, "revoked")
	return Event{Kind: EventLeaseReassigned, Worker: ls.worker, Job: ls.run.job, Lease: ls.id,
		Cond: ls.cond, Skip: ls.received, Reason: reason}
}

// progress applies one heartbeat: batch append with watermark verification,
// TTL extension, completion, or nack.
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
	r := ls.run

	if req.Error != "" { // worker rejects the lease
		ev := c.revokeLocked(ls, req.Error)
		r.nacks[ls.cond]++
		if n := r.nacks[ls.cond]; n >= c.maxFailures() {
			r.q.Fail(fmt.Errorf("dist: subtree %d rejected %d times, last: %s", ls.cond, n, req.Error))
		}
		c.mu.Unlock()
		c.logf("dist: lease %s (cond %d) nacked by %s: %s", req.Lease, ls.cond, req.Worker, req.Error)
		c.notify(ev)
		return heartbeatResponse{OK: true}
	}

	var final *core.Stats
	if req.Done {
		if req.Stats == nil || req.Stats.Truncated {
			// A final heartbeat without complete isolated Stats cannot be merged.
			ev := c.revokeLocked(ls, "incomplete final heartbeat")
			c.mu.Unlock()
			c.notify(ev)
			return heartbeatResponse{Revoked: true}
		}
		final = req.Stats
	}
	if req.Ckpt.Cond != ls.cond || !r.q.Append(ls.cond, req.Ckpt.Delivered, req.Clusters, final) {
		// A shipment that does not extend the received prefix exactly —
		// replayed, reordered, or from a confused holder. Revoke; the
		// subtree is re-leased from the watermark that did verify.
		ev := c.revokeLocked(ls, "watermark mismatch")
		c.mu.Unlock()
		c.logf("dist: lease %s (cond %d): watermark %d/%d does not extend received %d",
			req.Lease, ls.cond, req.Ckpt.Delivered, len(req.Clusters), ev.Skip)
		c.notify(ev)
		return heartbeatResponse{Revoked: true}
	}
	ls.received += len(req.Clusters)
	ls.expires = now.Add(c.ttl())
	if ls.span != nil && len(req.Clusters) > 0 {
		ls.span.Add("clusters", int64(len(req.Clusters)))
	}
	if final == nil {
		c.mu.Unlock()
		return heartbeatResponse{OK: true}
	}
	delete(c.leases, ls.id)
	endLeaseSpan(ls, "completed")
	c.completed.Add(1)
	ev := Event{Kind: EventLeaseCompleted, Worker: req.Worker, Job: r.job, Lease: ls.id,
		Cond: ls.cond, Skip: ls.received}
	c.mu.Unlock()
	c.notify(ev)
	return heartbeatResponse{OK: true}
}

// revoker expires the run's leases whose holders stopped heartbeating,
// until stop closes.
func (c *Coordinator) revoker(stop <-chan struct{}, r *run) {
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
		case <-stop:
			return
		case <-t.C:
		}
		now := time.Now()
		var evs []Event
		c.mu.Lock()
		for _, ls := range c.leases {
			if ls.run == r && now.After(ls.expires) {
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
		if ls = c.take(req.Worker); ls != nil {
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
