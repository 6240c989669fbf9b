package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/faultinject"
	"regcluster/internal/matrix"
	"regcluster/internal/rwave"
)

// WorkerConfig tunes a worker agent.
type WorkerConfig struct {
	Coordinator string // base URL of the coordinator, e.g. http://host:8080
	Name        string // advertised name (host:port or any label)
	Slots       int    // concurrent subtree leases to hold; default 1
	Client      *http.Client
	Logf        func(format string, args ...any)
}

// errLeaseRevoked reports that the coordinator no longer recognises the
// lease a heartbeat was for — the unit has moved on without us.
var errLeaseRevoked = errors.New("dist: lease revoked")

// Worker is the agent side of the protocol: it registers with a
// coordinator, long-polls for subtree leases, replicates datasets by
// content hash (verifying the bytes actually hash to the advertised id
// before mining them), mines each leased subtree uncapped, and ships
// clusters back in heartbeat batches carrying a subtree checkpoint.
type Worker struct {
	cfg    WorkerConfig
	client *http.Client

	mu       sync.Mutex
	id       string
	hb       time.Duration
	datasets recent[*matrix.Matrix] // verified replicas by content hash
	models   recent[*rwave.Set]     // model sets by core.ModelKey

	// Lifetime counters, exported for tests and diagnostics.
	Completed  atomic.Int64 // subtrees mined to a successful final heartbeat
	Abandoned  atomic.Int64 // leases given up (revoked, cancelled, or simulated death)
	Nacked     atomic.Int64 // leases rejected before mining (bad replica, bad params)
	Replicated atomic.Int64 // datasets fetched and hash-verified
}

// NewWorker builds a worker agent from cfg.
func NewWorker(cfg WorkerConfig) *Worker {
	w := &Worker{cfg: cfg, client: cfg.Client}
	if w.client == nil {
		w.client = &http.Client{}
	}
	return w
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// ID returns the coordinator-assigned worker id (empty before registration).
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// Run registers with the coordinator (retrying until ctx is cancelled) and
// serves leases until ctx is cancelled. A cancelled context is a clean stop
// and returns nil; any lease in flight at that moment is abandoned and will
// be re-issued by the coordinator after its TTL.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	slots := w.cfg.Slots
	if slots <= 0 {
		slots = 1
	}
	var wg sync.WaitGroup
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(ctx)
		}()
	}
	wg.Wait()
	return nil
}

func (w *Worker) register(ctx context.Context) error {
	backoff := 100 * time.Millisecond
	for {
		resp, err := postJSON[registerResponse](ctx, w.client, w.cfg.Coordinator+"/dist/register",
			registerRequest{Name: w.cfg.Name})
		if err == nil {
			hb := time.Duration(resp.HeartbeatMS) * time.Millisecond
			if hb <= 0 {
				hb = time.Second
			}
			w.mu.Lock()
			w.id, w.hb = resp.Worker, hb
			w.mu.Unlock()
			w.logf("dist: registered as %s with %s", resp.Worker, w.cfg.Coordinator)
			return nil
		}
		w.logf("dist: register with %s: %v (retrying)", w.cfg.Coordinator, err)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

func (w *Worker) loop(ctx context.Context) {
	for ctx.Err() == nil {
		resp, err := postJSON[leaseResponse](ctx, w.client, w.cfg.Coordinator+"/dist/lease",
			leaseRequest{Worker: w.ID(), WaitMS: 2000})
		if err != nil {
			select {
			case <-ctx.Done():
				return
			case <-time.After(200 * time.Millisecond):
			}
			continue
		}
		if resp.Lease == nil {
			continue
		}
		w.process(ctx, resp.Lease)
	}
}

// process serves one lease end to end: replicate + verify the dataset,
// build (or reuse) the RWave models, mine the subtree uncapped, and ship
// clusters in heartbeat batches with the first lease.Skip suppressed.
func (w *Worker) process(ctx context.Context, lease *Lease) {
	mat, err := w.replica(ctx, lease.Dataset)
	if err != nil {
		w.logf("dist: lease %s: %v", lease.ID, err)
		w.Nacked.Add(1)
		w.nack(ctx, lease, err)
		return
	}
	models, err := w.modelsFor(mat, lease)
	if err != nil {
		w.logf("dist: lease %s: models: %v", lease.ID, err)
		w.Nacked.Add(1)
		w.nack(ctx, lease, err)
		return
	}

	mctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		bufMu   sync.Mutex
		buf     []core.SubtreeCluster
		flushMu sync.Mutex
		shipped = lease.Skip
		revoked atomic.Bool
	)
	// flush ships everything buffered so far as one heartbeat. The subtree
	// checkpoint watermark commits the batch: the coordinator accepts it
	// only if it extends the prefix it already verified.
	flush := func(done bool, stats *core.Stats) error {
		flushMu.Lock()
		defer flushMu.Unlock()
		bufMu.Lock()
		batch := buf
		buf = nil
		bufMu.Unlock()
		resp, err := postJSON[heartbeatResponse](ctx, w.client, w.cfg.Coordinator+"/dist/heartbeat",
			heartbeatRequest{
				Worker:   w.ID(),
				Lease:    lease.ID,
				Clusters: batch,
				Ckpt:     SubtreeCheckpoint{Cond: lease.Cond, Delivered: shipped + len(batch)},
				Done:     done,
				Stats:    stats,
			})
		if err != nil {
			bufMu.Lock()
			buf = append(batch, buf...) // unshipped; retry in order next time
			bufMu.Unlock()
			return err
		}
		shipped += len(batch)
		if resp.Revoked {
			revoked.Store(true)
			return errLeaseRevoked
		}
		return nil
	}

	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		w.mu.Lock()
		interval := w.hb
		w.mu.Unlock()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-mctx.Done():
				return
			case <-t.C:
			}
			if err := flush(false, nil); err != nil {
				if revoked.Load() {
					cancel() // the unit moved on; stop mining it
					return
				}
				// Transient transport failure: batches stay buffered and the
				// next tick retries. If the outage outlives the TTL the
				// coordinator re-leases — that is the recovery path.
			}
		}
	}()

	emitted := 0
	aborted := false
	stats, err := core.MineSubtreeFunc(mctx, mat, lease.Params, lease.Cond, models, func(sc core.SubtreeCluster) bool {
		if ferr := faultinject.Hook("dist.worker.mine"); ferr != nil {
			aborted = true // simulated mid-lease death: vanish without a nack
			return false
		}
		emitted++
		if emitted <= lease.Skip {
			return true
		}
		bufMu.Lock()
		buf = append(buf, sc)
		bufMu.Unlock()
		return true
	})
	close(hbStop)
	hbWG.Wait()

	if aborted || revoked.Load() || err != nil || stats.Truncated {
		// Abandon silently: no final heartbeat, no nack. The coordinator's
		// TTL revocation re-queues the unit at the shipped watermark.
		w.Abandoned.Add(1)
		return
	}
	var ferr error
	for attempt := 0; attempt < 3; attempt++ {
		if ferr = flush(true, &stats); ferr == nil {
			w.Completed.Add(1)
			return
		}
		if revoked.Load() || ctx.Err() != nil {
			break
		}
		time.Sleep(50 * time.Millisecond << attempt)
	}
	w.Abandoned.Add(1)
	w.logf("dist: lease %s: final heartbeat failed: %v", lease.ID, ferr)
}

// nack rejects a lease the worker cannot serve, returning it to the queue
// immediately instead of waiting out the TTL.
func (w *Worker) nack(ctx context.Context, lease *Lease, cause error) {
	_, err := postJSON[heartbeatResponse](ctx, w.client, w.cfg.Coordinator+"/dist/heartbeat",
		heartbeatRequest{Worker: w.ID(), Lease: lease.ID, Error: cause.Error()})
	if err != nil {
		w.logf("dist: lease %s: nack failed: %v", lease.ID, err)
	}
}

// replica returns the dataset for a content hash, fetching it from the
// coordinator on first use. The coordinator sends the matrix's canonical
// encoding, so one SHA-256 over the body must equal the advertised id before
// the body is decoded — a worker never mines data it cannot verify.
func (w *Worker) replica(ctx context.Context, id string) (*matrix.Matrix, error) {
	w.mu.Lock()
	m, ok := w.datasets.get(id)
	w.mu.Unlock()
	if ok {
		return m, nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.cfg.Coordinator+"/dist/datasets/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("dist: replica %s: %w", shortHash(id), err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dist: replica %s: %s", shortHash(id), resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("dist: replica %s: %w", shortHash(id), err)
	}
	if got := matrix.HashCanonical(body); got != id {
		return nil, fmt.Errorf("dist: replica hash %s does not match advertised %s; refusing corrupt data",
			shortHash(got), shortHash(id))
	}
	m, err = matrix.DecodeCanonical(body)
	if err != nil {
		return nil, fmt.Errorf("dist: replica %s: %w", shortHash(id), err)
	}
	w.mu.Lock()
	w.datasets.put(id, m)
	w.mu.Unlock()
	w.Replicated.Add(1)
	w.logf("dist: replicated dataset %s (%dx%d)", shortHash(id), m.Rows(), m.Cols())
	return m, nil
}

func (w *Worker) modelsFor(mat *matrix.Matrix, lease *Lease) (*rwave.Set, error) {
	key := core.ModelKey(lease.Dataset, lease.Params)
	w.mu.Lock()
	ms, ok := w.models.get(key)
	w.mu.Unlock()
	if ok {
		return ms, nil
	}
	ms, err := core.BuildModels(mat, lease.Params, nil)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.models.put(key, ms)
	w.mu.Unlock()
	return ms, nil
}

// workerCacheSize bounds each of a worker's caches — replicas and model
// sets — to its most recently used entries. A worker mines the leases of a
// few runs at a time, so a handful keeps every run in flight resident, and a
// long-lived worker holds no more than that. An evicted dataset is fetched
// and verified again on its next lease.
const workerCacheSize = 4

// recent is a most-recently-used cache of at most workerCacheSize entries,
// most recent first. It is not safe for concurrent use.
type recent[V any] []recentEntry[V]

type recentEntry[V any] struct {
	key string
	val V
}

// get returns key's value and makes it the most recent entry.
func (r *recent[V]) get(key string) (V, bool) {
	for i, e := range *r {
		if e.key == key {
			copy((*r)[1:i+1], (*r)[:i])
			(*r)[0] = e
			return e.val, true
		}
	}
	var zero V
	return zero, false
}

// put stores val under key as the most recent entry, dropping the least
// recent one when the cache is full.
func (r *recent[V]) put(key string, val V) {
	if _, ok := r.get(key); ok {
		(*r)[0].val = val
		return
	}
	if len(*r) < workerCacheSize {
		*r = append(*r, recentEntry[V]{})
	}
	copy((*r)[1:], (*r)[:len(*r)-1])
	(*r)[0] = recentEntry[V]{key, val}
}

func shortHash(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

func postJSON[T any](ctx context.Context, cl *http.Client, url string, body any) (T, error) {
	var out T
	payload, err := json.Marshal(body)
	if err != nil {
		return out, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return out, fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(b)))
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, err
	}
	return out, nil
}
