package core

import (
	"context"
	"sync/atomic"
)

// budget is the global resource accounting shared by every miner of one
// mining run — the single sequential miner or the whole worker pool of a
// parallel MineWith run. All miners charge the same atomic counters,
// so MaxNodes and MaxClusters bound the RUN, not each worker, and a cap trip
// (or an external cancellation: a visitor stop, a sibling's truncation, a
// context expiry) is observed cooperatively by everyone at the next node or
// candidate boundary.
//
// Uncapped runs never touch the counters, so the hot path of an unlimited
// mining session stays free of shared atomic writes; the only cost is one
// atomic flag load per node and candidate.
type budget struct {
	maxNodes    int64 // > 0 bounds the total nodes charged across all miners
	maxClusters int64 // > 0 bounds the total clusters charged across all miners

	nodes     atomic.Int64
	clusters  atomic.Int64
	cancelled atomic.Bool

	done   <-chan struct{} // context cancellation; nil when no context is wired
	ctxErr func() error
	ctxHit atomic.Bool // the context fired while mining was still in progress
}

func newBudget(p Params, ctx context.Context) *budget {
	b := &budget{maxNodes: int64(p.MaxNodes), maxClusters: int64(p.MaxClusters)}
	if ctx != nil {
		b.done = ctx.Done()
		b.ctxErr = ctx.Err
	}
	return b
}

// prechargedBudget returns an unshared budget whose counters already hold
// the exact totals of a settled mining prefix. A sequential miner run
// against it behaves — truncation point, cluster output and every Stats
// counter — exactly like the sequential miner's continuation after that
// prefix; SubtreeMerger's reconciliation reruns use this to rebuild the
// sequential result of the subtree a global cap truncates.
func prechargedBudget(maxNodes, maxClusters, nodes, clusters int) *budget {
	b := &budget{maxNodes: int64(maxNodes), maxClusters: int64(maxClusters)}
	b.nodes.Store(int64(nodes))
	b.clusters.Store(int64(clusters))
	return b
}

// chargeNode accounts one search-tree node against the global node cap. A
// false return means this node pushed the total past the cap: the node is
// counted but must not be processed, and the whole run is cancelled.
func (b *budget) chargeNode() bool {
	if b.maxNodes <= 0 {
		return true
	}
	if b.nodes.Add(1) > b.maxNodes {
		b.cancelled.Store(true)
		return false
	}
	return true
}

// chargeCluster accounts one emitted cluster against the global cluster cap.
// A false return means the cluster just emitted is the last one the cap
// admits: the caller keeps it but must stop searching.
func (b *budget) chargeCluster() bool {
	if b.maxClusters <= 0 {
		return true
	}
	if b.clusters.Add(1) >= b.maxClusters {
		b.cancelled.Store(true)
		return false
	}
	return true
}

// cancel requests cooperative termination of every miner on this budget.
func (b *budget) cancel() { b.cancelled.Store(true) }

// stopped reports whether the run must halt: a cap tripped, cancel was
// called, or the wired context expired. The context is polled even after a
// cap already cancelled the run — a cap trip triggers sequential subtree
// reconciliation that can keep mining for a while, and an expiring context
// must interrupt that too, not just the initial parallel sweep.
func (b *budget) stopped() bool {
	if b.done != nil && !b.ctxHit.Load() {
		select {
		case <-b.done:
			b.ctxHit.Store(true)
			b.cancelled.Store(true)
			return true
		default:
		}
	}
	return b.cancelled.Load()
}

// contextErr returns the context's error if the context interrupted the run,
// nil otherwise (including when the context expired only after mining had
// already finished).
func (b *budget) contextErr() error {
	if b.ctxErr == nil || !b.ctxHit.Load() {
		return nil
	}
	return b.ctxErr()
}

// QuotaPool is a shared atomic reservation counter over an abstract resource
// budget — the admission-control companion to the per-run budget above. A
// caller reserves capacity before starting work that will consume it and
// releases the reservation when the work settles, so the pool bounds the
// AGGREGATE in-flight commitment across concurrent runs the way budget bounds
// one run. The service layer uses one pool per tenant to cap the sum of
// node budgets (Params.MaxNodes) a tenant may have mining at once.
//
// Reserve/Release pair like a semaphore but with weighted units and a
// lock-free compare-and-swap grant, so admission checks stay cheap under
// submission bursts.
type QuotaPool struct {
	capacity int64
	used     atomic.Int64
}

// NewQuotaPool returns a pool with the given capacity. Capacity <= 0 means
// unlimited: every reservation succeeds and nothing is accounted.
func NewQuotaPool(capacity int64) *QuotaPool {
	return &QuotaPool{capacity: capacity}
}

// TryReserve atomically reserves n units, failing without side effects when
// the reservation would push usage past the capacity. Non-positive n always
// succeeds and reserves nothing.
func (q *QuotaPool) TryReserve(n int64) bool {
	if q == nil || q.capacity <= 0 || n <= 0 {
		return true
	}
	for {
		used := q.used.Load()
		if used+n > q.capacity {
			return false
		}
		if q.used.CompareAndSwap(used, used+n) {
			return true
		}
	}
}

// Release returns n previously reserved units to the pool. Releasing more
// than is reserved clamps at zero rather than going negative — a double
// release must degrade accounting, never open the pool wider than its
// capacity.
func (q *QuotaPool) Release(n int64) {
	if q == nil || q.capacity <= 0 || n <= 0 {
		return
	}
	if q.used.Add(-n) < 0 {
		// Clamp: competing releases may both observe the transient negative;
		// CAS back to zero without double-adding.
		for {
			used := q.used.Load()
			if used >= 0 {
				return
			}
			if q.used.CompareAndSwap(used, 0) {
				return
			}
		}
	}
}

// InUse returns the units currently reserved.
func (q *QuotaPool) InUse() int64 {
	if q == nil {
		return 0
	}
	return q.used.Load()
}

// Capacity returns the pool's capacity (0 = unlimited).
func (q *QuotaPool) Capacity() int64 {
	if q == nil {
		return 0
	}
	return q.capacity
}
