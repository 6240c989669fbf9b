// Package dist turns the subtree work units of internal/core into a
// coordinator/worker protocol over HTTP.
//
// A core.MineWith run shares its queue of level-1 subtree roots with a
// Coordinator (core.Options.Share, Coordinator.Share). The coordinator
// leases queued roots to registered workers and appends the clusters they
// stream back to the run's buffers, where the run's engine merges them with
// its local workers' through core.SubtreeMerger — so the distributed output
// is byte-identical to a single-node run for any number or placement of
// workers.
//
// The protocol is deliberately small and pull-based:
//
//	POST /dist/register            worker announces itself, learns its id and
//	                               the heartbeat interval
//	POST /dist/lease               long-poll for the next subtree lease
//	POST /dist/heartbeat           ship a batch of clusters + a subtree
//	                               checkpoint; also carries completion (Done)
//	                               and rejection (Error) of a lease
//	GET  /dist/datasets/{id}       replicate a dataset by content hash (canonical encoding)
//
// A lease names a subtree (condition index), the dataset content hash, the
// mining Params, and a resume watermark Skip — the number of the subtree's
// clusters the run already holds from a previous holder of the same unit.
// Workers mine the subtree uncapped (global MaxNodes/MaxClusters are
// enforced by the run's merger), suppress the first Skip clusters, and ship
// the rest in heartbeat batches, which the run merges as they arrive. Every
// heartbeat extends the lease TTL; a lease whose TTL lapses is revoked and
// its unit put back at the front of the run's queue, where the next taker —
// a worker or one of the run's local goroutines — resumes after what was
// already received, so a SIGKILLed worker costs only the unshipped tail of
// its subtree.
package dist

import (
	"regcluster/internal/core"
)

// Lease is a grant of one subtree work unit to one worker.
type Lease struct {
	ID      string      `json:"id"`
	Run     string      `json:"run"`     // coordinator-side run (job attempt) id
	Dataset string      `json:"dataset"` // content hash; replicate via GET /dist/datasets/{id}
	Params  core.Params `json:"params"`
	Cond    int         `json:"cond"`   // starting condition of the subtree
	Skip    int         `json:"skip"`   // clusters already received; ship only later ones
	TTLMS   int64       `json:"ttl_ms"` // lease expires this long after the last heartbeat
}

// SubtreeCheckpoint is the progress watermark a worker ships with every
// heartbeat: after the accompanying batch is applied, the coordinator holds
// the first Delivered clusters of subtree Cond. The coordinator verifies the
// watermark against what it has actually received, so a lost or duplicated
// heartbeat cannot silently corrupt a unit.
type SubtreeCheckpoint struct {
	Cond      int `json:"cond"`
	Delivered int `json:"delivered"`
}

type registerRequest struct {
	Name string `json:"name"` // advertised worker name (host:port or label)
}

type registerResponse struct {
	Worker      string `json:"worker"`       // coordinator-assigned worker id
	HeartbeatMS int64  `json:"heartbeat_ms"` // send heartbeats at least this often
}

type leaseRequest struct {
	Worker string `json:"worker"`
	WaitMS int64  `json:"wait_ms"` // long-poll: hold the request up to this long
}

type leaseResponse struct {
	Lease *Lease `json:"lease"` // null when no work was available within WaitMS
}

type heartbeatRequest struct {
	Worker   string                `json:"worker"`
	Lease    string                `json:"lease"`
	Clusters []core.SubtreeCluster `json:"clusters,omitempty"`
	Ckpt     SubtreeCheckpoint     `json:"ckpt"`
	Done     bool                  `json:"done,omitempty"`  // final heartbeat: subtree complete
	Stats    *core.Stats           `json:"stats,omitempty"` // isolated subtree Stats, with Done
	Error    string                `json:"error,omitempty"` // nack: worker rejects the lease
}

type heartbeatResponse struct {
	OK      bool `json:"ok"`
	Revoked bool `json:"revoked,omitempty"` // lease no longer held; stop mining it
}

// EventKind labels coordinator lifecycle events for the host's journal and
// metrics.
type EventKind string

const (
	EventWorkerJoined    EventKind = "worker_joined"
	EventLeaseIssued     EventKind = "lease_issued"
	EventLeaseCompleted  EventKind = "lease_completed"
	EventLeaseReassigned EventKind = "lease_reassigned" // revoked (TTL or nack) and re-queued
)

// Event is one coordinator lifecycle notification. Job is the host-side job
// id the run was started for (empty for worker-scoped events).
type Event struct {
	Kind   EventKind
	Worker string
	Addr   string // advertised worker name (EventWorkerJoined)
	Job    string
	Lease  string
	Cond   int
	Skip   int    // received watermark at issue/reassign time
	Reason string // why a lease was reassigned: "expired" or the nack error
}
