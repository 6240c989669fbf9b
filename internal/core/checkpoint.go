package core

import "fmt"

// CheckpointVersion is the serialization version stamped into every snapshot;
// ResumeFrom rejects other versions so a journal written by a future format
// can never be silently misinterpreted.
const CheckpointVersion = 1

// Checkpoint is a serializable snapshot of a mining run's progress, taken at
// a deterministic point of the sequential enumeration order. Because the
// parallel miner's output is exactly the sequential DFS order for any worker
// count, a snapshot needs only three facts to restart the run:
//
//   - NextCond: the first starting condition (level-1 subtree) not yet fully
//     settled;
//   - SkipClusters: how many clusters of that subtree were already delivered
//     (the emitted-cluster watermark within the subtree);
//   - Prefix: the exact sequential Stats — budget counters included — of the
//     fully settled subtrees before NextCond.
//
// A resumed run re-mines only the subtree at NextCond (suppressing its first
// SkipClusters clusters) and everything after it; subtrees before NextCond
// are never revisited, and the returned Stats are the TOTAL run statistics
// (Prefix plus the continuation), identical to an uninterrupted run's.
//
// LastChain records the representative-chain prefix of the most recently
// delivered cluster — the DFS stack position at snapshot time. It is
// advisory: recovery logs and operators use it to see where a long run was,
// but resumption does not depend on it.
type Checkpoint struct {
	Version      int   `json:"v"`
	NextCond     int   `json:"next_cond"`
	SkipClusters int   `json:"skip_clusters"`
	Prefix       Stats `json:"prefix"`
	LastChain    []int `json:"last_chain,omitempty"`
}

// Delivered returns the total number of clusters the run had delivered when
// the snapshot was taken: the settled-prefix clusters plus the watermark
// within the subtree being streamed.
func (c *Checkpoint) Delivered() int { return c.Prefix.Clusters + c.SkipClusters }

// Validate reports whether the snapshot can resume a run over a matrix with
// the given number of conditions.
func (c *Checkpoint) Validate(conds int) error {
	if c.Version != CheckpointVersion {
		return fmt.Errorf("core: checkpoint version %d, want %d", c.Version, CheckpointVersion)
	}
	if c.NextCond < 0 || c.NextCond > conds {
		return fmt.Errorf("core: checkpoint NextCond %d outside [0,%d]", c.NextCond, conds)
	}
	if c.NextCond == conds && c.SkipClusters != 0 {
		return fmt.Errorf("core: checkpoint is past the last subtree but skips %d clusters", c.SkipClusters)
	}
	if c.SkipClusters < 0 || c.Prefix.Nodes < 0 || c.Prefix.Clusters < 0 {
		return fmt.Errorf("core: negative checkpoint counters")
	}
	return nil
}

// CheckpointConfig enables periodic snapshots on a resumable run
// (Options.Checkpoint).
type CheckpointConfig struct {
	// EveryClusters takes a snapshot each time this many clusters have been
	// delivered since the previous snapshot. 0 snapshots only at subtree
	// boundaries.
	EveryClusters int
	// OnCheckpoint receives every snapshot, synchronously on the emitting
	// (calling) goroutine, so a callback that persists the snapshot before
	// returning guarantees the WAL never runs ahead of delivery. Nil disables
	// checkpointing entirely.
	OnCheckpoint func(Checkpoint)
}

func (cc CheckpointConfig) enabled() bool { return cc.OnCheckpoint != nil }

// PanicError is returned (never re-thrown) by MineWith when a worker
// goroutine of the parallel engine panicked: the panic is contained, every
// sibling worker stops cooperatively, and the run fails with the recovered
// value and the panicking goroutine's stack.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("core: mining worker panic: %v", e.Value) }
