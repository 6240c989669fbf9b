package core

import "fmt"

// CheckpointVersion is the serialization version stamped into every snapshot;
// Validate rejects other versions, so a snapshot written in an older or a
// future format is never silently misread. Version 1 carried one aggregate
// prefix Stats instead of each settled subtree's.
const CheckpointVersion = 2

// Checkpoint is a serializable snapshot of a mining run's progress, taken at
// a deterministic point of the sequential enumeration order. Because the
// parallel miner's output is exactly the sequential DFS order for any worker
// count, a snapshot needs only three facts to restart the run:
//
//   - NextCond: the first starting condition (level-1 subtree) not yet fully
//     settled;
//   - SkipClusters: how many clusters of that subtree were already delivered
//     (the emitted-cluster watermark within the subtree);
//   - Subtrees: the isolated Stats of each settled subtree 0..NextCond-1.
//
// A resumed run folds Subtrees as recorded partials, never revisiting those
// subtrees, and mines the subtree at NextCond as a root put back with its
// first SkipClusters clusters already delivered, then everything after it.
// The returned Stats and Result.Subtrees are the uninterrupted run's.
type Checkpoint struct {
	Version      int     `json:"v"`
	NextCond     int     `json:"next_cond"`
	SkipClusters int     `json:"skip_clusters"`
	Subtrees     []Stats `json:"subtrees,omitempty"`
}

// Delivered returns the total number of clusters the run had delivered when
// the snapshot was taken: the settled subtrees' clusters plus the watermark
// within the subtree being streamed.
func (c *Checkpoint) Delivered() int {
	n := c.SkipClusters
	for _, st := range c.Subtrees {
		n += st.Clusters
	}
	return n
}

// Validate reports whether the snapshot can resume a run over a matrix with
// the given number of conditions.
func (c *Checkpoint) Validate(conds int) error {
	if c.Version != CheckpointVersion {
		return fmt.Errorf("core: checkpoint version %d, want %d", c.Version, CheckpointVersion)
	}
	if c.NextCond < 0 || c.NextCond > conds {
		return fmt.Errorf("core: checkpoint NextCond %d outside [0,%d]", c.NextCond, conds)
	}
	if len(c.Subtrees) != c.NextCond {
		return fmt.Errorf("core: checkpoint records %d subtrees before NextCond %d", len(c.Subtrees), c.NextCond)
	}
	if c.NextCond == conds && c.SkipClusters != 0 {
		return fmt.Errorf("core: checkpoint is past the last subtree but skips %d clusters", c.SkipClusters)
	}
	if c.SkipClusters < 0 {
		return fmt.Errorf("core: negative checkpoint counters")
	}
	for _, st := range c.Subtrees {
		if st.Nodes < 0 || st.Clusters < 0 || st.Truncated {
			return fmt.Errorf("core: checkpoint records an invalid subtree %+v", st)
		}
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
