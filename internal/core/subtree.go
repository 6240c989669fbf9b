package core

import (
	"context"
	"fmt"

	"regcluster/internal/matrix"
	"regcluster/internal/obs"
	"regcluster/internal/rwave"
)

// Subtree work units: the distribution surface of the miner.
//
// A level-1 subtree (one starting condition) is the natural shippable unit of
// a mining run — a representative chain lives entirely in the subtree of its
// first condition, so subtrees are independent and can be mined anywhere, in
// any order, by any process that holds the same matrix and Params. This file
// exposes that unit: MineSubtreeFunc produces one subtree's clusters and
// Stats in isolation, and SubtreeMerger reassembles subtrees into the exact
// sequential output, enforcing the global MaxNodes/MaxClusters caps. The
// merger is the only code that knows those rules: the engine (parallel.go)
// streams every subtree's buffer through it, whether a local worker, a
// spliced parent partial or a remote taker of the shared queue filled it,
// so output is byte-identical to the sequential miner's for any placement
// of subtrees across workers.

// SubtreeCluster is one cluster found inside a subtree, tagged with the
// subtree-local node ordinal of its emission (the miner's Stats.Nodes at that
// moment). The ordinal lets a merger decide whether the sequential miner,
// charged with the preceding subtrees' nodes, would still have processed the
// emitting node. All fields are integers, so the JSON round-trip across a
// process boundary is exact.
type SubtreeCluster struct {
	Cluster *Bicluster `json:"cluster"`
	Node    int        `json:"node"`
}

// SubtreePartial is the complete output of mining one level-1 subtree in
// isolation: its clusters in DFS order and its isolated Stats (counted as if
// the subtree were the only work, with no global caps applied).
type SubtreePartial struct {
	Cond     int              `json:"cond"`
	Clusters []SubtreeCluster `json:"clusters,omitempty"`
	Stats    Stats            `json:"stats"`
}

// MineSubtreeFunc mines the single level-1 subtree rooted at cond, streaming
// every cluster to visit in DFS order together with its subtree-local node
// ordinal. The run is isolated: MaxNodes/MaxClusters are ignored (global caps
// are the merger's job, and a worker cannot know how much budget precedes
// it), and the returned Stats count only this subtree. A false return from
// visit abandons the subtree — the partial is then incomplete (Truncated is
// set) and must not be offered to a merger. ctx cancels cooperatively at node
// and candidate boundaries.
func MineSubtreeFunc(ctx context.Context, m *matrix.Matrix, p Params, cond int, models *rwave.Set, visit func(SubtreeCluster) bool) (Stats, error) {
	if visit == nil {
		return Stats{}, fmt.Errorf("core: MineSubtreeFunc requires a visitor")
	}
	set, err := resolveModels(m, p, models, nil)
	if err != nil {
		return Stats{}, err
	}
	if cond < 0 || cond >= m.Cols() {
		return Stats{}, fmt.Errorf("core: subtree condition %d outside [0,%d)", cond, m.Cols())
	}
	iso := p
	iso.MaxNodes, iso.MaxClusters = 0, 0
	bud := newBudget(iso, ctx)
	mn := newMiner(m, iso, set, bud)
	mn.sink = func(b *Bicluster, node int) bool {
		return visit(SubtreeCluster{Cluster: b, Node: node})
	}
	mn.runFrom(cond)
	if err := bud.contextErr(); err != nil {
		return Stats{}, err
	}
	return mn.stats, nil
}

// SubtreeMerger is the one accountant of the sequential-prefix rules: it
// reassembles the engine's per-subtree buffers, read as they fill, into the
// exact sequential mining output. Clusters are delivered in
// starting-condition order, DFS within a subtree; the global MaxNodes/
// MaxClusters caps are enforced against the settled prefix using each
// cluster's subtree-local node ordinal; checkpoints are emitted at subtree
// boundaries plus every EveryClusters deliveries; and any truncation (cap
// trip or visitor stop) re-mines the truncating subtree locally against a
// budget pre-charged with the prefix totals, reproducing the truncated
// sequential run's Stats exactly. Not safe for concurrent use; one goroutine
// owns a merger.
type SubtreeMerger struct {
	ctx   context.Context
	m     *matrix.Matrix
	p     Params
	set   *rwave.Set // the shared model set for reconciliation reruns
	visit Visitor
	ck    CheckpointConfig
	sp    *obs.Span // optional trace parent for reconciliation reruns

	// halt stops the local producers feeding this merger before a rerun
	// takes over their work; a non-nil return fails the run instead.
	halt func() error

	next  int // the head: first condition not yet folded
	taken int // clusters of the head consumed so far, delivered before a resume included

	// Exact sequential accounting of the settled prefix, and the isolated
	// Stats of each subtree folded into it, in condition order. subtrees is
	// append-only, so snapshots share it.
	agg         Stats
	cumNodes    int
	cumClusters int
	subtrees    []Stats

	ckFresh int // deliveries since the last snapshot

	done bool
	err  error
}

// newMerger builds a merger over (m, p) and the run's resolved model set.
// The visitor receives clusters on the emitter's goroutine; resume folds a
// prior run's settled subtrees and positions the head after the clusters it
// already delivered, which are never re-delivered; ck emits new snapshots at
// subtree boundaries plus every EveryClusters deliveries. ctx bounds
// reconciliation reruns; nil means background.
func newMerger(ctx context.Context, m *matrix.Matrix, p Params, set *rwave.Set, visit Visitor, resume *Checkpoint, ck CheckpointConfig) (*SubtreeMerger, error) {
	g := &SubtreeMerger{ctx: ctx, m: m, p: p, set: set, visit: visit, ck: ck, subtrees: make([]Stats, 0, m.Cols())}
	if resume != nil {
		if err := resume.Validate(m.Cols()); err != nil {
			return nil, err
		}
		for _, st := range resume.Subtrees {
			g.settle(st)
		}
		g.taken = resume.SkipClusters
		if p.MaxClusters > 0 && g.cumClusters+g.taken >= p.MaxClusters {
			return nil, fmt.Errorf("core: checkpoint delivered %d clusters, at or past MaxClusters %d", resume.Delivered(), p.MaxClusters)
		}
	}
	g.done = g.next >= m.Cols()
	return g, nil
}

// result returns the run's total Stats and error once the merger is done,
// plus the isolated Stats of every subtree, which only a run that settled
// each subtree without truncation has.
func (g *SubtreeMerger) result() (Stats, []Stats, error) {
	if len(g.subtrees) < g.m.Cols() {
		return g.agg, nil, g.err
	}
	return g.agg, g.subtrees, g.err
}

// offerCluster consumes the next cluster of the head subtree, in its DFS
// order, and reports whether the run settled on it:
//
//   - a cluster is admitted only if the node that emitted it lies within the
//     global node cap (cumNodes + local node ordinal <= MaxNodes) — the exact
//     set of nodes the sequential miner processes;
//   - a visitor stop right after a cluster is equivalent to a MaxClusters cap
//     at the delivered total;
//   - the cluster whose admission reaches MaxClusters is delivered, then the
//     run truncates, as in the sequential miner.
func (g *SubtreeMerger) offerCluster(sc SubtreeCluster) bool {
	c := g.next
	nodeCap, clusterCap := g.p.MaxNodes, g.p.MaxClusters
	if nodeCap > 0 && g.cumNodes+sc.Node > nodeCap {
		g.truncate(c, g.taken, clusterCap)
		return true
	}
	g.taken++
	if !g.visit(sc.Cluster) {
		g.truncate(c, g.taken, g.cumClusters+g.taken)
		return true
	}
	g.noteDelivery(c, g.taken)
	if clusterCap > 0 && g.cumClusters+g.taken >= clusterCap {
		g.truncate(c, g.taken, clusterCap)
		return true
	}
	return false
}

// finishHead settles the head subtree once its producer finished with
// isolated Stats st, every cluster having passed through offerCluster.
// complete is false when a shared-budget stop interrupted the producer: its
// remainder is then schedule-dependent, so the subtree is re-mined against
// the exact continuation budget, delivering the clusters not yet consumed.
// That rerun either truncates at the precise sequential stop point, or
// completes — proving the interruption was spurious overshoot — and the
// merge moves on.
func (g *SubtreeMerger) finishHead(st Stats, complete bool) {
	c := g.next
	if complete && g.p.MaxNodes > 0 && g.cumNodes+st.Nodes > g.p.MaxNodes {
		// The node cap fires inside this subtree after its last cluster.
		g.truncate(c, g.taken, g.p.MaxClusters)
		return
	}
	if !complete {
		var err error
		if st, err = g.rerun(c, g.taken, true, g.p.MaxClusters); err != nil {
			g.fail(err)
			return
		}
	}
	if st.Truncated {
		g.agg.Add(st)
		g.sp.Add("budget_trips", 1)
		g.done = true
		return
	}
	g.settle(st)
	if g.ck.enabled() {
		// After a boundary a resumed run starts cleanly at the next subtree.
		g.snapshot(g.next, 0)
	}
}

// settle folds the head subtree's isolated Stats st into the run and moves
// the head to the next condition: the one step by which a finished subtree,
// mined here or recorded by a resumed run's checkpoint, joins the result.
func (g *SubtreeMerger) settle(st Stats) {
	g.agg.Add(st)
	g.cumNodes += st.Nodes
	g.cumClusters += st.Clusters
	g.subtrees = append(g.subtrees, st)
	g.next, g.taken = g.next+1, 0
	g.done = g.next >= g.m.Cols()
}

// noteDelivery tracks one delivered cluster for checkpointing: it advances
// the cadence counter and snapshots when the configured number of
// deliveries has accumulated. taken is the sequential within-subtree ordinal
// of the delivery, i.e. the subtree watermark. The delivery that reaches
// MaxClusters ends the run, so no snapshot resumes after it.
func (g *SubtreeMerger) noteDelivery(c, taken int) {
	if !g.ck.enabled() || g.p.MaxClusters > 0 && g.cumClusters+taken >= g.p.MaxClusters {
		return
	}
	g.ckFresh++
	if g.ck.EveryClusters > 0 && g.ckFresh >= g.ck.EveryClusters {
		g.snapshot(c, taken)
	}
}

// snapshot emits one Checkpoint positioned before the skip-th undelivered
// cluster of subtree nextCond. It shares the settled subtrees' Stats, capped
// so the receiver cannot append into the merger's list.
func (g *SubtreeMerger) snapshot(nextCond, skip int) {
	g.ckFresh = 0
	g.sp.Add("checkpoints", 1)
	g.ck.OnCheckpoint(Checkpoint{Version: CheckpointVersion, NextCond: nextCond, SkipClusters: skip,
		Subtrees: g.subtrees[:nextCond:nextCond]})
}

// truncate settles a truncation detected in subtree c after `taken` of its
// clusters were admitted: the subtree is re-mined locally against the
// pre-charged continuation budget solely to reproduce the truncated
// sequential run's Stats. No further clusters are delivered.
func (g *SubtreeMerger) truncate(c, taken, effClusterCap int) {
	g.done = true
	g.sp.Add("budget_trips", 1)
	st, err := g.rerun(c, taken, false, effClusterCap)
	if err != nil {
		g.fail(err)
		return
	}
	g.agg.Add(st)
}

// rerun re-mines subtree c single-threaded against a budget whose counters
// are pre-charged with the settled prefix totals, making its behavior —
// truncation point, cluster sequence and every Stats counter — identical to
// the sequential miner's continuation into this subtree. The producers stop
// first (see halt). The first skip clusters were already consumed and are
// suppressed; when deliver is set the remainder streams to the visitor,
// whose stop truncates the rerun exactly as it would the sequential miner.
func (g *SubtreeMerger) rerun(c, skip int, deliver bool, clusterCap int) (Stats, error) {
	if err := g.halt(); err != nil {
		return Stats{}, err
	}
	rsp := g.sp.Start("rerun")
	if rsp != nil {
		rsp.SetInt("cond", int64(c))
		rsp.SetInt("skip", int64(skip))
		if deliver {
			rsp.SetAttr("deliver", "true")
		}
		defer rsp.End()
	}
	rbud := prechargedBudget(g.p.MaxNodes, clusterCap, g.cumNodes, g.cumClusters)
	if g.ctx != nil {
		// Reconciliation can mine for a while; cancellation must reach it.
		rbud.done = g.ctx.Done()
		rbud.ctxErr = g.ctx.Err
	}
	emitted := 0
	mn := newMiner(g.m, g.p, g.set, rbud)
	mn.sink = func(b *Bicluster, _ int) bool {
		emitted++
		if !deliver || emitted <= skip {
			return true
		}
		if !g.visit(b) {
			return false
		}
		g.noteDelivery(c, emitted)
		return true
	}
	mn.runFrom(c)
	if err := rbud.contextErr(); err != nil {
		return Stats{}, err
	}
	return mn.stats, nil
}

// fail settles the run with err; no Stats are reported.
func (g *SubtreeMerger) fail(err error) {
	g.done, g.err, g.agg = true, err, Stats{}
}
