package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"regcluster/internal/faultinject"
	"regcluster/internal/matrix"
	"regcluster/internal/rwave"
)

// Incremental re-mining under append-conditions deltas.
//
// A level-1 subtree (all clusters whose representative chain starts at one
// condition) depends only on the regulation structure reachable from its
// root within γ steps. When a dataset grows by appended conditions, most
// subtrees cannot change: a new condition d can influence the subtree rooted
// at c only if some gene regulates between c and d — that is, d lies in
// succ_g(c) or pred_g(c) for some gene g. Every way the miner's output for
// root c could differ — d entering a chain (chains only ever extend through
// per-gene successor/predecessor sets, which are transitive), d changing a
// candidate set (candidates are enumerated from the succ/pred sets of chain
// members, all within γ-reach of c), or d shifting a chain-length pruning
// bound (UpLen/DownLen recurse through the same sets) — requires exactly that
// regulation relation. A condition with no such gene is *clean*: its subtree
// in the grown dataset is identical to its subtree in the parent, clusters
// and isolated Stats both, so the parent's cached output can be spliced in
// unmined. MineIncremental exploits this: it re-mines only dirty subtrees
// and reuses the rest, producing output byte-identical to a cold mine of the
// grown matrix (the property TestDifferentialIncrementalVsCold pins).

// IncrementalInfo reports how an incremental re-mine executed: whether the
// subtree-reuse fast path ran, how many level-1 subtrees it spliced from the
// parent result versus re-mined, and — when it fell back to a cold parallel
// mine — why.
type IncrementalInfo struct {
	// Incremental is true when the subtree-reuse path produced the result.
	Incremental bool `json:"incremental"`
	// SubtreesReused counts parent subtrees spliced without re-mining.
	SubtreesReused int `json:"subtrees_reused"`
	// SubtreesMined counts subtrees mined fresh (dirty old conditions plus
	// every appended condition).
	SubtreesMined int `json:"subtrees_mined"`
	// Fallback names the reason the fast path was ineligible; empty when
	// Incremental is true.
	Fallback string `json:"fallback,omitempty"`
}

// sub removes a previously folded contribution from an aggregate — the
// inverse of Add for every counter. Truncated is left untouched: callers only
// subtract isolated subtree stats (never truncated) from untruncated parent
// aggregates, which the MineIncremental eligibility gate enforces.
// TestStatsSubInvertsAdd pins full field coverage by reflection.
func (s *Stats) sub(o Stats) {
	s.Nodes -= o.Nodes
	s.Clusters -= o.Clusters
	s.Duplicates -= o.Duplicates
	s.PrunedMinG -= o.PrunedMinG
	s.PrunedMajority -= o.PrunedMajority
	s.PrunedCoherence -= o.PrunedCoherence
	s.MembersDroppedByLength -= o.MembersDroppedByLength
	s.CandidatesExamined -= o.CandidatesExamined
	s.NonFiniteH -= o.NonFiniteH
}

// gammaAbsFor resolves the absolute per-gene threshold (m, p) implies for
// gene g, mirroring prepare's scheme dispatch: custom thresholds verbatim,
// AbsoluteGamma verbatim, and otherwise the paper's Equation 4 relative form
// γ_g = Gamma × RowRange(g) — the exact expression rwave.Build evaluates, so
// a model built with this threshold is bit-identical to prepare's.
func gammaAbsFor(m *matrix.Matrix, p Params, g int) float64 {
	switch {
	case p.CustomGammas != nil:
		return p.CustomGammas[g]
	case p.AbsoluteGamma:
		return p.Gamma
	default:
		return p.Gamma * m.RowRange(g)
	}
}

// RepairModels builds the packed model set for (child, p), splicing each
// gene's appended conditions into its parent model where rwave.Repair's fast
// path is sound (same gene, identical prefix values, unchanged absolute
// threshold) and rebuilding that gene cold otherwise — including the
// relative-gamma case where appended values grow a row's range and shift its
// threshold. parentModels may be shorter than the child's gene count (genes
// appended) or nil; missing genes build cold. The parent models are never
// mutated or rebound: the result is a fresh set, packed like BuildModels'
// output and byte-identical to it (TestDifferentialRepairVsBuildModels).
// The second return counts genes repaired on the fast path.
func RepairModels(child *matrix.Matrix, p Params, parentModels []*rwave.Model, o *Observer) ([]*rwave.Model, int, error) {
	if err := validateInputs(child, p); err != nil {
		return nil, 0, err
	}
	var repaired atomic.Int64
	sp := o.traceSpan()
	bsp := sp.Start("rwave.repair")
	models := rwave.BuildAllSpan(child.Rows(), func(g int) *rwave.Model {
		var old *rwave.Model
		if g < len(parentModels) {
			old = parentModels[g]
		}
		mod, fast := rwave.Repair(old, child, g, gammaAbsFor(child, p, g))
		if fast {
			repaired.Add(1)
		}
		return mod
	}, bsp)
	rwave.PackModels(models)
	if bsp != nil {
		bsp.SetInt("repaired", repaired.Load())
		bsp.End()
	}
	return models, int(repaired.Load()), nil
}

// dirtyConditions computes the append delta's per-condition dirty bitmap:
// condition c is dirty iff some gene regulates between c and an appended
// condition (index >= oldConds). Appended conditions are always dirty. Per
// gene the test is two rank intervals read off the exact frontiers: an
// appended d is a successor of every condition ranked <= PredEnd[rank(d)]
// and a predecessor of every condition ranked >= SuccStart[rank(d)], so one
// pass over the appended conditions yields the gene's dirty rank range.
func dirtyConditions(kern []rwave.Kernel, oldConds, conds int) []bool {
	dirty := make([]bool, conds)
	for c := oldConds; c < conds; c++ {
		dirty[c] = true
	}
	for g := range kern {
		k := &kern[g]
		hi, lo := -1, conds
		for d := oldConds; d < conds; d++ {
			r := k.Rank[d]
			if pe := k.PredEnd[r]; pe > hi {
				hi = pe
			}
			if ss := k.SuccStart[r]; ss < lo {
				lo = ss
			}
		}
		for r := 0; r <= hi; r++ {
			dirty[k.Order[r]] = true
		}
		for r := lo; r < conds; r++ {
			dirty[k.Order[r]] = true
		}
	}
	return dirty
}

// incrementalFallback names the first reason (parent, p, results) cannot take
// the subtree-reuse path; empty means eligible. The checks guard exactly the
// assumptions the splice relies on: a conditions-only append whose old values
// and per-gene thresholds are unchanged, a complete (untruncated, uncapped)
// parent result, and the default candidate enumeration whose reachability
// argument the dirty bitmap encodes.
func incrementalFallback(child, parent *matrix.Matrix, p Params, childModels, parentModels []*rwave.Model, parentResult *Result) string {
	switch {
	case parent == nil || parentResult == nil:
		return "no parent result"
	case child.Rows() != parent.Rows():
		return "gene axis changed"
	case child.Cols() <= parent.Cols():
		return "no appended conditions"
	case len(parentModels) != parent.Rows():
		return "parent model set incomplete"
	case p.MaxNodes > 0 || p.MaxClusters > 0:
		return "budget caps require sequential accounting"
	case p.NaiveCandidates:
		return "naive-candidates ablation"
	case parentResult.Stats.Truncated:
		return "parent result truncated"
	}
	oldConds := parent.Cols()
	for g := 0; g < child.Rows(); g++ {
		cm, pm := childModels[g], parentModels[g]
		if cm.Gamma() != pm.Gamma() {
			return "per-gene threshold drift"
		}
		for c := 0; c < oldConds; c++ {
			if cm.ValueOf(c) != pm.ValueOf(c) {
				return "parent values rewritten"
			}
		}
	}
	return ""
}

// incrTask is one unit of incremental re-mine work: a dirty subtree mined on
// the child (clusters + stats), or re-mined on the parent for stats only —
// the contribution to subtract from the parent's aggregate.
type incrTask struct {
	cond     int
	onParent bool
}

// MineIncremental re-mines the grown matrix child after an append-conditions
// delta over parent, reusing the parent's settled result where the delta
// provably cannot change it. Only subtrees rooted at dirty conditions — the
// appended ones, plus old conditions some gene regulates against an appended
// one — are mined (on childModels); for each dirty old condition the parent
// subtree is additionally re-mined stats-only (on parentModels) so its
// contribution can be subtracted from parentResult.Stats exactly. Clean
// subtrees splice the parent's clusters verbatim. Clusters stream to visit in
// starting-condition order, DFS within a subtree — the engine's delivery
// order — and the returned Stats equal a cold mine's bit for bit.
//
// Ineligible inputs (gene-axis growth, per-gene threshold drift under
// relative gamma, budget caps, a truncated parent, the naive-candidates
// ablation) fall back to a cold parallel mine of child; IncrementalInfo
// reports which path ran. A visit returning false abandons the run: delivery
// stops and the returned Stats are the full-run aggregate with Truncated set,
// not the cold engine's mid-run accounting — callers that stop mid-stream
// should not compare stats against a cold run. The live Observer counts
// nodes only for re-mined subtrees; cluster counts cover the full stream.
func MineIncremental(ctx context.Context, child, parent *matrix.Matrix, p Params, workers int,
	visit Visitor, o *Observer, childModels, parentModels []*rwave.Model, parentResult *Result) (Stats, IncrementalInfo, error) {
	if visit == nil {
		return Stats{}, IncrementalInfo{}, fmt.Errorf("core: MineIncremental requires a visitor")
	}
	_, childKern, err := resolveModels(child, p, childModels, nil)
	if err != nil {
		return Stats{}, IncrementalInfo{}, err
	}
	coldMine := func(reason string) (Stats, IncrementalInfo, error) {
		info := IncrementalInfo{Fallback: reason}
		res, err := MineWith(ctx, child, p, Options{Workers: workers, Visit: visit, Observer: o, Models: childModels})
		if err != nil {
			return Stats{}, info, err
		}
		return res.Stats, info, nil
	}
	if reason := incrementalFallback(child, parent, p, childModels, parentModels, parentResult); reason != "" {
		return coldMine(reason)
	}

	oldConds, conds := parent.Cols(), child.Cols()
	dirty := dirtyConditions(childKern, oldConds, conds)
	nDirtyOld := 0
	for c := 0; c < oldConds; c++ {
		if dirty[c] {
			nDirtyOld++
		}
	}
	if nDirtyOld == oldConds {
		return coldMine("every subtree dirtied by the delta")
	}

	// Group the parent's clusters by subtree root. Clusters arrive from the
	// engine in starting-condition order with DFS order inside each subtree,
	// so per-root grouping preserves the intra-subtree order exactly.
	parentByRoot := make([][]*Bicluster, oldConds)
	for _, b := range parentResult.Clusters {
		if len(b.Chain) == 0 || b.Chain[0] < 0 || b.Chain[0] >= oldConds {
			return coldMine("parent result malformed")
		}
		parentByRoot[b.Chain[0]] = append(parentByRoot[b.Chain[0]], b)
	}

	_, parentKern, err := resolveModels(parent, p, parentModels, nil)
	if err != nil {
		return Stats{}, IncrementalInfo{}, err
	}

	// Dirty subtrees on the child in the engine's largest-first dispatch
	// order, then their parent-side stats re-mines: output order is fixed by
	// the emission loop below, so task order only balances the pool.
	tasks := make([]incrTask, 0, nDirtyOld*2+(conds-oldConds))
	for _, c := range subtreeOrder(child, p, childKern) {
		if dirty[c] {
			tasks = append(tasks, incrTask{cond: c})
		}
	}
	for _, t := range tasks {
		if t.cond < oldConds {
			tasks = append(tasks, incrTask{cond: t.cond, onParent: true})
		}
	}

	sp := o.traceSpan()
	isp := sp.Start("incremental.mine")
	if isp != nil {
		isp.SetInt("subtrees_mined", int64(conds-oldConds+nDirtyOld))
		isp.SetInt("subtrees_reused", int64(oldConds-nDirtyOld))
		defer isp.End()
	}

	childClusters := make([][]*Bicluster, conds)
	childStats := make([]Stats, conds)
	parentStats := make([]Stats, oldConds)
	iso := p
	iso.MaxNodes, iso.MaxClusters = 0, 0

	nWorkers := workers
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	if nWorkers > len(tasks) {
		nWorkers = len(tasks)
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		errOnce  sync.Once
		firstErr error
		panicked atomic.Pointer[PanicError]
		wg       sync.WaitGroup
	)
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				// Contain a miner panic on this goroutine: the run fails
				// with a *PanicError, as the cold path does.
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &PanicError{Value: r, Stack: debug.Stack()})
					stop.Store(true)
				}
			}()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				t := tasks[i]
				_ = faultinject.Hook("core.mine.subtree") // panic/delay injection for containment tests
				bud := newBudget(iso, ctx)
				if t.onParent {
					mn := newMiner(parent, iso, parentKern, bud)
					mn.sink = func(*Bicluster, int) bool { return true }
					mn.runFrom(t.cond)
					parentStats[t.cond] = mn.stats
				} else {
					mn := newMiner(child, iso, childKern, bud)
					mn.obs = o
					mn.sink = func(b *Bicluster, _ int) bool {
						childClusters[t.cond] = append(childClusters[t.cond], b)
						return true
					}
					mn.runFrom(t.cond)
					childStats[t.cond] = mn.stats
				}
				if err := bud.contextErr(); err != nil {
					errOnce.Do(func() { firstErr = err })
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	info := IncrementalInfo{
		Incremental:    true,
		SubtreesReused: oldConds - nDirtyOld,
		SubtreesMined:  conds - oldConds + nDirtyOld,
	}
	if perr := panicked.Load(); perr != nil {
		return Stats{}, info, perr
	}
	if firstErr != nil {
		return Stats{}, info, firstErr
	}

	// Exact aggregate: the parent's total, minus each dirty old subtree's
	// parent-side contribution, plus each dirty subtree's child-side stats.
	// Clean subtrees are untouched on both sides, so the sum telescopes to
	// exactly what a cold mine of the child totals.
	agg := parentResult.Stats
	for c := 0; c < conds; c++ {
		if !dirty[c] {
			continue
		}
		if c < oldConds {
			agg.sub(parentStats[c])
		}
		agg.Add(childStats[c])
	}

	for c := 0; c < conds; c++ {
		clusters, spliced := childClusters[c], false
		if !dirty[c] {
			clusters, spliced = parentByRoot[c], true
		}
		for _, b := range clusters {
			if spliced && o != nil {
				// Re-mined clusters tick the live counter at discovery inside
				// the miner; spliced ones tick here so the final Observer
				// cluster count covers the whole stream.
				o.clusters.Add(1)
			}
			if !visit(b) {
				agg.Truncated = true
				return agg, info, nil
			}
		}
	}
	return agg, info, nil
}
