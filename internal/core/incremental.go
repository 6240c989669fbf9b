package core

import (
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
// unmined. MineWith exploits this when Options.Parent is set: planSplice
// turns every clean subtree into a recorded SubtreePartial, the parallel
// engine mines only the dirty roots (locally, or through a shared queue's
// remote workers), and the SubtreeMerger folds both kinds
// exactly as it folds a cold run's subtrees — so the output is byte-identical
// to a cold mine of the grown matrix (the property
// TestDifferentialIncrementalVsCold pins).

// Parent is a settled run that MineWith may reuse (Options.Parent): the
// matrix it mined and its Result under the same Params. The Result must
// carry its per-subtree Stats (Result.Subtrees), which every untruncated
// run records, resumed or not.
type Parent struct {
	Matrix *matrix.Matrix
	Result *Result
}

// IncrementalInfo reports how a run with Options.Parent executed: whether
// the subtree-reuse path ran, how many level-1 subtrees it spliced from the
// parent result versus mined, and — when it fell back to a cold mine — why.
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

// gammaAbsFor resolves the absolute per-gene threshold (m, p) implies for
// gene g — the γ-scheme dispatch of every model-set build: custom thresholds
// verbatim, AbsoluteGamma verbatim, and otherwise the paper's Equation 4
// relative form γ_g = Gamma × RowRange(g), the exact expression rwave.Build
// evaluates.
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

// RepairModels builds the model set for (child, p), splicing each gene's
// appended conditions into its model in parent where rwave's repair is sound
// (same gene, identical prefix values, unchanged absolute threshold) and
// rebuilding that gene cold otherwise — including the relative-gamma case
// where appended values grow a row's range and shift its threshold. parent
// may have fewer genes than the child (genes appended) or be nil; missing
// genes build cold. parent is never mutated: the result is a fresh set,
// byte-identical to BuildModels' output (TestDifferentialRepairVsBuildModels).
// The second return counts genes repaired on the fast path.
func RepairModels(child *matrix.Matrix, p Params, parent *rwave.Set, o *Observer) (*rwave.Set, int, error) {
	if err := validateInputs(child, p); err != nil {
		return nil, 0, err
	}
	bsp := o.traceSpan().Start("rwave.repair")
	set, repaired := buildSet(child, p, parent, bsp)
	bsp.SetInt("repaired", int64(repaired))
	bsp.End()
	return set, repaired, nil
}

// dirtyConditions computes the append delta's per-condition dirty bitmap:
// condition c is dirty iff some gene regulates between c and an appended
// condition (index >= oldConds). Appended conditions are always dirty. Per
// gene the test is two rank intervals read off the exact frontiers: an
// appended d is a successor of every condition ranked <= PredEnd[rank(d)]
// and a predecessor of every condition ranked >= SuccStart[rank(d)], so one
// pass over the appended conditions yields the gene's dirty rank range.
func dirtyConditions(set *rwave.Set, oldConds, conds int) []bool {
	dirty := make([]bool, conds)
	for c := oldConds; c < conds; c++ {
		dirty[c] = true
	}
	for g := 0; g < set.Genes(); g++ {
		mod := set.Model(g)
		hi, lo := -1, conds
		for d := oldConds; d < conds; d++ {
			hi = max(hi, mod.PredecessorEndRank(d))
			lo = min(lo, mod.SuccessorStartRank(d))
		}
		for r := 0; r <= hi; r++ {
			dirty[mod.Order(r)] = true
		}
		for r := lo; r < conds; r++ {
			dirty[mod.Order(r)] = true
		}
	}
	return dirty
}

// incrementalFallback names the first reason the parent cannot seed a
// splice of child under p; empty means eligible. The checks guard exactly
// the assumptions the splice relies on: a conditions-only append whose old
// values and per-gene thresholds are unchanged, a complete (untruncated,
// uncapped) parent result that recorded each subtree's isolated Stats, and
// the default candidate enumeration whose reachability argument the dirty
// bitmap encodes. Spliced partials carry no node ordinals, so budget caps
// stay ineligible.
func incrementalFallback(child *matrix.Matrix, p Params, par *Parent) string {
	switch {
	case par.Matrix == nil || par.Result == nil:
		return "no parent result"
	case child.Rows() != par.Matrix.Rows():
		return "gene axis changed"
	case child.Cols() <= par.Matrix.Cols():
		return "no appended conditions"
	case p.MaxNodes > 0 || p.MaxClusters > 0:
		return "budget caps require sequential accounting"
	case p.NaiveCandidates:
		return "naive-candidates ablation"
	case par.Result.Stats.Truncated:
		return "parent result truncated"
	case len(par.Result.Subtrees) != par.Matrix.Cols():
		return "parent result has no per-subtree stats"
	}
	for g := 0; g < child.Rows(); g++ {
		if gammaAbsFor(child, p, g) != gammaAbsFor(par.Matrix, p, g) {
			return "per-gene threshold drift"
		}
		for c := 0; c < par.Matrix.Cols(); c++ {
			if child.At(g, c) != par.Matrix.At(g, c) {
				return "parent values rewritten"
			}
		}
	}
	return ""
}

// planSplice turns a parent run into the engine's input for the child: a
// recorded partial for every clean subtree — the parent's clusters rooted
// there, in their DFS order, and the parent's isolated Stats for that root —
// and nil for every dirty one, which the engine mines. The info reports the
// split, or the fallback reason when no splice is possible (parts is then
// nil and the run mines cold).
func planSplice(child *matrix.Matrix, p Params, set *rwave.Set, par *Parent) ([]*SubtreePartial, IncrementalInfo) {
	if reason := incrementalFallback(child, p, par); reason != "" {
		return nil, IncrementalInfo{Fallback: reason}
	}
	oldConds, conds := par.Matrix.Cols(), child.Cols()
	dirty := dirtyConditions(set, oldConds, conds)
	parts := make([]*SubtreePartial, conds)
	reused := 0
	for c := 0; c < oldConds; c++ {
		if !dirty[c] {
			parts[c] = &SubtreePartial{Cond: c, Stats: par.Result.Subtrees[c]}
			reused++
		}
	}
	if reused == 0 {
		return nil, IncrementalInfo{Fallback: "every subtree dirtied by the delta"}
	}
	// The parent's clusters arrive in starting-condition order with DFS
	// order inside each subtree, so grouping by root preserves the
	// intra-subtree order exactly.
	for _, b := range par.Result.Clusters {
		if len(b.Chain) == 0 || b.Chain[0] < 0 || b.Chain[0] >= oldConds {
			return nil, IncrementalInfo{Fallback: "parent result malformed"}
		}
		if part := parts[b.Chain[0]]; part != nil {
			part.Clusters = append(part.Clusters, SubtreeCluster{Cluster: b})
		}
	}
	for _, part := range parts {
		if part != nil && len(part.Clusters) != part.Stats.Clusters {
			return nil, IncrementalInfo{Fallback: "parent result malformed"}
		}
	}
	return parts, IncrementalInfo{Incremental: true, SubtreesReused: reused, SubtreesMined: conds - reused}
}
