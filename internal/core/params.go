package core

import (
	"fmt"
	"math"
)

// Params are the mining inputs of Figure 5 plus safety caps and the ablation
// switches used by experiment E8. The zero value is invalid; fill at least
// MinG, MinC, Gamma and Epsilon.
type Params struct {
	// MinG is the minimum number of genes (p-members plus n-members) of an
	// output reg-cluster.
	MinG int
	// MinC is the minimum number of conditions (chain length).
	MinC int
	// Gamma is the regulation threshold γ of Equation 4: the per-gene
	// absolute threshold is γ × (max−min) of the gene's expression values.
	// When AbsoluteGamma is set, Gamma is used directly as γ_i for every
	// gene instead.
	Gamma float64
	// Epsilon is the coherence threshold ε of Definition 3.2: the maximum
	// allowed spread of the H scores (Equation 7) within a cluster, per
	// adjacent condition-pair.
	Epsilon float64
	// AbsoluteGamma interprets Gamma as an absolute per-gene threshold
	// (Section 3.1 lists such alternatives).
	AbsoluteGamma bool
	// CustomGammas, when non-nil, supplies an explicit absolute regulation
	// threshold per gene and overrides Gamma/AbsoluteGamma. Its length must
	// equal the matrix row count. See ThresholdsMeanFraction and
	// ThresholdsNearestPair for the alternative schemes Section 3.1 cites.
	CustomGammas []float64

	// MaxClusters, when positive, stops the search after that many clusters
	// have been output. 0 means unlimited. The cap is global: a parallel
	// MineWith run enforces it across all workers and returns exactly
	// the clusters (and Stats) a truncated sequential Mine would.
	MaxClusters int
	// MaxNodes, when positive, bounds the number of search-tree nodes
	// visited; the search stops cleanly when exceeded. 0 means unlimited.
	// Like MaxClusters, the cap is global across parallel workers.
	MaxNodes int

	// Ablation switches (all default false = paper behaviour, the reference
	// semantics). Disabling (3a), (3b) or the RWave candidate scan changes
	// only the work done; experiment E8 measures that. Pruning (2) is the
	// exception, see DisableChainLengthPruning.

	// DisableChainLengthPruning turns off pruning (2): genes whose maximal
	// remaining chain length cannot reach MinC are no longer dropped early.
	// This can change the output, not just the work: the sliding windows
	// are cut level by level, so a gene that pruning (2) drops early no
	// longer shapes the windows below it, and the paper configuration can
	// miss valid clusters that the unpruned run emits
	// (TestChainLengthPruningDropsValidCluster).
	DisableChainLengthPruning bool
	// DisableMajorityPruning turns off pruning (3a): subtrees where the
	// p-members cannot outnumber the n-members are no longer cut.
	DisableMajorityPruning bool
	// DisableDedupPruning turns off the subtree cut of pruning (3b);
	// duplicate clusters are still suppressed from the output.
	DisableDedupPruning bool
	// NaiveCandidates replaces RWave-driven candidate generation (scanning
	// the regulation successors of the chain tail) with testing every
	// condition, measuring the benefit of the RWave index.
	NaiveCandidates bool
}

// isFinite reports whether v is an ordinary float: not NaN and not ±Inf.
// Validation must test this explicitly — NaN compares false against every
// bound, so a plain `v < 0` range check silently admits it.
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Validate reports whether the parameters are usable. Every float field must
// be finite: a NaN or ±Inf threshold would build a garbage RWave index (and
// NaN slips through ordinary range checks), so non-finite values are rejected
// up front rather than left to corrupt the mining downstream.
func (p Params) Validate() error {
	if p.MinG < 2 {
		return fmt.Errorf("core: MinG = %d, need at least 2", p.MinG)
	}
	if p.MinC < 2 {
		return fmt.Errorf("core: MinC = %d, need at least 2 (the coherence baseline is the first two chain conditions)", p.MinC)
	}
	if !isFinite(p.Gamma) {
		return fmt.Errorf("core: Gamma = %v, must be finite", p.Gamma)
	}
	if p.AbsoluteGamma {
		if p.Gamma < 0 {
			return fmt.Errorf("core: absolute Gamma = %v, must be non-negative", p.Gamma)
		}
	} else if p.Gamma < 0 || p.Gamma > 1 {
		return fmt.Errorf("core: relative Gamma = %v, must lie in [0,1] (Equation 4)", p.Gamma)
	}
	if !isFinite(p.Epsilon) {
		return fmt.Errorf("core: Epsilon = %v, must be finite", p.Epsilon)
	}
	if p.Epsilon < 0 {
		return fmt.Errorf("core: Epsilon = %v, must be non-negative", p.Epsilon)
	}
	for g, v := range p.CustomGammas {
		if !isFinite(v) {
			return fmt.Errorf("core: CustomGammas[%d] = %v, must be finite", g, v)
		}
		if v < 0 {
			return fmt.Errorf("core: CustomGammas[%d] = %v, must be non-negative", g, v)
		}
	}
	if p.MaxClusters < 0 || p.MaxNodes < 0 {
		return fmt.Errorf("core: negative safety caps")
	}
	return nil
}

// Stats counts the work performed by one Mine call; used by the efficiency
// experiments and the pruning ablation.
type Stats struct {
	// Nodes is the number of search-tree nodes visited (MineC² invocations).
	Nodes int
	// Clusters is the number of reg-clusters output.
	Clusters int
	// Duplicates is the number of duplicate validated clusters suppressed by
	// pruning (3b).
	Duplicates int
	// PrunedMinG counts subtree cuts by pruning (1).
	PrunedMinG int
	// PrunedMajority counts subtree cuts by pruning (3a).
	PrunedMajority int
	// PrunedCoherence counts candidate extensions discarded because no
	// sliding window validated (pruning (4)).
	PrunedCoherence int
	// MembersDroppedByLength counts gene-direction entries dropped by
	// pruning (2).
	MembersDroppedByLength int
	// CandidatesExamined counts (node, candidate condition) pairs evaluated.
	CandidatesExamined int
	// NonFiniteH counts members dropped during candidate extension because
	// their Equation 7 coherence score was not finite (a zero or denormal
	// baseline step, reachable when γ_i = 0).
	NonFiniteH int
	// Truncated is set when MaxClusters, MaxNodes, or a visitor stop ended
	// the search early.
	Truncated bool
}

// Add accumulates o into s: every counter is summed and Truncated is OR-ed.
// All code that merges Stats values — the parallel subtree merge in
// particular — must go through Add so that a newly added counter cannot be
// silently dropped from merged results; TestStatsAddCoversAllFields enforces
// full field coverage by reflection.
func (s *Stats) Add(o Stats) {
	s.Nodes += o.Nodes
	s.Clusters += o.Clusters
	s.Duplicates += o.Duplicates
	s.PrunedMinG += o.PrunedMinG
	s.PrunedMajority += o.PrunedMajority
	s.PrunedCoherence += o.PrunedCoherence
	s.MembersDroppedByLength += o.MembersDroppedByLength
	s.CandidatesExamined += o.CandidatesExamined
	s.NonFiniteH += o.NonFiniteH
	s.Truncated = s.Truncated || o.Truncated
}
