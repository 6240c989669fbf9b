package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"

	"regcluster/internal/matrix"
	"regcluster/internal/obs"
	"regcluster/internal/rwave"
)

// Result is the outcome of one Mine call.
type Result struct {
	Clusters []*Bicluster
	Stats    Stats
}

// member is one (gene, direction) entry of the current search node: up means
// the gene complies with the chain (p-member), otherwise with its inversion
// (n-member). At chain lengths 0 and 1 a gene may appear in both directions;
// from length 2 on the directions are mutually exclusive.
type member struct {
	gene int
	up   bool
}

// extMember is a member that survived a candidate extension, with its
// coherence score H(j, c_{k1}, c_{k2}, c_{km}, c_i) (Equation 7).
type extMember struct {
	member
	h float64
}

// Visitor receives mined clusters as the depth-first search discovers them.
// Returning false stops the search immediately; the clusters seen so far are
// exactly the prefix of Mine's output.
type Visitor func(b *Bicluster) bool

// Options are the optional parts of one MineWith run. The zero value mines
// on every CPU, collecting into Result.Clusters.
type Options struct {
	// Workers is the size of the worker pool: <= 0 selects GOMAXPROCS, and
	// counts above the number of conditions are clamped to it. With 1 and
	// neither Resume nor Checkpoint set, the sequential miner runs on the
	// calling goroutine.
	Workers int
	// Visit, when set, receives the clusters on the calling goroutine, in
	// Mine's order, instead of Result.Clusters; returning false stops every
	// worker, and the returned Stats are then exactly those of the
	// sequential miner stopped at the same cluster.
	Visit Visitor
	// Observer, when set, receives live node/cluster counts from the
	// miners, and its attached span parents the run's trace spans.
	Observer *Observer
	// Resume restarts a run from a prior snapshot of the same matrix and
	// Params: the visitor receives exactly the clusters after
	// Resume.Delivered(), and the returned Stats are the uninterrupted run's
	// totals.
	Resume *Checkpoint
	// Checkpoint emits snapshots as the run advances.
	Checkpoint CheckpointConfig
	// Models reuses a prebuilt RWave model set from BuildModels on the same
	// matrix with a ModelKey-equivalent Params; nil builds one for the run.
	Models []*rwave.Model
}

// Mine discovers all reg-clusters of m under p (Definition 3.2), returning
// them in deterministic depth-first enumeration order. It runs on the
// calling goroutine; MineWith adds workers, streaming, cancellation,
// progress, checkpoints and prebuilt models.
func Mine(m *matrix.Matrix, p Params) (*Result, error) {
	return MineWith(context.Background(), m, p, Options{Workers: 1})
}

// MineWith is the one mining entry point. It returns the same clusters, in
// the same order, with the same Stats as Mine for any worker count —
// including runs truncated by the global MaxClusters/MaxNodes caps, which
// bound the whole run rather than each worker. ctx (nil means background) is
// observed by every miner at node and candidate boundaries; once it expires
// the call stops promptly and returns the context's error, with no partial
// result, since the cancellation point is not deterministic. A panic on a
// worker goroutine is contained and returned as a *PanicError. With Visit
// set, the returned Result carries only Stats.
func MineWith(ctx context.Context, m *matrix.Matrix, p Params, o Options) (*Result, error) {
	sp := o.Observer.traceSpan()
	_, kern, err := resolveModels(m, p, o.Models, sp)
	if err != nil {
		return nil, err
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, m.Cols())
	if workers <= 1 && o.Resume == nil && !o.Checkpoint.enabled() {
		mn, err := mineSequential(ctx, m, p, kern, o.Visit, o.Observer, sp)
		if err != nil {
			return nil, err
		}
		return &Result{Clusters: mn.out, Stats: mn.stats}, nil
	}
	res := &Result{}
	visit := o.Visit
	if visit == nil {
		visit = func(b *Bicluster) bool {
			res.Clusters = append(res.Clusters, b)
			return true
		}
	}
	if res.Stats, err = mineParallel(ctx, m, p, kern, max(workers, 1), visit, o, sp); err != nil {
		return nil, err
	}
	return res, nil
}

// mineSequential runs the whole search on the calling goroutine against one
// budget. With a nil visitor the clusters accumulate on the returned miner's
// out slice; otherwise they stream to the visitor.
func mineSequential(ctx context.Context, m *matrix.Matrix, p Params, kern []rwave.Kernel, visit Visitor, o *Observer, sp *obs.Span) (*miner, error) {
	mn := newMiner(m, p, kern, newBudget(p, ctx))
	mn.obs = o
	mn.span = sp
	if visit != nil {
		mn.sink = func(b *Bicluster, _ int) bool { return visit(b) }
	}
	mn.run()
	if err := mn.bud.contextErr(); err != nil {
		return nil, err
	}
	if mn.stats.Truncated {
		sp.Add("budget_trips", 1)
	}
	return mn, nil
}

// validateInputs checks everything that gates a mining run or an index build:
// the parameters themselves (including the non-finite fence), the per-gene
// threshold count, and the absence of unimputed NaN cells.
func validateInputs(m *matrix.Matrix, p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.CustomGammas != nil && len(p.CustomGammas) != m.Rows() {
		return fmt.Errorf("core: %d CustomGammas for %d genes", len(p.CustomGammas), m.Rows())
	}
	if m.HasNaN() {
		return fmt.Errorf("core: matrix contains NaN cells; impute first (matrix.FillNaN)")
	}
	return nil
}

// prepare validates the inputs, builds the per-gene RWave models — fanning
// the construction out across CPUs for large gene counts (the models are
// independent per gene, and a parallel run shares the one resulting slice
// between all workers and reconciliation reruns) — and packs the fresh set
// into a contiguous ModelSlab (rwave.PackModels), so every downstream miner
// walks a few large cache-friendly backing arrays instead of ~nGenes
// scattered objects. When sp is non-nil the index construction is recorded
// as an "rwave.build" child span with per-chunk children; a nil sp costs
// nothing.
func prepare(m *matrix.Matrix, p Params, sp *obs.Span) ([]*rwave.Model, error) {
	if err := validateInputs(m, p); err != nil {
		return nil, err
	}
	bsp := sp.Start("rwave.build")
	models := rwave.BuildAllSpan(m.Rows(), func(g int) *rwave.Model {
		switch {
		case p.CustomGammas != nil:
			return rwave.BuildAbsolute(m, g, p.CustomGammas[g])
		case p.AbsoluteGamma:
			return rwave.BuildAbsolute(m, g, p.Gamma)
		default:
			return rwave.Build(m, g, p.Gamma)
		}
	}, bsp)
	// Packing rebinds the models' storage in place; it must happen here,
	// while the freshly built set is still exclusively ours. Prebuilt sets
	// arriving through resolveModels are already packed (they came from
	// BuildModels) and may be shared concurrently, so they are never
	// repacked.
	rwave.PackModels(models)
	bsp.End()
	return models, nil
}

// resolveModels is the single entry every miner front-end funnels through:
// with nil models it validates and builds (prepare); with a caller-supplied
// slice it still validates the inputs — the prebuilt index must have come
// from an equivalent BuildModels call, which these checks keep honest — and
// only verifies the gene count, since re-deriving the per-gene thresholds to
// cross-check each Model would cost as much as rebuilding. Alongside the
// models it returns their flat kernel views (rwave.Kernels), which every
// miner of the run shares read-only.
func resolveModels(m *matrix.Matrix, p Params, models []*rwave.Model, sp *obs.Span) ([]*rwave.Model, []rwave.Kernel, error) {
	if models == nil {
		built, err := prepare(m, p, sp)
		if err != nil {
			return nil, nil, err
		}
		return built, rwave.Kernels(built), nil
	}
	if err := validateInputs(m, p); err != nil {
		return nil, nil, err
	}
	if len(models) != m.Rows() {
		return nil, nil, fmt.Errorf("core: %d prebuilt models for %d genes", len(models), m.Rows())
	}
	return models, rwave.Kernels(models), nil
}

type miner struct {
	m     *matrix.Matrix
	p     Params
	kern  []rwave.Kernel // flat per-gene model views, shared read-only across the run
	bud   *budget        // global caps + cancellation, shared across workers
	dedup dedupSet       // pruning (3b) duplicate-state suppression
	out   []*Bicluster
	// sink, when set, receives each cluster as it is found together with the
	// miner-local node ordinal of its emission (stats.Nodes at that moment),
	// instead of the cluster landing on out. Returning false stops this
	// miner like a cap trip.
	sink  func(b *Bicluster, node int) bool
	obs   *Observer // optional live progress counters, shared across workers
	span  *obs.Span // optional trace parent: run() nests one span per subtree
	stats Stats
	stop  bool // set when a cap fires, the sink stops, or the budget cancels

	sc scratch // reusable hot-path working storage (see scratch.go)
}

// newMiner builds one mining session bound to the given (usually shared)
// budget. Every construction site must come through here so the scratch
// arena and dedup set are always initialized. kern is the run's shared flat
// view of the model set (resolveModels builds it once per run).
func newMiner(m *matrix.Matrix, p Params, kern []rwave.Kernel, bud *budget) *miner {
	return &miner{m: m, p: p, kern: kern, bud: bud, dedup: newDedupSet()}
}

func (mn *miner) run() {
	for c := 0; c < mn.m.Cols() && !mn.stop; c++ {
		if mn.span == nil {
			mn.runFrom(c)
			continue
		}
		sp := mn.span.Start("subtree")
		n0, k0 := mn.stats.Nodes, mn.stats.Clusters
		mn.runFrom(c)
		sp.SetInt("cond", int64(c))
		sp.Add("nodes", int64(mn.stats.Nodes-n0))
		sp.Add("clusters", int64(mn.stats.Clusters-k0))
		sp.End()
	}
}

// pushChain appends c to the chain stack and marks it in the membership
// bitset; popChain undoes exactly one push. Biclusters copy the chain on
// emission, so the stack never escapes.
func (mn *miner) pushChain(c int) {
	mn.sc.chain = append(mn.sc.chain, c)
	mn.sc.inChain.set(c)
}

func (mn *miner) popChain() {
	n := len(mn.sc.chain) - 1
	mn.sc.inChain.clear(mn.sc.chain[n])
	mn.sc.chain = mn.sc.chain[:n]
}

// runFrom mines the level-1 subtree rooted at starting condition c. Every
// gene joins in each direction it could sustain (pruning (2) estimates the
// reachable chain length as MaxUp/DownChainFrom), so the root member list
// can hold up to two entries per gene.
func (mn *miner) runFrom(c int) {
	mn.sc.ensure(mn.m.Rows(), mn.m.Cols())
	nGenes := mn.m.Rows()
	members := mn.sc.root[:0]
	for g := 0; g < nGenes; g++ {
		k := &mn.kern[g]
		r := k.Rank[c]
		if mn.p.DisableChainLengthPruning || k.UpLen[r] >= mn.p.MinC {
			members = append(members, member{g, true})
		} else {
			mn.stats.MembersDroppedByLength++
		}
		if mn.p.DisableChainLengthPruning || k.DownLen[r] >= mn.p.MinC {
			members = append(members, member{g, false})
		} else {
			mn.stats.MembersDroppedByLength++
		}
	}
	mn.pushChain(c)
	mn.mineC2(members)
	mn.popChain()
}

// mineC2 is the MineC² subroutine of Figure 5; the current chain lives on
// the miner's chain stack.
func (mn *miner) mineC2(members []member) {
	if mn.stop || mn.bud.stopped() {
		mn.stop = true
		return
	}
	mn.stats.Nodes++
	if mn.obs != nil {
		mn.obs.nodes.Add(1)
	}
	if !mn.bud.chargeNode() {
		mn.stats.Truncated = true
		mn.stop = true
		return
	}

	// Pruning (1): not enough distinct genes.
	if distinctGenes(members) < mn.p.MinG {
		mn.stats.PrunedMinG++
		return
	}
	// Pruning (3a): p-members can never reach a majority in this subtree.
	pCount := 0
	for _, mb := range members {
		if mb.up {
			pCount++
		}
	}
	if !mn.p.DisableMajorityPruning && 2*pCount < mn.p.MinG {
		mn.stats.PrunedMajority++
		return
	}

	// Output test + pruning (3b).
	if len(mn.sc.chain) >= mn.p.MinC && mn.isRepresentative(members, pCount) {
		b := mn.toBicluster(members)
		if !mn.dedup.add(b) {
			mn.stats.Duplicates++
			if !mn.p.DisableDedupPruning {
				return // the subtree rooted here was fully explored before
			}
		} else {
			mn.stats.Clusters++
			if mn.obs != nil {
				mn.obs.clusters.Add(1)
			}
			delivered := true
			if mn.sink != nil {
				delivered = mn.sink(b, mn.stats.Nodes)
			} else {
				mn.out = append(mn.out, b)
			}
			if !mn.bud.chargeCluster() || !delivered {
				mn.stats.Truncated = true
				mn.stop = true
				return
			}
		}
	}

	mn.extend(members, pCount)
}

// extend generates candidate successor conditions for the chain tail and
// recurses into every validated sliding window. All working storage comes
// from the depth's scratch frame; the chain stack grows by the candidate
// condition around each recursion.
func (mn *miner) extend(members []member, pCount int) {
	depth := len(mn.sc.chain)
	f := mn.sc.frame(depth)
	last := mn.sc.chain[depth-1]

	cand := f.cand[:0]
	if mn.p.NaiveCandidates {
		// Walk the chain bitset one 64-condition word at a time and emit the
		// complement: identical to testing every condition, at 1/64th the
		// branches.
		cand = mn.sc.inChain.appendClear(cand, mn.m.Cols())
	} else {
		// Scan only the regulation successors of the chain tail over the
		// p-members' RWave models (justified by pruning (3a): a candidate
		// supported by no p-member cannot lead to a representative chain).
		// Seeding the dedup bitset with the chain membership (one word-wise
		// copy) folds the two per-condition tests of the loop into one.
		seen := mn.sc.candSeen
		seen.copyFrom(mn.sc.inChain)
		for _, mb := range members {
			if !mb.up {
				continue
			}
			k := &mn.kern[mb.gene]
			order := k.Order
			for r := k.SuccStart[k.Rank[last]]; r < len(order); r++ {
				c := order[r]
				if !seen.has(c) {
					seen.set(c)
					cand = append(cand, c)
				}
			}
		}
		seen.zero() // leave the shared bitset empty for the next extend
		slices.Sort(cand)
	}
	f.cand = cand

	for _, ci := range cand {
		if mn.stop || mn.bud.stopped() {
			mn.stop = true
			return
		}
		mn.stats.CandidatesExamined++
		ext := mn.matchCandidate(members, last, ci, f)
		if len(ext) == 0 {
			continue
		}
		f.win = maximalWindows(f.win[:0], ext, mn.p.Epsilon, mn.p.MinG)
		if len(f.win) == 0 {
			mn.stats.PrunedCoherence++
			continue
		}
		mn.pushChain(ci)
		for _, w := range f.win {
			nm := f.nm[:0]
			for k := w[0]; k <= w[1]; k++ {
				nm = append(nm, ext[k].member)
			}
			sortMembers(nm)
			f.nm = nm
			mn.mineC2(nm)
		}
		mn.popChain()
	}
}

// matchCandidate returns the members of the current node that extend to
// chain+ci — p-members for which ci is a regulation successor of the tail,
// n-members for which it is a regulation predecessor — each with its
// Equation 7 coherence score, sorted by score. The result lives in the
// frame's extension buffer and is valid until the next call on that frame.
func (mn *miner) matchCandidate(members []member, last, ci int, f *frame) []extMember {
	chain := mn.sc.chain
	chainLen := len(chain)
	scored := chainLen >= 2
	var c0, c1 int
	if scored {
		c0, c1 = chain[0], chain[1]
	}
	prune := !mn.p.DisableChainLengthPruning
	minC := mn.p.MinC
	ext := f.ext[:0]
	for _, mb := range members {
		// Every test below is a flat array load on the gene's kernel view:
		// the Lemma 3.1 frontier (SuccStart/PredEnd) and the chain-length
		// bound (UpLen/DownLen) were memoized at build time, and the
		// Equation 7 values come from the condition-indexed row copy, so the
		// member loop does arithmetic, not binary searches.
		k := &mn.kern[mb.gene]
		rLast, rCi := k.Rank[last], k.Rank[ci]
		if mb.up {
			if rCi < k.SuccStart[rLast] {
				continue
			}
			if prune && chainLen+k.UpLen[rCi] < minC {
				mn.stats.MembersDroppedByLength++
				continue
			}
		} else {
			if rCi > k.PredEnd[rLast] {
				continue
			}
			if prune && chainLen+k.DownLen[rCi] < minC {
				mn.stats.MembersDroppedByLength++
				continue
			}
		}
		h := 1.0
		if scored {
			// Equation 7: relative step size against the baseline step of the
			// first two chain conditions. γ_i = 0 admits regulation steps of
			// denormal (or, for an externally supplied chain, zero) magnitude,
			// so the quotient can overflow to ±Inf or degenerate to NaN. A
			// non-finite score can never satisfy an ε-window with any other
			// member, and NaN would corrupt the sort below, so such members
			// are dropped here and counted in stats.NonFiniteH.
			v := k.ValueByCond
			base := v[c1] - v[c0]
			h = (v[ci] - v[last]) / base
			if math.IsInf(h, 0) || math.IsNaN(h) {
				mn.stats.NonFiniteH++
				continue
			}
		}
		ext = append(ext, extMember{member{mb.gene, mb.up}, h})
	}
	f.ext = ext
	sortExtMembers(ext)
	return ext
}

// isRepresentative implements the canonical-direction rule: the chain whose
// compliant genes form the majority is the representative; ties go to the
// chain starting at the larger condition id.
func (mn *miner) isRepresentative(members []member, pCount int) bool {
	nCount := len(members) - pCount
	if pCount != nCount {
		return pCount > nCount
	}
	chain := mn.sc.chain
	return chain[0] > chain[len(chain)-1]
}

// toBicluster materializes the current node as an escaping Bicluster.
// Members arrive sorted by (gene, direction), so the split member lists are
// already in ascending gene order.
func (mn *miner) toBicluster(members []member) *Bicluster {
	nP := 0
	for _, mb := range members {
		if mb.up {
			nP++
		}
	}
	b := &Bicluster{Chain: append(make([]int, 0, len(mn.sc.chain)), mn.sc.chain...)}
	// An empty member list stays nil, exactly as the seed's append-built
	// slices did: report JSON and checkpoint byte-equality depend on it.
	if nP > 0 {
		b.PMembers = make([]int, 0, nP)
	}
	if nN := len(members) - nP; nN > 0 {
		b.NMembers = make([]int, 0, nN)
	}
	for _, mb := range members {
		if mb.up {
			b.PMembers = append(b.PMembers, mb.gene)
		} else {
			b.NMembers = append(b.NMembers, mb.gene)
		}
	}
	return b
}

// maximalWindows appends to dst the index ranges [l, r] (inclusive) of all
// maximal sliding windows over the score-sorted ext slice whose H spread is
// at most eps and whose size is at least minLen.
func maximalWindows(dst [][2]int, ext []extMember, eps float64, minLen int) [][2]int {
	r := 0
	prevR := -1
	for l := 0; l < len(ext); l++ {
		if r < l {
			r = l
		}
		for r+1 < len(ext) && ext[r+1].h-ext[l].h <= eps {
			r++
		}
		if r-l+1 >= minLen && r > prevR {
			dst = append(dst, [2]int{l, r})
			prevR = r
		}
	}
	return dst
}

func distinctGenes(ms []member) int {
	// ms is sorted by gene.
	n := 0
	prev := -1
	for _, mb := range ms {
		if mb.gene != prev {
			n++
			prev = mb.gene
		}
	}
	return n
}
