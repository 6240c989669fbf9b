package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
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
	// Subtrees holds each level-1 subtree's isolated Stats, indexed by
	// starting condition. Every run that ends untruncated records them — a
	// resumed run takes those of the subtrees its checkpoint settled from
	// Checkpoint.Subtrees; it is nil otherwise. A later run over an appended
	// matrix reuses them through Options.Parent.
	Subtrees []Stats
	// Incremental reports how a run with Options.Parent reused it; nil
	// when the run had no parent.
	Incremental *IncrementalInfo
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
	// no Resume, Checkpoint, splice from Parent or Share, the sequential
	// miner runs on the calling goroutine. With Share set, a negative count
	// runs no local worker: the queue's taker mines every root.
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
	// Resume.Delivered(), and the returned Stats and Subtrees are the
	// uninterrupted run's.
	Resume *Checkpoint
	// Checkpoint emits snapshots as the run advances.
	Checkpoint CheckpointConfig
	// Models reuses a prebuilt RWave model set from BuildModels on the same
	// matrix with a ModelKey-equivalent Params; nil builds one for the run.
	Models *rwave.Set
	// Parent, when set, is a settled run over a matrix that this one grew
	// from by appended conditions. Every subtree the appended conditions
	// cannot reach is spliced from it unmined; the output is still exactly
	// a cold mine's. Result.Incremental reports the split, or why the run
	// mined cold instead.
	Parent *Parent
	// Share, when set, opens the run's queue of level-1 roots to a caller
	// that mines some of them elsewhere, such as a distributed coordinator
	// leasing them to remote workers (see SubtreeQueue). MineWith calls it
	// once, before the first root is dispatched, and calls the function it
	// returns once the run has ended.
	Share func(q *SubtreeQueue) (unshare func())
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
// result, since the cancellation point is not deterministic. The same holds
// when a run that stops early for any other reason — a visitor stop or a
// cap — finds the context done by then: every route returns the context's
// error, so a visitor that cancels the context and stops gets one outcome.
// A panic on a worker goroutine is contained and returned as a *PanicError.
// With Visit set, the returned Result carries only Stats.
func MineWith(ctx context.Context, m *matrix.Matrix, p Params, o Options) (*Result, error) {
	sp := o.Observer.traceSpan()
	set, err := resolveModels(m, p, o.Models, sp)
	if err != nil {
		return nil, err
	}
	workers := o.Workers
	switch {
	case workers < 0 && o.Share != nil:
		workers = 0
	case workers <= 0:
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, m.Cols())
	res := &Result{}
	var spliced []*SubtreePartial
	if o.Parent != nil {
		var info IncrementalInfo
		spliced, info = planSplice(m, p, set, o.Parent)
		res.Incremental = &info
	}
	if workers <= 1 && o.Share == nil && o.Resume == nil && !o.Checkpoint.enabled() && spliced == nil {
		mn, err := mineSequential(ctx, m, p, set, o.Visit, o.Observer, sp)
		if err != nil {
			return nil, err
		}
		res.Clusters, res.Stats = mn.out, mn.stats
		if !mn.stats.Truncated {
			res.Subtrees = mn.subtrees
		}
		return res, nil
	}
	visit := o.Visit
	if visit == nil {
		visit = func(b *Bicluster) bool {
			res.Clusters = append(res.Clusters, b)
			return true
		}
	}
	if spliced != nil {
		sp = sp.Start("incremental.mine")
		if sp != nil {
			sp.SetInt("subtrees_mined", int64(res.Incremental.SubtreesMined))
			sp.SetInt("subtrees_reused", int64(res.Incremental.SubtreesReused))
			defer sp.End()
		}
	}
	if o.Share == nil {
		workers = max(workers, 1)
	}
	if res.Stats, res.Subtrees, err = mineParallel(ctx, m, p, set, workers, visit, o, sp, spliced); err != nil {
		return nil, err
	}
	return res, nil
}

// mineSequential runs the whole search on the calling goroutine against one
// budget. With a nil visitor the clusters accumulate on the returned miner's
// out slice; otherwise they stream to the visitor.
func mineSequential(ctx context.Context, m *matrix.Matrix, p Params, set *rwave.Set, visit Visitor, o *Observer, sp *obs.Span) (*miner, error) {
	mn := newMiner(m, p, set, newBudget(p, ctx))
	mn.obs = o
	mn.span = sp
	if visit != nil {
		mn.sink = func(b *Bicluster, _ int) bool { return visit(b) }
	}
	mn.run()
	if err := mn.bud.contextErr(); err != nil {
		return nil, err
	}
	if mn.stop && ctx != nil && ctx.Err() != nil {
		// The parallel route's reconciliation rerun observes the expired
		// context after such a stop; the sequential route must agree.
		return nil, ctx.Err()
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

// prepare validates the inputs and builds m's model set under p's
// γ-scheme. The build fans out across CPUs for large gene counts — the
// models are independent per gene, and a parallel run shares the one
// resulting set between all workers and reconciliation reruns. When sp is
// non-nil the index construction is recorded as an "rwave.build" child span
// with per-chunk children; a nil sp costs nothing.
func prepare(m *matrix.Matrix, p Params, sp *obs.Span) (*rwave.Set, error) {
	if err := validateInputs(m, p); err != nil {
		return nil, err
	}
	bsp := sp.Start("rwave.build")
	set, _ := buildSet(m, p, nil, bsp)
	bsp.End()
	return set, nil
}

// buildSet is the one model-set builder behind BuildModels and
// RepairModels: gene g's threshold is gammaAbsFor(m, p, g), and parent, when
// non-nil, is the set of a matrix m grew from by appended conditions (see
// rwave.BuildSet). It returns the set and the number of genes repaired.
func buildSet(m *matrix.Matrix, p Params, parent *rwave.Set, sp *obs.Span) (*rwave.Set, int) {
	return rwave.BuildSet(m, func(g int) float64 { return gammaAbsFor(m, p, g) }, parent, sp)
}

// resolveModels is the single entry every miner front-end funnels through:
// with a nil set it validates and builds (prepare); with a caller-supplied
// set it still validates the inputs — the prebuilt index must have come from
// an equivalent BuildModels call, which these checks keep honest — and
// requires the set's genes × conditions to be the matrix's. The per-gene
// thresholds are not re-derived: cross-checking each model would cost as
// much as rebuilding. Every miner of the run shares the set read-only.
func resolveModels(m *matrix.Matrix, p Params, set *rwave.Set, sp *obs.Span) (*rwave.Set, error) {
	if set == nil {
		return prepare(m, p, sp)
	}
	if err := validateInputs(m, p); err != nil {
		return nil, err
	}
	if set.Genes() != m.Rows() || set.Conditions() != m.Cols() {
		return nil, fmt.Errorf("core: prebuilt model set is %d×%d, matrix is %d×%d",
			set.Genes(), set.Conditions(), m.Rows(), m.Cols())
	}
	return set, nil
}

type miner struct {
	m     *matrix.Matrix
	p     Params
	set   *rwave.Set   // the run's model set, shared read-only across the run
	tab   rwave.Tables // the set's condition-pair tables (chain lengths 1 and 2)
	bud   *budget      // global caps + cancellation, shared across workers
	dedup dedupSet     // pruning (3b) duplicate-state suppression
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

	// subtrees records each level-1 subtree's isolated Stats as run() goes.
	subtrees []Stats

	sc scratch // reusable hot-path working storage (see scratch.go)
}

// newMiner builds one mining session bound to the given (usually shared)
// budget. Every construction site must come through here so the scratch
// arena and dedup set are always initialized. set is the run's shared model
// set (resolveModels resolves it once per run); its condition-pair tables
// come with it.
func newMiner(m *matrix.Matrix, p Params, set *rwave.Set, bud *budget) *miner {
	return &miner{m: m, p: p, set: set, tab: *set.Tables(), bud: bud, dedup: newDedupSet()}
}

// run mines every level-1 subtree in starting-condition order. Each subtree
// counts into fresh Stats, recorded on subtrees and then folded into the
// run's total: a subtree's Stats do not depend on the ones mined before it.
func (mn *miner) run() {
	var total Stats
	mn.subtrees = make([]Stats, 0, mn.m.Cols())
	for c := 0; c < mn.m.Cols() && !mn.stop; c++ {
		sp := mn.span.Start("subtree")
		mn.stats = Stats{}
		mn.runFrom(c)
		total.Add(mn.stats)
		mn.subtrees = append(mn.subtrees, mn.stats)
		if sp != nil {
			sp.SetInt("cond", int64(c))
			sp.Add("nodes", int64(mn.stats.Nodes))
			sp.Add("clusters", int64(mn.stats.Clusters))
			sp.End()
		}
	}
	mn.stats = total
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
// can hold up to two entries per gene. The table's chain-length rows at c
// are exactly those members.
func (mn *miner) runFrom(c int) {
	sc := &mn.sc
	sc.ensure(mn.m.Rows(), mn.m.Cols())
	minC := rootChainBound(mn.p)
	n := sc.ps[0].copyRow(mn.tab.UpLen(c, minC)) + sc.ns[0].copyRow(mn.tab.DownLen(c, minC))
	mn.stats.MembersDroppedByLength += 2*mn.m.Rows() - n
	members := appendMembers(sc.root[:0], sc.ps[0], sc.ns[0])
	mn.pushChain(c)
	mn.mineC2(members)
	mn.popChain()
}

// rootChainBound is the chain length a root member must be able to reach:
// MinC under pruning (2), otherwise 1, which every gene reaches.
func rootChainBound(p Params) int {
	if p.DisableChainLengthPruning {
		return 1
	}
	return p.MinC
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
// recurses into every validated sliding window. Chain lengths 1 and 2 run on
// gene bitsets (extendBits); from length 3 on, the member list is tested
// gene by gene. All working storage comes from the depth's scratch frame;
// the chain stack grows by the candidate condition around each recursion.
func (mn *miner) extend(members []member, pCount int) {
	depth := len(mn.sc.chain)
	f := mn.sc.frame(depth)
	if depth <= 2 {
		mn.extendBits(depth, f)
		return
	}
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
		seen, set := mn.sc.candSeen, mn.set
		seen.copyFrom(mn.sc.inChain)
		for _, mb := range members {
			if !mb.up {
				continue
			}
			for _, c := range set.Model(mb.gene).Successors(last) {
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
		mn.descend(ci, ext, f)
	}
}

// descend validates the sliding windows of a candidate's score-sorted
// extension list (pruning (4)) and mines each as a child node of chain+ci.
func (mn *miner) descend(ci int, ext []extMember, f *frame) {
	f.win = maximalWindows(f.win[:0], ext, mn.p.Epsilon, mn.p.MinG)
	if len(f.win) == 0 {
		mn.stats.PrunedCoherence++
		return
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

// extendBits is extend at chain lengths 1 and 2, where nearly all member
// checks happen, evaluated on gene bitsets: the node's members are the sets
// sc.ps/ns of its level, and a candidate's survivors are word-wise ANDs with
// the condition-pair tables. It produces exactly the candidates, Stats and
// children of the sparse loop:
//
//   - candidates are the off-chain conditions some p-member regulates up to
//     from the tail (P ∧ Up(last, ci) ≠ ∅), ascending — the successor scan's
//     set and order; NaiveCandidates takes every off-chain condition;
//   - survivors are P ∧ Up(last, ci) ∧ UpLen(ci, MinC−ℓ) and
//     N ∧ Up(ci, last) ∧ DownLen(ci, MinC−ℓ), and the regulated members the
//     length rows remove are the MembersDroppedByLength of pruning (2);
//   - at ℓ = 1 every score is 1, so the survivors are one window, already
//     in member order, with no Equation 7 work and no sort;
//   - at ℓ = 2 only survivors are scored, and mayCohere rejects most
//     candidates before the comparison sort.
func (mn *miner) extendBits(depth int, f *frame) {
	sc := &mn.sc
	last := sc.chain[depth-1]
	ps := sc.ps[depth-1]
	sp, sn := sc.ps[depth], sc.ns[depth] // survivors: the child's members at ℓ = 1
	cand := f.cand[:0]
	if mn.p.NaiveCandidates {
		cand = sc.inChain.appendClear(cand, mn.m.Cols())
	} else {
		for ci := 0; ci < mn.m.Cols(); ci++ {
			if !sc.inChain.has(ci) && ps.intersects(mn.tab.Up(last, ci)) {
				cand = append(cand, ci)
			}
		}
	}
	f.cand = cand

	for _, ci := range cand {
		if mn.stop || mn.bud.stopped() {
			mn.stop = true
			return
		}
		mn.stats.CandidatesExamined++
		n := mn.survivors(depth, ci)
		if n == 0 {
			continue
		}
		if depth == 1 {
			if n < mn.p.MinG {
				mn.stats.PrunedCoherence++
				continue
			}
			f.nm = appendMembers(f.nm[:0], sp, sn)
			mn.pushChain(ci)
			mn.mineC2(f.nm)
			mn.popChain()
			continue
		}
		ext := mn.scoreSurvivors(ci, sp, sn, f)
		if len(ext) == 0 {
			continue
		}
		if !mn.mayCohere(ext) {
			mn.stats.PrunedCoherence++
			continue
		}
		sortExtMembers(ext)
		mn.descend(ci, ext, f)
	}
}

// survivors stores into the next level's sets the members of the level-depth
// node that extend to chain+ci — p-members for which ci is a regulation
// successor of the tail, n-members for which it is a predecessor, both
// still able to reach MinC (pruning (2), whose drops it counts) — and
// returns how many there are.
func (mn *miner) survivors(depth, ci int) int {
	sc, t := &mn.sc, &mn.tab
	last := sc.chain[depth-1]
	sp, sn := sc.ps[depth], sc.ns[depth]
	nP := sp.and(sc.ps[depth-1], t.Up(last, ci))
	nN := sn.and(sc.ns[depth-1], t.Up(ci, last))
	if bound := mn.p.MinC - depth; bound > 1 && !mn.p.DisableChainLengthPruning {
		kP, kN := sp.keep(t.UpLen(ci, bound)), sn.keep(t.DownLen(ci, bound))
		mn.stats.MembersDroppedByLength += nP - kP + nN - kN
		return kP + kN
	}
	return nP + nN
}

// scoreSurvivors returns the level-2 survivors sp/sn of candidate ci with
// their Equation 7 scores, dropping and counting non-finite scores exactly as
// matchCandidate does. The list is in no particular order (it is sorted
// totally before descend) and lives in the frame's extension buffer.
func (mn *miner) scoreSurvivors(ci int, sp, sn geneSet, f *frame) []extMember {
	ext := mn.appendScored(f.ext[:0], ci, sp, true)
	ext = mn.appendScored(ext, ci, sn, false)
	f.ext = ext
	return ext
}

// appendScored appends the members of set in direction up, scored against
// the level-2 chain for candidate ci.
func (mn *miner) appendScored(ext []extMember, ci int, set geneSet, up bool) []extMember {
	c0, c1 := mn.sc.chain[0], mn.sc.chain[1]
	models := mn.set
	for w, x := range set {
		for ; x != 0; x &= x - 1 {
			g := w<<6 | bits.TrailingZeros64(x)
			mod := models.Model(g)
			h := (mod.ValueOf(ci) - mod.ValueOf(c1)) / (mod.ValueOf(c1) - mod.ValueOf(c0))
			if math.IsInf(h, 0) || math.IsNaN(h) {
				mn.stats.NonFiniteH++
				continue
			}
			ext = append(ext, extMember{member{g, up}, h})
		}
	}
	return ext
}

// maxBucketQuotient bounds |H/ε| for the bucket filter. Below 2^53 adjacent
// float64 values are at most 1 apart, so rounding moves a computed bucket
// floor(H/ε) by at most one; above it the filter is skipped.
const maxBucketQuotient = 1 << 53

// mayCohere reports whether some window of the extension's scores with
// spread <= ε can hold MinG members — whether maximalWindows would find any.
// It counts the scores in ε-wide buckets floor(H/ε) first, direct-mapped mod
// 256 so collisions only overcount. A window of spread <= ε covers two
// adjacent buckets in exact arithmetic; the float subtraction that accepts
// it and the rounded quotients can each widen that by one, so its members
// lie in at most four adjacent buckets, and if no four adjacent slots reach
// MinG no window can. Candidates that pass are confirmed on the sorted bare
// scores, so the answer is exact either way.
func (mn *miner) mayCohere(ext []extMember) bool {
	minG, eps := mn.p.MinG, mn.p.Epsilon
	if len(ext) < minG {
		return false
	}
	if eps > 0 && !mn.bucketsMayHold(ext, eps, minG) {
		return false
	}
	hs := mn.sc.scores[:0]
	for _, e := range ext {
		hs = append(hs, e.h)
	}
	mn.sc.scores = hs
	slices.Sort(hs)
	for l := minG - 1; l < len(hs); l++ {
		if hs[l]-hs[l-minG+1] <= eps {
			return true
		}
	}
	return false
}

// bucketsMayHold is mayCohere's bucket count: false only when no four
// adjacent ε-buckets hold minG scores. Four adjacent slots holding a score
// are covered by the four starting at their first occupied slot, so only
// windows starting at a score's own slot need a sum. Counts saturate at 255,
// and a window over a saturated slot always passes. It answers true,
// deferring to the exact check, when a quotient H/ε is too large to bucket.
func (mn *miner) bucketsMayHold(ext []extMember, eps float64, minG int) bool {
	sc := &mn.sc
	cnt := &sc.buckets
	slots := sc.slots[:0]
	found := false
	for _, e := range ext {
		q := e.h / eps
		if !(math.Abs(q) < maxBucketQuotient) {
			found = true
			break
		}
		s := uint8(int64(math.Floor(q)))
		if cnt[s] < math.MaxUint8 {
			cnt[s]++
		}
		slots = append(slots, s)
	}
	for i := 0; i < len(slots) && !found; i++ {
		s := slots[i]
		a, b, c, d := cnt[s], cnt[s+1], cnt[s+2], cnt[s+3]
		found = int(a)+int(b)+int(c)+int(d) >= minG || max(a, b, c, d) == math.MaxUint8
	}
	for _, s := range slots {
		cnt[s] = 0 // leave every slot empty for the next candidate
	}
	sc.slots = slots
	return found
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
	set := mn.set
	ext := f.ext[:0]
	for _, mb := range members {
		// Every test below is a flat array load on the gene's model: the
		// Lemma 3.1 frontier and the chain-length bound of pruning (2) were
		// memoized at build time, and the Equation 7 values come from the
		// condition-indexed row copy, so the member loop does arithmetic,
		// not binary searches.
		mod := set.Model(mb.gene)
		if mb.up {
			if !mod.IsSuccessor(last, ci) {
				continue
			}
			if prune && chainLen+mod.MaxUpChainFrom(ci) < minC {
				mn.stats.MembersDroppedByLength++
				continue
			}
		} else {
			if !mod.IsPredecessor(last, ci) {
				continue
			}
			if prune && chainLen+mod.MaxDownChainFrom(ci) < minC {
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
			base := mod.ValueOf(c1) - mod.ValueOf(c0)
			h = (mod.ValueOf(ci) - mod.ValueOf(last)) / base
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
