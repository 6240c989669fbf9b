// Package rwave implements the RWave^γ regulation model of the reg-cluster
// paper (Definition 3.1).
//
// For a single gene, the model sorts the experimental conditions in
// non-descending order of expression value and records the minimal set of
// non-embedded regulation pointers: a pointer (A, B) over sorted ranks A < B
// certifies that every condition ranked >= B is up-regulated (difference
// greater than the gene's regulation threshold γ_i) with respect to every
// condition ranked <= A. Lemma 3.1 then answers "which conditions are
// regulation predecessors/successors of c?" by locating the nearest pointer,
// and with this package's construction the answer is exact, not merely sound.
package rwave

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"regcluster/internal/matrix"
	"regcluster/internal/obs"
)

// Pointer is a regulation pointer between two sorted ranks of a gene's
// condition ordering. It certifies that value(B) - value(A) > γ, and by the
// sorted order that every rank >= B is up-regulated versus every rank <= A.
type Pointer struct {
	A, B int
}

// Model is the RWave^γ model of one gene.
//
// Besides the pointer list itself, the model memoizes the Lemma 3.1 frontier
// as two flat arrays (succStart, predEnd) and keeps a condition-indexed copy
// of the row (valueByCond), so every hot-path query — IsSuccessor,
// IsPredecessor, SuccessorStartRank, PredecessorEndRank, ValueOf — is an O(1)
// array load with no binary search and no rank indirection. The slice fields
// follow the packed slab layout (see ModelSlab): one int backing holds the
// order|rank|succStart|predEnd|upLen|downLen stripes and one float64 backing
// holds values|valueByCond, whether the model stands alone (its own
// mini-slab, allocated by BuildAbsolute) or is a view into a shared
// multi-gene slab (PackModels).
type Model struct {
	gene     int
	gamma    float64   // absolute regulation threshold γ_i
	order    []int     // rank -> condition index, non-descending by value
	rank     []int     // condition index -> rank
	values   []float64 // rank -> expression value
	pointers []Pointer // minimal non-embedded pointer set, A and B strictly increasing
	upLen    []int     // rank -> max regulation-chain length starting upward at this rank
	downLen  []int     // rank -> max regulation-chain length starting downward at this rank

	succStart   []int     // rank -> smallest successor rank (== Conditions() when none)
	predEnd     []int     // rank -> largest predecessor rank (== -1 when none)
	valueByCond []float64 // condition index -> expression value (row copy)

	// tables is the condition-pair table backing of the set this model was
	// last packed into (see Tables), slot its position in that set; nil for
	// a model that was never packed.
	tables []uint64
	slot   int

	// views holds the Kernels result of the set this model heads (slot 0)
	// once one was asked for, so every run over a shared packed set reuses
	// one slice of views; PackModels clears it.
	views atomic.Pointer[[]Kernel]
}

// slabIntStripes and slabFloatStripes are the per-gene stripe counts of the
// packed layout: every model owns slabIntStripes×n ints and slabFloatStripes×n
// float64s, n = Conditions(). PackModels and BuildAbsolute must agree on them.
const (
	slabIntStripes   = 6 // order | rank | succStart | predEnd | upLen | downLen
	slabFloatStripes = 2 // values | valueByCond
)

// bindStripes carves the model's slice fields out of a backing pair laid out
// in the slab stripe order. The three-index slices cap every view at its
// stripe boundary, so an append through a leaked view can never bleed into a
// neighbouring stripe (or gene).
func (mod *Model) bindStripes(ints []int, floats []float64, n int) {
	mod.order = ints[0*n : 1*n : 1*n]
	mod.rank = ints[1*n : 2*n : 2*n]
	mod.succStart = ints[2*n : 3*n : 3*n]
	mod.predEnd = ints[3*n : 4*n : 4*n]
	mod.upLen = ints[4*n : 5*n : 5*n]
	mod.downLen = ints[5*n : 6*n : 6*n]
	mod.values = floats[0*n : 1*n : 1*n]
	mod.valueByCond = floats[1*n : 2*n : 2*n]
}

// Build constructs the RWave^γ model for the given gene row of m using the
// paper's Equation 4 threshold: γ_i = gamma × (max_j d_ij − min_j d_ij).
// gamma must lie in [0, 1]. The guard is written as a negated conjunction so
// NaN — which compares false against every bound — is rejected too, instead
// of silently yielding a NaN threshold.
func Build(m *matrix.Matrix, gene int, gamma float64) *Model {
	if !(gamma >= 0 && gamma <= 1) {
		panic(fmt.Sprintf("rwave: relative gamma %v out of [0,1]", gamma))
	}
	return BuildAbsolute(m, gene, gamma*m.RowRange(gene))
}

// BuildAbsolute constructs the model with an explicit absolute threshold
// γ_i = gammaAbs (Section 3.1 notes that alternative per-gene thresholds may
// be plugged in; this is the hook).
func BuildAbsolute(m *matrix.Matrix, gene int, gammaAbs float64) *Model {
	if !(gammaAbs >= 0) {
		// Negated form so NaN (which fails every comparison) is rejected
		// alongside negatives, instead of poisoning the regulation pointers.
		panic(fmt.Sprintf("rwave: gamma %v must be a non-negative number", gammaAbs))
	}
	n := m.Cols()
	mod := &Model{gene: gene, gamma: gammaAbs}
	// One int and one float64 allocation cover all eight per-gene arrays:
	// the model is born in the packed stripe layout PackModels concatenates.
	mod.bindStripes(make([]int, slabIntStripes*n), make([]float64, slabFloatStripes*n), n)
	for j := 0; j < n; j++ {
		mod.order[j] = j
	}
	row := m.Row(gene)
	// Non-descending by value; ties broken by ascending condition index so
	// the model is deterministic.
	sort.SliceStable(mod.order, func(a, b int) bool {
		return row[mod.order[a]] < row[mod.order[b]]
	})
	for r, c := range mod.order {
		mod.rank[c] = r
		mod.values[r] = row[c]
		mod.valueByCond[c] = row[c]
	}
	mod.buildPointers()
	mod.buildFrontiers()
	mod.buildChainLengths()
	return mod
}

// buildPointers emits the minimal non-embedded pointer set in one
// left-to-right pass. For each rank j, pred(j) is the largest rank k < j with
// values[j]-values[k] > γ; pred is non-decreasing in j, so a two-pointer scan
// suffices. A pointer (pred(j), j) is recorded only when pred(j) advances
// past the head of the previously recorded pointer; otherwise the new pointer
// would embed an existing one, violating condition (2) of Definition 3.1.
func (mod *Model) buildPointers() {
	n := len(mod.values)
	p := 0
	lastA := -1
	for j := 0; j < n; j++ {
		for p < j && mod.values[j]-mod.values[p] > mod.gamma {
			p++
		}
		pred := p - 1
		if pred >= 0 && pred > lastA {
			mod.pointers = append(mod.pointers, Pointer{A: pred, B: j})
			lastA = pred
		}
	}
}

// buildFrontiers memoizes the Lemma 3.1 answers as flat per-rank arrays.
// successorStart(r) is the B of the first pointer with A >= r (the nearest
// pointer after r), or n when none exists; predecessorEnd(r) is the A of the
// last pointer with B <= r, or -1. Pointers have strictly increasing A and B,
// so both arrays fill in one merged linear walk — no binary search, at build
// time or ever after.
func (mod *Model) buildFrontiers() {
	n := len(mod.values)
	ptrs := mod.pointers
	i := 0 // first pointer with A >= r
	for r := 0; r < n; r++ {
		for i < len(ptrs) && ptrs[i].A < r {
			i++
		}
		if i < len(ptrs) {
			mod.succStart[r] = ptrs[i].B
		} else {
			mod.succStart[r] = n
		}
	}
	j := -1 // last pointer with B <= r
	for r := 0; r < n; r++ {
		for j+1 < len(ptrs) && ptrs[j+1].B <= r {
			j++
		}
		if j >= 0 {
			mod.predEnd[r] = ptrs[j].A
		} else {
			mod.predEnd[r] = -1
		}
	}
}

// buildChainLengths precomputes, for every rank, the length of the longest
// regulation chain that starts there and walks upward (upLen) or downward
// (downLen). Jumping to the nearest admissible rank is optimal because the
// successor (predecessor) set only shrinks (grows) with rank, so chain
// lengths are monotone in rank. Runs after buildFrontiers so the hops are
// array loads.
func (mod *Model) buildChainLengths() {
	n := len(mod.values)
	for r := n - 1; r >= 0; r-- {
		mod.upLen[r] = 1
		if b := mod.succStart[r]; b < n {
			mod.upLen[r] = 1 + mod.upLen[b]
		}
	}
	for r := 0; r < n; r++ {
		mod.downLen[r] = 1
		if a := mod.predEnd[r]; a >= 0 {
			mod.downLen[r] = 1 + mod.downLen[a]
		}
	}
}

// successorStart returns the smallest rank b such that every rank >= b is a
// regulation successor of rank r, or len(values) when r has no successors.
// It is the B of the nearest pointer after r in the sense of Lemma 3.1 (the
// pointer with minimal B among those with A >= r), memoized at build time.
func (mod *Model) successorStart(r int) int { return mod.succStart[r] }

// predecessorEnd returns the largest rank a such that every rank <= a is a
// regulation predecessor of rank r, or -1 when r has no predecessors. It is
// the A of the nearest pointer before r (the pointer with maximal B <= r),
// memoized at build time.
func (mod *Model) predecessorEnd(r int) int { return mod.predEnd[r] }

// Gene returns the row index this model was built from.
func (mod *Model) Gene() int { return mod.gene }

// Gamma returns the absolute regulation threshold γ_i.
func (mod *Model) Gamma() float64 { return mod.gamma }

// Conditions returns the number of conditions.
func (mod *Model) Conditions() int { return len(mod.order) }

// Order returns the condition index at the given sorted rank.
func (mod *Model) Order(rank int) int { return mod.order[rank] }

// Rank returns the sorted rank of condition c.
func (mod *Model) Rank(c int) int { return mod.rank[c] }

// Value returns the expression value at the given sorted rank.
func (mod *Model) Value(rank int) float64 { return mod.values[rank] }

// ValueOf returns the expression value of condition c. The flat valueByCond
// copy answers it in one load, without the rank indirection.
func (mod *Model) ValueOf(c int) float64 { return mod.valueByCond[c] }

// Pointers returns a copy of the regulation pointer list.
func (mod *Model) Pointers() []Pointer {
	out := make([]Pointer, len(mod.pointers))
	copy(out, mod.pointers)
	return out
}

// IsUpRegulated reports Reg(i, to, from) == Up: whether the gene is
// up-regulated from condition `from` to condition `to` (Equation 3), i.e.
// d[to] - d[from] > γ_i.
func (mod *Model) IsUpRegulated(from, to int) bool {
	return mod.values[mod.rank[to]]-mod.values[mod.rank[from]] > mod.gamma
}

// IsSuccessor reports whether condition succ is a regulation successor of
// condition c, answered through the pointer structure (Lemma 3.1).
func (mod *Model) IsSuccessor(c, succ int) bool {
	return mod.rank[succ] >= mod.successorStart(mod.rank[c])
}

// IsPredecessor reports whether condition pred is a regulation predecessor of
// condition c, answered through the pointer structure (Lemma 3.1).
func (mod *Model) IsPredecessor(c, pred int) bool {
	return mod.rank[pred] <= mod.predecessorEnd(mod.rank[c])
}

// SuccessorStartRank exposes successorStart by condition: the minimal rank
// whose conditions are regulation successors of c (== Conditions() if none).
func (mod *Model) SuccessorStartRank(c int) int { return mod.successorStart(mod.rank[c]) }

// PredecessorEndRank exposes predecessorEnd by condition: the maximal rank
// whose conditions are regulation predecessors of c (== -1 if none).
func (mod *Model) PredecessorEndRank(c int) int { return mod.predecessorEnd(mod.rank[c]) }

// AppendSuccessors appends the condition indices that are regulation
// successors of c to dst, in rank order, and returns the extended slice. It
// allocates only when dst lacks capacity, so callers with a reusable buffer
// pay nothing per call.
func (mod *Model) AppendSuccessors(dst []int, c int) []int {
	return append(dst, mod.order[mod.succStart[mod.rank[c]]:]...)
}

// AppendPredecessors appends the condition indices that are regulation
// predecessors of c to dst, in rank order, and returns the extended slice.
func (mod *Model) AppendPredecessors(dst []int, c int) []int {
	return append(dst, mod.order[:mod.predEnd[mod.rank[c]]+1]...)
}

// Successors returns the condition indices that are regulation successors of
// c, in rank order. It allocates a fresh slice per call; hot paths should use
// AppendSuccessors with a reusable buffer.
func (mod *Model) Successors(c int) []int {
	b := mod.succStart[mod.rank[c]]
	return mod.AppendSuccessors(make([]int, 0, len(mod.order)-b), c)
}

// Predecessors returns the condition indices that are regulation predecessors
// of c, in rank order. It allocates a fresh slice per call; hot paths should
// use AppendPredecessors with a reusable buffer.
func (mod *Model) Predecessors(c int) []int {
	a := mod.predEnd[mod.rank[c]]
	return mod.AppendPredecessors(make([]int, 0, a+1), c)
}

// MaxUpChainFrom returns the length of the longest regulation chain that
// starts at condition c and moves through successive regulation successors
// (pruning strategy (2) of the mining algorithm).
func (mod *Model) MaxUpChainFrom(c int) int { return mod.upLen[mod.rank[c]] }

// MaxDownChainFrom returns the length of the longest regulation chain that
// starts at condition c and moves through successive regulation predecessors.
func (mod *Model) MaxDownChainFrom(c int) int { return mod.downLen[mod.rank[c]] }

// MaxChain returns the length of the longest regulation chain anywhere in the
// model (== MaxUpChainFrom of the lowest-ranked condition when non-trivial).
func (mod *Model) MaxChain() int {
	best := 0
	for r := range mod.upLen {
		if mod.upLen[r] > best {
			best = mod.upLen[r]
		}
	}
	return best
}

// String renders the model in the style of Figure 3: the sorted condition
// list with pointer positions.
func (mod *Model) String() string {
	s := fmt.Sprintf("RWave(g%d, γ=%.4g): ", mod.gene, mod.gamma)
	for r, c := range mod.order {
		if r > 0 {
			s += " "
		}
		s += fmt.Sprintf("c%d(%.4g)", c, mod.values[r])
	}
	s += " pointers:"
	for _, p := range mod.pointers {
		s += fmt.Sprintf(" %d↶%d", p.A, p.B)
	}
	return s
}

// BuildAll constructs models for every gene of m with the Equation 4 relative
// threshold, fanning out across CPUs for large gene counts.
func BuildAll(m *matrix.Matrix, gamma float64) []*Model {
	if !(gamma >= 0 && gamma <= 1) {
		// Validate once up front (NaN included) so a bad threshold still
		// panics on the calling goroutine, not inside a build worker.
		panic(fmt.Sprintf("rwave: relative gamma %v out of [0,1]", gamma))
	}
	return BuildAllFunc(m.Rows(), func(g int) *Model {
		return Build(m, g, gamma)
	})
}

// buildParallelMinGenes is the gene count below which the fan-out overhead
// outweighs the per-gene O(n log n) build work and BuildAllFunc stays
// sequential; buildChunk is the number of genes one worker claims per grab.
const (
	buildParallelMinGenes = 128
	buildChunk            = 32
)

// BuildAllFunc constructs one model per gene index [0, n) with the supplied
// builder. Models are independent per gene, so for large n the construction
// runs on up to GOMAXPROCS goroutines; the result is identical to a
// sequential loop (each slot is written exactly once by whoever claims it).
// The builder must be safe for concurrent calls with distinct gene indices —
// the rwave builders only read their own matrix row, so they are. A builder
// panic is re-raised on the calling goroutine.
func BuildAllFunc(n int, build func(g int) *Model) []*Model {
	return BuildAllSpan(n, build, nil)
}

// BuildAllSpan is BuildAllFunc with phase tracing: when sp is non-nil, each
// worker records one child span per claimed gene chunk (attrs lo/hi), and sp
// itself collects genes/workers attributes — the per-phase breakdown of the
// index construction. A nil sp is free: the spans degrade to no-ops without
// allocating, so the zero-allocation mining hot path is untouched.
func BuildAllSpan(n int, build func(g int) *Model, sp *obs.Span) []*Model {
	models := make([]*Model, n)
	workers := runtime.GOMAXPROCS(0)
	if n < buildParallelMinGenes || workers <= 1 {
		sp.SetInt("genes", int64(n))
		sp.SetInt("workers", 1)
		csp := sp.Start("rwave.chunk")
		if csp != nil {
			csp.SetInt("lo", 0)
			csp.SetInt("hi", int64(n))
		}
		for g := range models {
			models[g] = build(g)
		}
		csp.End()
		return models
	}
	if max := (n + buildChunk - 1) / buildChunk; workers > max {
		workers = max
	}
	sp.SetInt("genes", int64(n))
	sp.SetInt("workers", int64(workers))
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicVal any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicVal == nil {
						panicVal = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				lo := int(next.Add(buildChunk)) - buildChunk
				if lo >= n {
					return
				}
				hi := lo + buildChunk
				if hi > n {
					hi = n
				}
				csp := sp.Start("rwave.chunk")
				if csp != nil {
					csp.SetInt("lo", int64(lo))
					csp.SetInt("hi", int64(hi))
				}
				for g := lo; g < hi; g++ {
					models[g] = build(g)
				}
				csp.End()
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	return models
}
