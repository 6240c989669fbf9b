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
//
// A mining run uses the models of every gene of a matrix at once: a Set,
// built in place by BuildSet (set.go).
package rwave

import (
	"fmt"
	"slices"

	"regcluster/internal/matrix"
)

// Pointer is a regulation pointer between two sorted ranks of a gene's
// condition ordering. It certifies that value(B) - value(A) > γ, and by the
// sorted order that every rank >= B is up-regulated versus every rank <= A.
type Pointer struct {
	A, B int
}

// Model is the RWave^γ model of one gene.
//
// The model memoizes the Lemma 3.1 frontier as two flat arrays (succStart,
// predEnd) and keeps a condition-indexed copy of the row (valueByCond), so
// every hot-path query — IsSuccessor, IsPredecessor, SuccessorStartRank,
// PredecessorEndRank, MaxUpChainFrom, ValueOf — is a few O(1) array loads
// with no binary search; the miner's inner loops call these methods, which
// inline to the loads. The slice fields are the stripes of one int and one
// float64 backing (bindStripes): a Set's models view the set's shared
// backings, and a model from Build owns a backing of its own. The pointer
// list itself is not stored; Pointers re-derives it.
type Model struct {
	rank        []int     // condition index -> rank
	succStart   []int     // rank -> smallest successor rank (== Conditions() when none)
	predEnd     []int     // rank -> largest predecessor rank (== -1 when none)
	upLen       []int     // rank -> max regulation-chain length starting upward at this rank
	downLen     []int     // rank -> max regulation-chain length starting downward at this rank
	valueByCond []float64 // condition index -> expression value (row copy)
	order       []int     // rank -> condition index, non-descending by value
	values      []float64 // rank -> expression value
	gene        int
	gamma       float64 // absolute regulation threshold γ_i
}

// intStripes and floatStripes are the per-gene stripe counts of the
// backings: every model owns intStripes×n ints and floatStripes×n float64s,
// n = Conditions().
const (
	intStripes   = 6 // order | rank | succStart | predEnd | upLen | downLen
	floatStripes = 2 // values | valueByCond
)

// bindStripes carves the model's slice fields out of a backing pair laid out
// in the stripe order. The three-index slices cap every view at its stripe
// boundary, so an append through a leaked view can never bleed into a
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

// newModel returns an unfilled model of n conditions with a backing of its
// own.
func newModel(n int) *Model {
	mod := &Model{}
	mod.bindStripes(make([]int, intStripes*n), make([]float64, floatStripes*n), n)
	return mod
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
// be plugged in; this is the hook). It runs the fill a Set's build runs for
// every gene, into a backing of its own.
func BuildAbsolute(m *matrix.Matrix, gene int, gammaAbs float64) *Model {
	mod := newModel(m.Cols())
	var b builder
	b.fill(mod, m, gene, gammaAbs, nil)
	return mod
}

// builder is one build worker's scratch, reused across the genes it fills:
// the appended conditions a repair sorts (see repair.go).
type builder struct {
	fresh []int
}

// fill builds the model of gene of m under the absolute threshold gamma into
// mod's stripes. When old is the same gene's model over a prefix of m's
// conditions under the same threshold (repairable), the appended conditions
// are spliced into old's order instead of sorting the whole row, and fill
// reports true; everything after the ordering is the same linear passes
// either way.
func (b *builder) fill(mod *Model, m *matrix.Matrix, gene int, gamma float64, old *Model) bool {
	if !(gamma >= 0) {
		// Negated form so NaN (which fails every comparison) is rejected
		// alongside negatives, instead of poisoning the regulation pointers.
		panic(fmt.Sprintf("rwave: gamma %v must be a non-negative number", gamma))
	}
	mod.gene, mod.gamma = gene, gamma
	row := m.Row(gene)
	repaired := old != nil && repairable(old, row, gene, gamma)
	if repaired {
		b.spliceOrder(mod.order, old, row)
	} else {
		// Non-descending by value; ties broken by ascending condition index
		// so the model is deterministic.
		for j := range mod.order {
			mod.order[j] = j
		}
		slices.SortStableFunc(mod.order, byValue(row))
	}
	for r, c := range mod.order {
		mod.rank[c] = r
		mod.values[r] = row[c]
		mod.valueByCond[c] = row[c]
	}
	mod.setFrontiers()
	mod.setChainLengths()
	return repaired
}

// byValue compares condition indices by their value in row. It decides with
// < alone: values that < does not order — equal ones, and NaN against
// anything — compare equal, and a stable sort keeps their index order.
func byValue(row []float64) func(a, b int) int {
	return func(a, b int) int {
		switch {
		case row[a] < row[b]:
			return -1
		case row[b] < row[a]:
			return 1
		}
		return 0
	}
}

// appendPointers appends the minimal non-embedded pointer set of sorted
// values under threshold gamma, in one left-to-right pass. For each rank j,
// pred(j) is the largest rank k < j with values[j]-values[k] > γ; pred is
// non-decreasing in j, so a two-pointer scan suffices. A pointer (pred(j), j)
// is recorded only when pred(j) advances past the head of the previously
// recorded pointer; otherwise the new pointer would embed an existing one,
// violating condition (2) of Definition 3.1.
func appendPointers(dst []Pointer, values []float64, gamma float64) []Pointer {
	p, lastA := 0, -1
	for j := range values {
		for p < j && values[j]-values[p] > gamma {
			p++
		}
		if pred := p - 1; pred >= 0 && pred > lastA {
			dst = append(dst, Pointer{A: pred, B: j})
			lastA = pred
		}
	}
	return dst
}

// setFrontiers memoizes the Lemma 3.1 answers as flat per-rank arrays,
// straight from the pointer scan of appendPointers without recording the
// pointers. predecessorEnd(r) — the A of the last pointer with B <= r — is
// pred(r) itself, since pred is non-decreasing and every rise of it past
// the last recorded head records a pointer; -1 when r has no predecessor.
// successorStart(r) — the B of the first pointer with A >= r — is the first
// rank whose pred reaches r, or n when none does. Both fill in one linear
// walk each.
func (mod *Model) setFrontiers() {
	n := len(mod.values)
	p := 0
	for j := 0; j < n; j++ {
		for p < j && mod.values[j]-mod.values[p] > mod.gamma {
			p++
		}
		mod.predEnd[j] = p - 1
	}
	j := 0
	for r := 0; r < n; r++ {
		for j < n && mod.predEnd[j] < r {
			j++
		}
		mod.succStart[r] = j
	}
}

// setChainLengths precomputes, for every rank, the length of the longest
// regulation chain that starts there and walks upward (upLen) or downward
// (downLen). Jumping to the nearest admissible rank is optimal because the
// successor (predecessor) set only shrinks (grows) with rank, so chain
// lengths are monotone in rank. Runs after setFrontiers so the hops are
// array loads.
func (mod *Model) setChainLengths() {
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

// Pointers returns the regulation pointer list, re-derived from the sorted
// values by the scan the build's frontiers come from.
func (mod *Model) Pointers() []Pointer {
	return appendPointers(nil, mod.values, mod.gamma)
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
	return mod.rank[succ] >= mod.succStart[mod.rank[c]]
}

// IsPredecessor reports whether condition pred is a regulation predecessor of
// condition c, answered through the pointer structure (Lemma 3.1).
func (mod *Model) IsPredecessor(c, pred int) bool {
	return mod.rank[pred] <= mod.predEnd[mod.rank[c]]
}

// SuccessorStartRank returns the minimal rank whose conditions are
// regulation successors of c (== Conditions() if none): the B of the nearest
// pointer after c in the sense of Lemma 3.1.
func (mod *Model) SuccessorStartRank(c int) int { return mod.succStart[mod.rank[c]] }

// PredecessorEndRank returns the maximal rank whose conditions are
// regulation predecessors of c (== -1 if none): the A of the nearest pointer
// before c.
func (mod *Model) PredecessorEndRank(c int) int { return mod.predEnd[mod.rank[c]] }

// Successors returns the condition indices that are regulation successors of
// c, in rank order. The slice is a view of the model's storage, capped at its
// end: read it, never write through it.
func (mod *Model) Successors(c int) []int {
	return mod.order[mod.succStart[mod.rank[c]]:len(mod.order):len(mod.order)]
}

// Predecessors returns the condition indices that are regulation predecessors
// of c, in rank order, as a read-only view of the model's storage.
func (mod *Model) Predecessors(c int) []int {
	end := mod.predEnd[mod.rank[c]] + 1
	return mod.order[:end:end]
}

// AppendSuccessors appends the regulation successors of c to dst, in rank
// order, and returns the extended slice.
func (mod *Model) AppendSuccessors(dst []int, c int) []int {
	return append(dst, mod.Successors(c)...)
}

// AppendPredecessors appends the regulation predecessors of c to dst, in
// rank order, and returns the extended slice.
func (mod *Model) AppendPredecessors(dst []int, c int) []int {
	return append(dst, mod.Predecessors(c)...)
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
	for _, p := range mod.Pointers() {
		s += fmt.Sprintf(" %d↶%d", p.A, p.B)
	}
	return s
}
