package core

// Scratch arena and duplicate-suppression machinery of the zero-allocation
// mining hot path. One miner owns one scratch: all per-node working storage
// — chain stack, condition bitsets, candidate/extension/member buffers — is
// reused across the millions of nodes a search visits, so steady-state
// mining allocates only for escaping outputs (emitted Biclusters) and dedup
// bookkeeping. The differential tests (differential_test.go) pin the
// resulting behaviour to the frozen pre-optimization reference bit for bit.

import (
	"math/bits"
	"slices"
)

// condSet is a bitset over condition ids (one uint64 word per 64 ids).
type condSet []uint64

func newCondSet(n int) condSet   { return make(condSet, (n+63)/64) }
func (s condSet) has(c int) bool { return s[c>>6]&(1<<(uint(c)&63)) != 0 }
func (s condSet) set(c int)      { s[c>>6] |= 1 << (uint(c) & 63) }
func (s condSet) clear(c int)    { s[c>>6] &^= 1 << (uint(c) & 63) }

// copyFrom overwrites s with o word for word. Both sets must come from the
// same newCondSet size.
func (s condSet) copyFrom(o condSet) { copy(s, o) }

// zero clears the whole set word-at-a-time.
func (s condSet) zero() { clear(s) }

// appendClear appends the ids in [0, n) NOT in s to dst, in ascending order,
// walking the set one 64-id word at a time and popping the complement's bits
// instead of testing every id.
func (s condSet) appendClear(dst []int, n int) []int {
	for w, word := range s {
		free := ^word
		base := w << 6
		if rest := n - base; rest < 64 {
			if rest <= 0 {
				break
			}
			free &= 1<<uint(rest) - 1
		}
		for free != 0 {
			dst = append(dst, base+bits.TrailingZeros64(free))
			free &= free - 1
		}
	}
	return dst
}

// geneSet is a bitset over gene indices (one uint64 word per 64 genes), in
// the row layout of rwave.Tables, so node members and table rows combine
// word by word.
type geneSet []uint64

// intersects reports whether s and o share a gene.
func (s geneSet) intersects(o []uint64) bool {
	o = o[:len(s)]
	for w, x := range s {
		if x&o[w] != 0 {
			return true
		}
	}
	return false
}

// and stores a ∧ b into s and returns its population count.
func (s geneSet) and(a geneSet, b []uint64) int {
	a, b = a[:len(s)], b[:len(s)]
	n := 0
	for w := range s {
		x := a[w] & b[w]
		s[w] = x
		n += bits.OnesCount64(x)
	}
	return n
}

// keep intersects s with row in place and returns the remaining count. A nil
// row is the empty set (an rwave.Tables length row past MaxLen).
func (s geneSet) keep(row []uint64) int {
	if row == nil {
		clear(s)
		return 0
	}
	return s.and(s, row)
}

// copyRow overwrites s with row, or clears it for a nil row, and returns the
// population count.
func (s geneSet) copyRow(row []uint64) int {
	if row == nil {
		clear(s)
		return 0
	}
	copy(s, row)
	return s.count()
}

func (s geneSet) count() int {
	n := 0
	for _, x := range s {
		n += bits.OnesCount64(x)
	}
	return n
}

// appendMembers appends the members of the p-set ps and the n-set ns to dst
// in node order: ascending gene, p before n.
func appendMembers(dst []member, ps, ns geneSet) []member {
	ns = ns[:len(ps)]
	for w := range ps {
		for x := ps[w] | ns[w]; x != 0; x &= x - 1 {
			g, bit := w<<6|bits.TrailingZeros64(x), x&-x
			if ps[w]&bit != 0 {
				dst = append(dst, member{g, true})
			}
			if ns[w]&bit != 0 {
				dst = append(dst, member{g, false})
			}
		}
	}
	return dst
}

// frame is the reusable working set of one recursion depth: the candidate
// conditions, the surviving extensions with their H scores, the validated
// sliding windows, and the member list handed to the child node. A depth's
// frame stays live for the whole candidate loop of its extend call while
// deeper recursion uses deeper frames, so indexing frames by chain length
// makes reuse safe without copying.
type frame struct {
	cand []int
	ext  []extMember
	win  [][2]int
	nm   []member
}

// scratch is the per-miner arena.
type scratch struct {
	chain    []int   // current chain as a stack (replaces per-level copies)
	inChain  condSet // chain membership (replaces the per-node inChain map)
	candSeen condSet // candidate dedup within one extend (replaces the seen map)
	root     []member
	frames   []*frame

	// The bit-sliced chain levels (see extendBits): ps[ℓ-1] and ns[ℓ-1] hold
	// the p- and n-members of the current node at chain length ℓ = 1, 2, and
	// ps[2], ns[2] the survivors of the level-2 candidate being scored. One
	// backing, carved in ensure.
	ps, ns [3]geneSet
	// buckets counts level-2 survivors per ε-wide score bucket, direct-mapped
	// mod 256 and saturating (all zero between candidates), and slots records
	// each survivor's slot; scores holds their bare H values for the exact
	// window check.
	buckets [256]uint8
	slots   []uint8
	scores  []float64
}

// ensure sizes the arena for an nGenes×nConds matrix; it runs once per
// miner (every later call is a cheap nil check). The root member buffer
// holds up to TWO entries per gene — both directions can join at level 1 —
// which also fixes the historical nGenes under-allocation that forced a
// mid-loop regrowth on every level-1 subtree.
func (s *scratch) ensure(nGenes, nConds int) {
	if s.inChain != nil {
		return
	}
	// One backing holds both condition sets and every gene set.
	cw, gw := (nConds+63)/64, (nGenes+63)/64
	sets := make([]uint64, 2*cw+2*len(s.ps)*gw)
	carve := func(n int) []uint64 {
		v := sets[:n:n]
		sets = sets[n:]
		return v
	}
	s.inChain, s.candSeen = carve(cw), carve(cw)
	for i := range s.ps {
		s.ps[i], s.ns[i] = carve(gw), carve(gw)
	}
	s.chain = make([]int, 0, nConds)
	s.root = make([]member, 0, 2*nGenes)
}

// frame returns the scratch frame of the given recursion depth, growing the
// pool on first descent.
func (s *scratch) frame(depth int) *frame {
	for len(s.frames) <= depth {
		s.frames = append(s.frames, &frame{})
	}
	return s.frames[depth]
}

// dedupSet suppresses duplicate clusters (pruning 3b) without materializing
// Bicluster.Key() strings: clusters are hashed structurally into buckets and
// compared field by field only within a bucket, so the common non-duplicate
// case costs one hash and (almost always) an empty bucket probe.
type dedupSet struct {
	buckets map[uint64][]*Bicluster
}

func newDedupSet() dedupSet {
	return dedupSet{buckets: make(map[uint64][]*Bicluster)}
}

// add inserts b and reports true, or reports false when an identical
// cluster (same chain sequence, p-members, n-members) was added before.
func (d *dedupSet) add(b *Bicluster) bool {
	h := hashCluster(b)
	for _, o := range d.buckets[h] {
		if slices.Equal(o.Chain, b.Chain) &&
			slices.Equal(o.PMembers, b.PMembers) &&
			slices.Equal(o.NMembers, b.NMembers) {
			return false
		}
	}
	d.buckets[h] = append(d.buckets[h], b)
	return true
}

// hashCluster is FNV-1a over the cluster's three int sequences with distinct
// section separators. Collisions are harmless (add falls back to structural
// comparison), they only cost a bucket scan.
func hashCluster(b *Bicluster) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b.Chain {
		h = (h ^ uint64(c)) * prime64
	}
	h = (h ^ ^uint64(0)) * prime64
	for _, g := range b.PMembers {
		h = (h ^ uint64(g)) * prime64
	}
	h = (h ^ ^uint64(1)) * prime64
	for _, g := range b.NMembers {
		h = (h ^ uint64(g)) * prime64
	}
	return h
}

// insertionSortCutoff bounds the slice length below which the hand-rolled
// insertion sorts beat the generic pdqsort dispatch. Extension lists at deep
// nodes are usually tiny; level-1 lists are huge and take the slices path.
const insertionSortCutoff = 16

// lessExt is the extension ordering of matchCandidate: ascending H score,
// ties by gene then direction (p before n). Members are unique per (gene,
// direction), so the order is total and any comparison sort yields the same
// sequence the reference sort.Slice produced.
func lessExt(a, b extMember) bool {
	if a.h != b.h {
		return a.h < b.h
	}
	if a.gene != b.gene {
		return a.gene < b.gene
	}
	return a.up && !b.up
}

func sortExtMembers(ext []extMember) {
	if len(ext) <= insertionSortCutoff {
		for i := 1; i < len(ext); i++ {
			for j := i; j > 0 && lessExt(ext[j], ext[j-1]); j-- {
				ext[j], ext[j-1] = ext[j-1], ext[j]
			}
		}
		return
	}
	slices.SortFunc(ext, func(a, b extMember) int {
		switch {
		case lessExt(a, b):
			return -1
		case lessExt(b, a):
			return 1
		default:
			return 0
		}
	})
}

// lessMember is the node member ordering: ascending gene, p before n.
func lessMember(a, b member) bool {
	if a.gene != b.gene {
		return a.gene < b.gene
	}
	return a.up && !b.up
}

func sortMembers(ms []member) {
	if len(ms) <= insertionSortCutoff {
		for i := 1; i < len(ms); i++ {
			for j := i; j > 0 && lessMember(ms[j], ms[j-1]); j-- {
				ms[j], ms[j-1] = ms[j-1], ms[j]
			}
		}
		return
	}
	slices.SortFunc(ms, func(a, b member) int {
		switch {
		case lessMember(a, b):
			return -1
		case lessMember(b, a):
			return 1
		default:
			return 0
		}
	})
}
