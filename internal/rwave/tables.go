package rwave

// Condition-pair tables: the regulation relation of a whole model set as
// gene bitsets.
//
// The miner's first two chain levels test every member of a node against
// every candidate condition, gene by gene. Stored per ordered condition pair,
// the same answers become bitsets over genes, so one 64-bit AND answers
// Lemma 3.1 for 64 genes at once:
//
//   - Up(a, b) holds the genes for which b is a regulation successor of a
//     (rank(b) >= SuccStart(rank(a))). Down-membership needs no table of its
//     own: a is a regulation predecessor of b exactly when b is a successor
//     of a, so it reads Up(b, a).
//   - The chain-length rows hold, per condition c and length L in
//     [1, MaxLen], the genes whose longest upward (downward) regulation chain
//     starting at c has at least L conditions — pruning (2)'s bound for every
//     MinC at once, so one model set serves a whole parameter sweep.
//
// Tables depend only on the models, never on mining parameters. BuildSet
// writes them in one pass once every gene is built, so every set — and every
// cache that shares one — carries its tables.

// Tables holds the condition-pair tables of one model set. The zero value
// describes an empty set. Rows are Words() words long; bits past the last
// gene are always zero.
type Tables struct {
	genes, conds, words, maxLen int
	up, upLen, downLen          []uint64
}

// Genes returns the number of genes the tables cover.
func (t *Tables) Genes() int { return t.genes }

// Words returns the length of every gene bitset, ⌈genes/64⌉.
func (t *Tables) Words() int { return t.words }

// MaxLen returns the longest regulation chain of any gene in the set.
func (t *Tables) MaxLen() int { return t.maxLen }

// Up returns the genes for which b is a regulation successor of a. Up(b, a)
// is therefore the set for which b is a regulation predecessor of a.
func (t *Tables) Up(a, b int) []uint64 {
	o := (a*t.conds + b) * t.words
	return t.up[o : o+t.words : o+t.words]
}

// UpLen returns the genes whose longest upward regulation chain starting at
// condition c has at least l conditions. Every gene qualifies for l <= 1
// and none for l > MaxLen (an empty row).
func (t *Tables) UpLen(c, l int) []uint64 { return t.lenRow(t.upLen, c, l) }

// DownLen is UpLen for downward chains.
func (t *Tables) DownLen(c, l int) []uint64 { return t.lenRow(t.downLen, c, l) }

func (t *Tables) lenRow(rows []uint64, c, l int) []uint64 {
	l = max(l, 1)
	if l > t.maxLen {
		return nil
	}
	o := (c*t.maxLen + l - 1) * t.words
	return rows[o : o+t.words : o+t.words]
}

// newTables returns the zeroed tables of a genes × conds set whose longest
// chain is maxLen, in one allocation: the conds² Up bitsets, then the
// conds·maxLen UpLen and DownLen rows.
func newTables(genes, conds, maxLen int) Tables {
	words := (genes + 63) / 64
	nUp, nLen := conds*conds*words, conds*maxLen*words
	b := make([]uint64, nUp+2*nLen)
	return Tables{
		genes: genes, conds: conds, words: words, maxLen: maxLen,
		up:      b[:nUp:nUp],
		upLen:   b[nUp : nUp+nLen : nUp+nLen],
		downLen: b[nUp+nLen:],
	}
}

// longestChain returns the longest upward or downward chain of any model.
func longestChain(models []Model) int {
	best := 0
	for g := range models {
		mod := &models[g]
		for r := range mod.upLen {
			best = max(best, mod.upLen[r], mod.downLen[r])
		}
	}
	return best
}

// writeTables returns the tables of models, bit g standing for models[g].
//
// The chain-length rows are filled at the exact length first (one bit per
// gene and condition), then suffix-OR-ed down from MaxLen, which turns
// "exactly L" into "at least L" with one word operation per row word.
func writeTables(models []Model, conds int) Tables {
	genes, maxLen := len(models), longestChain(models)
	t := newTables(genes, conds, maxLen)
	dense := genes / 64
	if genes%64 >= sparseBlock {
		dense++
	}
	if dense > 0 {
		writeUpDense(&t, models, dense)
	}
	for g := 64 * dense; g < genes; g++ {
		writeUpGene(&t, g, &models[g])
	}
	if maxLen == 0 {
		return t
	}
	words := t.words
	for g := range models {
		mod := &models[g]
		w, bit := g>>6, uint64(1)<<(uint(g)&63)
		for c, r := range mod.rank {
			o := c*maxLen - 1
			t.upLen[(o+mod.upLen[r])*words+w] |= bit
			t.downLen[(o+mod.downLen[r])*words+w] |= bit
		}
	}
	// Row (c, l+1) follows row (c, l) in memory, so one backward pass over
	// each condition's rows turns "exactly l" into "at least l".
	for c := 0; c < conds; c++ {
		first, last := c*maxLen*words, ((c+1)*maxLen-1)*words
		for o := last - 1; o >= first; o-- {
			t.upLen[o] |= t.upLen[o+words]
			t.downLen[o] |= t.downLen[o+words]
		}
	}
	return t
}

// sparseBlock is the gene count below which the last, partly filled block
// of Up is written gene by gene (writeUpGene): a handful of genes sets fewer
// bits than the transposes of writeUpDense move.
const sparseBlock = 16

// writeUpDense writes the Up bits of the first `blocks` 64-gene blocks
// without touching one bit at a time. A gene's successors of any condition are a
// rank suffix, and the suffix start only falls as the rank of the condition
// falls, so one downward sweep over a gene's ranks yields its successor mask
// for every condition in O(conds). Those masks fill a 64 (condition a) × 64
// (gene) tile; a 64×64 bit transpose turns each condition's 64 gene masks
// into the words Up(a, ·) stores. Conditions are taken 64 at a time on both
// axes, so the 32 KiB tile lives on the stack whatever the condition count,
// and the build allocates nothing.
func writeUpDense(t *Tables, models []Model, blocks int) {
	conds, words := t.conds, t.words
	var tile [64][64]uint64 // [a - aLo][gene - 64·w]: successor mask over b in [bLo, bLo+64)
	for w := 0; w < blocks; w++ {
		lo, n := 64*w, min(64, len(models)-64*w)
		for aLo := 0; aLo < conds; aLo += 64 {
			for bLo := 0; bLo < conds; bLo += 64 {
				for j := 0; j < n; j++ {
					mod := &models[lo+j]
					successorMasks(&tile, j, mod.order, mod.succStart, aLo, bLo)
				}
				for ai := 0; ai < min(64, conds-aLo); ai++ {
					row := &tile[ai]
					clear(row[n:]) // a previous block's genes
					transpose64(row)
					o := ((aLo+ai)*conds+bLo)*words + w
					for _, x := range row[:min(64, conds-bLo)] {
						t.up[o] = x
						o += words
					}
				}
			}
		}
	}
}

// writeUpGene sets gene g's bit in Up(a, b) for every regulation successor
// b of every condition a, one bit at a time.
func writeUpGene(t *Tables, g int, mod *Model) {
	w, bit := g>>6, uint64(1)<<(uint(g)&63)
	for r, a := range mod.order {
		row := t.up[a*t.conds*t.words:]
		for _, b := range mod.order[mod.succStart[r]:] {
			row[b*t.words+w] |= bit
		}
	}
}

// successorMasks writes into column j of tile, for every condition a in
// [aLo, aLo+64), the mask of conditions in [bLo, bLo+64) that are regulation
// successors of a for the gene with the given order and SuccStart stripes
// (bit b-bLo).
func successorMasks(tile *[64][64]uint64, j int, order, succStart []int, aLo, bLo int) {
	var mask uint64
	next := len(order) // every rank >= next is in mask
	for r := len(order) - 1; r >= 0; r-- {
		for s := succStart[r]; next > s; {
			next--
			if b := uint(order[next] - bLo); b < 64 {
				mask |= 1 << b
			}
		}
		if a := uint(order[r] - aLo); a < 64 {
			tile[a][j&63] = mask
		}
	}
}

// transpose64 transposes a 64×64 bit matrix in place: afterwards bit j of
// m[i] is what bit i of m[j] was. Six rounds swap ever smaller off-diagonal
// blocks (Hacker's Delight §7-3, in least-significant-bit-first order).
func transpose64(m *[64]uint64) {
	transposeRound(m, 32, 0x00000000FFFFFFFF)
	transposeRound(m, 16, 0x0000FFFF0000FFFF)
	transposeRound(m, 8, 0x00FF00FF00FF00FF)
	transposeRound(m, 4, 0x0F0F0F0F0F0F0F0F)
	transposeRound(m, 2, 0x3333333333333333)
	transposeRound(m, 1, 0x5555555555555555)
}

// transposeRound swaps, in every 2s×2s block, the s×s block above the
// diagonal with the one below it. mask selects the low s bits of every 2s.
func transposeRound(m *[64]uint64, s uint, mask uint64) {
	for i := uint(0); i < 64; i = (i + s + 1) &^ s {
		x := (m[i&63]>>s ^ m[(i+s)&63]) & mask
		m[i&63] ^= x << s
		m[(i+s)&63] ^= x
	}
}
