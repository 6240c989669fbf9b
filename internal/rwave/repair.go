package rwave

import (
	"slices"

	"regcluster/internal/matrix"
)

// Index repair under dataset growth.
//
// When a gene's row gains conditions at the END of the matrix (the
// append-conditions delta of the service layer), the expensive part of a
// model rebuild — the O(n log n) stable sort of the full row — is avoidable:
// the old sorted order is a sorted run already, and the k new entries form a
// second sorted run whose condition indices are all larger than any old one.
// A stable two-run merge therefore reproduces the full sort's output exactly
// (stability breaks value ties by original position, and the original
// position order is "all old conditions, then the new ones in index order"),
// after which the frontier and chain-length passes are the same O(n) scans a
// cold build runs. A repair is O(n + k log k) instead of O(n log n), and its
// output is byte-identical to a cold build of the grown row — the property
// TestRepairMatchesBuild and FuzzRepair pin. BuildSet repairs a whole set
// from its parent set; Repair is the same fill for one gene.

// Repair builds the model for gene of m by splicing the appended conditions
// of m (those at index >= old.Conditions()) into old's sorted order. The fast
// path applies only when old genuinely is the model of this row's prefix
// under the same absolute threshold: same gene, same γ bit pattern, a prefix
// of identical values, and at least one appended condition. Any mismatch —
// including a γ drift from a relative-gamma row whose range grew — falls back
// to a cold build. The second return reports whether the fast path ran;
// either way the returned model is correct for (m, gene, gammaAbs).
func Repair(old *Model, m *matrix.Matrix, gene int, gammaAbs float64) (*Model, bool) {
	mod := newModel(m.Cols())
	var b builder
	return mod, b.fill(mod, m, gene, gammaAbs, old)
}

// spliceOrder writes into order the stable merge of old's sorted order with
// the conditions row appends to it (index >= old.Conditions()), sorted by
// value in the builder's reusable buffer.
func (b *builder) spliceOrder(order []int, old *Model, row []float64) {
	oldN := len(old.order)
	fresh := slices.Grow(b.fresh[:0], len(row)-oldN)
	for c := oldN; c < len(row); c++ {
		fresh = append(fresh, c)
	}
	slices.SortStableFunc(fresh, byValue(row))
	b.fresh = fresh

	// Every old condition precedes every new one in original position, so
	// on a value tie the old run wins.
	oi, fi := 0, 0
	for r := range order {
		if oi < oldN && (fi == len(fresh) || !(row[fresh[fi]] < old.values[oi])) {
			order[r] = old.order[oi]
			oi++
		} else {
			order[r] = fresh[fi]
			fi++
		}
	}
}

// repairable reports whether the merge fast path is sound for old and the
// grown row of gene under gammaAbs. The prefix scan is exact float equality,
// so a NaN anywhere in the prefix (which never compares equal) also forces
// the cold build — the merge never has to reason about NaN ordering.
func repairable(old *Model, row []float64, gene int, gammaAbs float64) bool {
	oldN := old.Conditions()
	if old.gene != gene || old.gamma != gammaAbs || len(row) <= oldN {
		return false
	}
	for c := 0; c < oldN; c++ {
		if old.valueByCond[c] != row[c] {
			return false
		}
	}
	return true
}
