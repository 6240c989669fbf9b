package rwave

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"regcluster/internal/matrix"
)

// modelsIdentical compares every array and scalar of two models exactly —
// the byte-identity contract Repair promises against a cold build.
func modelsIdentical(a, b *Model) bool {
	return a.gene == b.gene &&
		math.Float64bits(a.gamma) == math.Float64bits(b.gamma) &&
		reflect.DeepEqual(a.order, b.order) &&
		reflect.DeepEqual(a.rank, b.rank) &&
		floatsIdentical(a.values, b.values) &&
		floatsIdentical(a.valueByCond, b.valueByCond) &&
		reflect.DeepEqual(a.succStart, b.succStart) &&
		reflect.DeepEqual(a.predEnd, b.predEnd) &&
		reflect.DeepEqual(a.upLen, b.upLen) &&
		reflect.DeepEqual(a.downLen, b.downLen) &&
		reflect.DeepEqual(a.Pointers(), b.Pointers())
}

func floatsIdentical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// grownRow builds a 1-gene matrix over row and its extension by extra values.
func grownRow(row, extra []float64) (base, grown *matrix.Matrix) {
	base = matrix.FromRows([][]float64{row})
	grown = matrix.FromRows([][]float64{append(append([]float64(nil), row...), extra...)})
	return base, grown
}

// TestRepairMatchesBuild is the differential property test: across random
// rows, random appended suffixes (duplicates and ties included) and a range
// of absolute thresholds, a set repaired from its parent set must hold a
// model identical in every field to a cold build of the grown row.
func TestRepairMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		oldN := 1 + rng.Intn(20)
		k := 1 + rng.Intn(10)
		vals := make([]float64, oldN+k)
		for i := range vals {
			// Coarse grid so value ties (the stable-sort edge case) occur often.
			vals[i] = float64(rng.Intn(8))
		}
		gamma := float64(rng.Intn(4)) // 0 included: strict-inequality edge
		base, grown := grownRow(vals[:oldN], vals[oldN:])
		repaired, fast := BuildSet(grown, absolute(gamma), setOf(base, absolute(gamma)), nil)
		if fast != 1 {
			t.Fatalf("trial %d: fast path refused (oldN=%d k=%d γ=%v)", trial, oldN, k, gamma)
		}
		cold := setOf(grown, absolute(gamma))
		if !modelsIdentical(repaired.Model(0), cold.Model(0)) {
			t.Fatalf("trial %d: repaired model differs from cold build\nrepaired: %v\ncold:     %v",
				trial, repaired.Model(0), cold.Model(0))
		}
	}
}

// TestRepairFromParentSet repairs every gene of a multi-gene set from its
// parent set, the form the service's model cache holds.
func TestRepairFromParentSet(t *testing.T) {
	base := matrix.FromRows([][]float64{{1, 5, 3, 9}, {2, 2, 8, 4}})
	grown := matrix.FromRows([][]float64{{1, 5, 3, 9, 4, 0}, {2, 2, 8, 4, 6, 2}})
	repaired, fast := BuildSet(grown, absolute(2), setOf(base, absolute(2)), nil)
	if fast != 2 {
		t.Fatalf("%d of 2 genes took the fast path", fast)
	}
	for g := 0; g < 2; g++ {
		if cold := BuildAbsolute(grown, g, 2); !modelsIdentical(repaired.Model(g), cold) {
			t.Fatalf("gene %d: repaired model differs from cold build", g)
		}
	}
}

// TestRepairFallbacks: every soundness violation must take the cold path
// (fast == false) and still return the correct model for the grown row.
func TestRepairFallbacks(t *testing.T) {
	base, grown := grownRow([]float64{3, 1, 4, 1}, []float64{5, 9})
	old := setOf(base, absolute(1)).Model(0)
	cases := []struct {
		name  string
		old   *Model
		m     *matrix.Matrix
		gene  int
		gamma float64
	}{
		{"nil old model", nil, grown, 0, 1},
		{"gamma drift", old, grown, 0, 2},
		{"gene mismatch", old, matrix.FromRows([][]float64{{9, 9, 9, 9, 9, 9}, {3, 1, 4, 1, 5, 9}}), 1, 1},
		{"no appended conditions", old, base, 0, 1},
		{"prefix rewritten", old, matrix.FromRows([][]float64{{3, 1, 7, 1, 5, 9}}), 0, 1},
	}
	for _, tc := range cases {
		got, fast := Repair(tc.old, tc.m, tc.gene, tc.gamma)
		if fast {
			t.Errorf("%s: fast path ran on an ineligible input", tc.name)
		}
		if cold := BuildAbsolute(tc.m, tc.gene, tc.gamma); !modelsIdentical(got, cold) {
			t.Errorf("%s: fallback model differs from cold build", tc.name)
		}
	}
}

// TestRepairNaNPrefixFallsBack: a NaN in the shared prefix never compares
// equal, so the repair must refuse the merge and rebuild cold.
func TestRepairNaNPrefixFallsBack(t *testing.T) {
	base := matrix.FromRows([][]float64{{1, math.NaN(), 3}})
	grown := matrix.FromRows([][]float64{{1, math.NaN(), 3, 4}})
	if _, fast := BuildSet(grown, absolute(1), setOf(base, absolute(1)), nil); fast != 0 {
		t.Fatal("fast path ran over a NaN prefix")
	}
}
