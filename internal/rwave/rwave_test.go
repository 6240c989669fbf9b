package rwave

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"regcluster/internal/matrix"
	"regcluster/internal/paperdata"
)

// condIdx converts 1-based paper condition labels to 0-based indices.
func condIdx(labels ...int) []int {
	out := make([]int, len(labels))
	for i, l := range labels {
		out[i] = l - 1
	}
	return out
}

func TestGammaEquation4(t *testing.T) {
	m := paperdata.RunningExample()
	// γ = 0.15: γ1 = γ2 = 0.15*30 = 4.5, γ3 = 0.15*12 = 1.8 (Section 3.1).
	wants := []float64{4.5, 4.5, 1.8}
	for g, want := range wants {
		mod := Build(m, g, 0.15)
		if math.Abs(mod.Gamma()-want) > 1e-12 {
			t.Errorf("g%d: gamma = %v, want %v", g+1, mod.Gamma(), want)
		}
	}
}

func TestRunningExampleOrdering(t *testing.T) {
	m := paperdata.RunningExample()
	mod := Build(m, 0, 0.15) // g1
	// g1 sorted: c7 c2 c10 c9 c5 c8 c1 c4 c6 c3 (ties c10/c9 and c5/c8 broken
	// by ascending condition index: c9 < c10 numerically, so c9 first; c5 < c8
	// so c5 first).
	want := condIdx(7, 2, 9, 10, 5, 8, 1, 4, 6, 3)
	got := make([]int, mod.Conditions())
	for r := range got {
		got[r] = mod.Order(r)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("g1 order = %v, want %v", got, want)
	}
	for r, c := range want {
		if mod.Rank(c) != r {
			t.Errorf("Rank(c%d) = %d, want %d", c+1, mod.Rank(c), r)
		}
	}
}

func TestRunningExamplePointers(t *testing.T) {
	m := paperdata.RunningExample()
	// Figure 3, RWave^0.15. Pointers expressed over sorted ranks.
	cases := []struct {
		gene int
		want []Pointer
	}{
		{0, []Pointer{{1, 2}, {3, 4}, {5, 6}, {6, 9}}}, // g1
		{1, []Pointer{{1, 2}, {3, 4}, {4, 5}, {5, 6}}}, // g2
		{2, []Pointer{{1, 2}, {3, 4}, {5, 6}, {6, 9}}}, // g3
	}
	set := setOf(m, relative(m, 0.15))
	for _, tc := range cases {
		mod := set.Model(tc.gene)
		if got := mod.Pointers(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("g%d pointers = %v, want %v\nmodel: %s", tc.gene+1, got, tc.want, mod)
		}
	}
}

func TestLemma31ExampleFromPaper(t *testing.T) {
	// Section 3.1: "the regulation predecessors of c6 for g1 ... c7, c2, c10,
	// c9, c8 and c5 are exactly the regulation predecessors of c6. ... there
	// are no regulation successors of c6."
	m := paperdata.RunningExample()
	mod := Build(m, 0, 0.15)
	c6 := 5
	preds := mod.Predecessors(c6)
	wantSet := map[int]bool{6: true, 1: true, 9: true, 8: true, 7: true, 4: true} // c7 c2 c10 c9 c8 c5
	if len(preds) != len(wantSet) {
		t.Fatalf("predecessors of c6 = %v", preds)
	}
	for _, c := range preds {
		if !wantSet[c] {
			t.Fatalf("unexpected predecessor c%d", c+1)
		}
	}
	if succ := mod.Successors(c6); len(succ) != 0 {
		t.Fatalf("c6 should have no successors, got %v", succ)
	}
}

func TestIsUpRegulatedMatchesEquation3(t *testing.T) {
	m := paperdata.RunningExample()
	mod := Build(m, 1, 0.15) // g2, γ2 = 4.5
	// d(g2,c7)=45, d(g2,c5)=30: up-regulated from c5 to c7.
	if !mod.IsUpRegulated(4, 6) {
		t.Error("g2 should be up-regulated from c5 to c7")
	}
	// d(g2,c8)=43, d(g2,c4)=43.5: 0.5 < 4.5, not regulated either way.
	if mod.IsUpRegulated(7, 3) || mod.IsUpRegulated(3, 7) {
		t.Error("c8-c4 difference below γ2 must not be a regulation")
	}
}

// bruteSuccessors computes regulation successors directly from Equation 3.
func bruteSuccessors(m *matrix.Matrix, gene, c int, gammaAbs float64) map[int]bool {
	out := map[int]bool{}
	for j := 0; j < m.Cols(); j++ {
		if m.At(gene, j)-m.At(gene, c) > gammaAbs {
			out[j] = true
		}
	}
	return out
}

func brutePredecessors(m *matrix.Matrix, gene, c int, gammaAbs float64) map[int]bool {
	out := map[int]bool{}
	for j := 0; j < m.Cols(); j++ {
		if m.At(gene, c)-m.At(gene, j) > gammaAbs {
			out[j] = true
		}
	}
	return out
}

func toSet(xs []int) map[int]bool {
	out := map[int]bool{}
	for _, x := range xs {
		out[x] = true
	}
	return out
}

// TestLemma31Exactness checks that the pointer-based predecessor/successor
// queries are exactly the Equation 3 sets on random data — i.e. that under
// this construction Lemma 3.1 is an equality.
func TestLemma31Exactness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(12)
		m := matrix.New(1, n)
		for j := 0; j < n; j++ {
			// Coarse values create many ties, stressing tie handling.
			m.Set(0, j, float64(rng.Intn(10)))
		}
		gamma := []float64{0, 0.5, 1, 2.5}[rng.Intn(4)]
		mod := BuildAbsolute(m, 0, gamma)
		for c := 0; c < n; c++ {
			gotS := toSet(mod.Successors(c))
			wantS := bruteSuccessors(m, 0, c, gamma)
			if !reflect.DeepEqual(gotS, wantS) {
				t.Fatalf("trial %d: successors(c%d) = %v, want %v\n%s\nrow %v γ=%v",
					trial, c, gotS, wantS, mod, m.Row(0), gamma)
			}
			gotP := toSet(mod.Predecessors(c))
			wantP := brutePredecessors(m, 0, c, gamma)
			if !reflect.DeepEqual(gotP, wantP) {
				t.Fatalf("trial %d: predecessors(c%d) = %v, want %v\n%s", trial, c, gotP, wantP, mod)
			}
			for j := 0; j < n; j++ {
				if mod.IsSuccessor(c, j) != wantS[j] {
					t.Fatalf("IsSuccessor(c%d,c%d) mismatch", c, j)
				}
				if mod.IsPredecessor(c, j) != wantP[j] {
					t.Fatalf("IsPredecessor(c%d,c%d) mismatch", c, j)
				}
			}
		}
	}
}

// bruteMaxUpChain finds the longest successively up-regulated chain starting
// at condition c by exhaustive DFS.
func bruteMaxUpChain(m *matrix.Matrix, gene, c int, gammaAbs float64) int {
	best := 1
	for j := 0; j < m.Cols(); j++ {
		if m.At(gene, j)-m.At(gene, c) > gammaAbs {
			if l := 1 + bruteMaxUpChain(m, gene, j, gammaAbs); l > best {
				best = l
			}
		}
	}
	return best
}

func TestMaxChainLengthsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(8)
		m := matrix.New(1, n)
		for j := 0; j < n; j++ {
			m.Set(0, j, float64(rng.Intn(8)))
		}
		gamma := []float64{0, 1, 1.5}[rng.Intn(3)]
		mod := setOf(m, absolute(gamma)).Model(0)
		for c := 0; c < n; c++ {
			want := bruteMaxUpChain(m, 0, c, gamma)
			if got := mod.MaxUpChainFrom(c); got != want {
				t.Fatalf("trial %d: MaxUpChainFrom(c%d) = %d, want %d\n%s", trial, c, got, want, mod)
			}
		}
	}
}

func TestDownChainMirrorsUpChain(t *testing.T) {
	// Down-chains in a matrix are up-chains in its negation.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(8)
		m := matrix.New(1, n)
		neg := matrix.New(1, n)
		for j := 0; j < n; j++ {
			v := rng.Float64() * 10
			m.Set(0, j, v)
			neg.Set(0, j, -v)
		}
		gamma := rng.Float64() * 3
		mod := setOf(m, absolute(gamma)).Model(0)
		negMod := setOf(neg, absolute(gamma)).Model(0)
		for c := 0; c < n; c++ {
			if mod.MaxDownChainFrom(c) != negMod.MaxUpChainFrom(c) {
				t.Fatalf("down/up mirror mismatch at c%d", c)
			}
		}
	}
}

func TestPointerInvariants(t *testing.T) {
	// Property: pointers have strictly increasing A and B, every pointer
	// certifies a regulation, and no pointer embeds another.
	f := func(vals []float64, gseed uint8) bool {
		if len(vals) < 2 || len(vals) > 20 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				return true
			}
		}
		m := matrix.FromRows([][]float64{vals})
		gamma := float64(gseed%100) / 100 // relative γ in [0, 0.99]
		mod := setOf(m, relative(m, gamma)).Model(0)
		ps := mod.Pointers()
		for i, p := range ps {
			if p.A >= p.B {
				return false
			}
			if mod.Value(p.B)-mod.Value(p.A) <= mod.Gamma() {
				return false
			}
			if i > 0 && (ps[i-1].A >= p.A || ps[i-1].B >= p.B) {
				return false
			}
			// Minimality: (A+1, B) and (A, B-1) must NOT be valid pointers
			// (otherwise this one is not a bordering pair).
			if p.B-p.A > 1 {
				if mod.Value(p.B)-mod.Value(p.A+1) > mod.Gamma() &&
					mod.Value(p.B-1)-mod.Value(p.A) > mod.Gamma() {
					// Both shrinks valid means an embedded pointer exists.
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestConstantRowHasNoPointers(t *testing.T) {
	m := matrix.FromRows([][]float64{{5, 5, 5, 5}})
	mod := setOf(m, relative(m, 0.5)).Model(0)
	if len(mod.Pointers()) != 0 {
		t.Fatalf("constant row pointers: %v", mod.Pointers())
	}
	if mod.MaxChain() != 1 {
		t.Fatalf("constant row MaxChain = %d", mod.MaxChain())
	}
}

func TestGammaZeroStrictness(t *testing.T) {
	// With γ = 0, regulation requires a strictly positive difference: equal
	// values must not regulate each other.
	m := matrix.FromRows([][]float64{{1, 1, 2, 3}})
	mod := Build(m, 0, 0)
	if mod.IsSuccessor(0, 1) || mod.IsSuccessor(1, 0) {
		t.Error("equal values must not be successors at γ=0")
	}
	if !mod.IsSuccessor(0, 2) || !mod.IsSuccessor(2, 3) {
		t.Error("strict increases must be successors at γ=0")
	}
	if mod.MaxUpChainFrom(0) != 3 { // c0 -> c2 -> c3
		t.Errorf("MaxUpChainFrom(0) = %d, want 3", mod.MaxUpChainFrom(0))
	}
}

func TestBuildValidation(t *testing.T) {
	m := matrix.FromRows([][]float64{{1, 2}})
	for _, bad := range []float64{-0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Build with gamma=%v did not panic", bad)
				}
			}()
			Build(m, 0, bad)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("BuildAbsolute with negative gamma did not panic")
			}
		}()
		BuildAbsolute(m, 0, -1)
	}()
	// A NaN threshold panics in a set build too, on the calling goroutine
	// whether one worker builds the set or several do.
	big := randomMatrix(rand.New(rand.NewSource(80)), 2*buildParallelMinGenes, 4)
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a set build with NaN gamma on %d workers did not panic", workers)
				}
			}()
			buildSet(big, absolute(math.NaN()), nil, nil, workers)
		}()
	}
}

func TestValueAccessors(t *testing.T) {
	m := paperdata.RunningExample()
	mod := Build(m, 0, 0.15)
	if mod.ValueOf(6) != -15 { // c7
		t.Errorf("ValueOf(c7) = %v", mod.ValueOf(6))
	}
	if mod.Value(0) != -15 {
		t.Errorf("Value(rank 0) = %v", mod.Value(0))
	}
	if mod.String() == "" {
		t.Error("empty String()")
	}
}

func TestMaxChainRunningExample(t *testing.T) {
	// The paper's discovered chain has 5 conditions; each gene's model must
	// admit an up- or down-chain of length >= 5 at γ = 0.15.
	m := paperdata.RunningExample()
	for g := 0; g < 3; g++ {
		mod := Build(m, g, 0.15)
		if mod.MaxChain() < 5 {
			t.Errorf("g%d MaxChain = %d, want >= 5", g+1, mod.MaxChain())
		}
	}
	// Specifically, from c7 the up-chain of g1 and g3 has length 5 and the
	// down-chain of g2 has length 5 (Figure 6 level 1 analysis).
	c7 := 6
	if l := Build(m, 0, 0.15).MaxUpChainFrom(c7); l != 5 {
		t.Errorf("g1 up-chain from c7 = %d, want 5", l)
	}
	if l := Build(m, 2, 0.15).MaxUpChainFrom(c7); l != 5 {
		t.Errorf("g3 up-chain from c7 = %d, want 5", l)
	}
	if l := Build(m, 1, 0.15).MaxDownChainFrom(c7); l != 5 {
		t.Errorf("g2 down-chain from c7 = %d, want 5", l)
	}
}
