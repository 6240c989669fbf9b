package rwave

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"regcluster/internal/matrix"
	"regcluster/internal/paperdata"
)

// setOf builds m's model set, gene g under the absolute threshold gamma(g).
func setOf(m *matrix.Matrix, gamma func(g int) float64) *Set {
	s, _ := BuildSet(m, gamma, nil, nil)
	return s
}

// absolute is the threshold function that gives every gene gamma.
func absolute(gamma float64) func(int) float64 { return func(int) float64 { return gamma } }

// relative is the Equation 4 threshold function: gamma × the gene's value
// range, the threshold Build(m, g, gamma) uses.
func relative(m *matrix.Matrix, gamma float64) func(int) float64 {
	return func(g int) float64 { return gamma * m.RowRange(g) }
}

// perGene is the threshold function that gives gene g gammas[g].
func perGene(gammas []float64) func(int) float64 { return func(g int) float64 { return gammas[g] } }

// firstCols returns m restricted to its first cols conditions.
func firstCols(m *matrix.Matrix, cols int) *matrix.Matrix {
	rows, cs := make([]int, m.Rows()), make([]int, cols)
	for i := range rows {
		rows[i] = i
	}
	for j := range cs {
		cs[j] = j
	}
	return m.Submatrix(rows, cs)
}

// searchSuccessorStart re-derives SuccessorStartRank(c) by binary search
// over the exported pointer list for the first pointer with A >= rank(c)
// (Lemma 3.1). The memoized arrays must agree with this on every input.
func searchSuccessorStart(mod *Model, c int) int {
	ptrs := mod.Pointers()
	r := mod.Rank(c)
	i := sort.Search(len(ptrs), func(k int) bool { return ptrs[k].A >= r })
	if i == len(ptrs) {
		return mod.Conditions()
	}
	return ptrs[i].B
}

// searchPredecessorEnd is the binary-search reference for
// PredecessorEndRank(c): the A of the last pointer with B <= rank(c), or -1.
func searchPredecessorEnd(mod *Model, c int) int {
	ptrs := mod.Pointers()
	r := mod.Rank(c)
	j := sort.Search(len(ptrs), func(k int) bool { return ptrs[k].B > r })
	if j == 0 {
		return -1
	}
	return ptrs[j-1].A
}

func randomMatrix(rng *rand.Rand, rows, cols int) *matrix.Matrix {
	data := make([][]float64, rows)
	for g := range data {
		data[g] = make([]float64, cols)
		for c := range data[g] {
			// Quantized values so exact ties (and thus tie-broken orderings
			// and zero-gap adjacent ranks) occur regularly.
			data[g][c] = float64(rng.Intn(40)) / 4
		}
	}
	return matrix.FromRows(data)
}

// TestMemoizedFrontiersMatchPointerSearch cross-checks the build-time
// succStart/predEnd arrays of every gene of a set against binary search over
// Pointers() on random matrices under all three threshold schemes: the
// Equation 4 relative γ, a shared absolute γ, and per-gene custom absolute
// thresholds.
func TestMemoizedFrontiersMatchPointerSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	check := func(t *testing.T, mod *Model, m *matrix.Matrix) {
		t.Helper()
		for c := 0; c < mod.Conditions(); c++ {
			if got, want := mod.SuccessorStartRank(c), searchSuccessorStart(mod, c); got != want {
				t.Fatalf("g%d c%d: SuccessorStartRank = %d, pointer search = %d\n%s",
					mod.Gene(), c, got, want, mod)
			}
			if got, want := mod.PredecessorEndRank(c), searchPredecessorEnd(mod, c); got != want {
				t.Fatalf("g%d c%d: PredecessorEndRank = %d, pointer search = %d\n%s",
					mod.Gene(), c, got, want, mod)
			}
			if got, want := mod.ValueOf(c), m.At(mod.Gene(), c); got != want {
				t.Fatalf("g%d c%d: ValueOf = %v, matrix = %v", mod.Gene(), c, got, want)
			}
		}
	}
	for trial := 0; trial < 60; trial++ {
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(12)
		m := randomMatrix(rng, rows, cols)
		rel, abs, custom := make([]float64, rows), make([]float64, rows), make([]float64, rows)
		for g := 0; g < rows; g++ {
			// Relative (Equation 4) scheme.
			rel[g] = rng.Float64() * m.RowRange(g)
			// Shared absolute scheme, including γ = 0 strictness.
			abs[g] = float64(rng.Intn(5))
			// Per-gene custom scheme: threshold depends on the gene index.
			custom[g] = float64(g)*0.75 + rng.Float64()
		}
		for _, gammas := range [][]float64{rel, abs, custom} {
			set := setOf(m, perGene(gammas))
			for g := 0; g < rows; g++ {
				check(t, set.Model(g), m)
			}
		}
	}
}

// TestModelSlabViewsEqualStandaloneModels verifies that a set's per-gene
// views of its shared backings (the model slab) answer every accessor exactly
// as an identically built standalone model with a backing of its own.
func TestModelSlabViewsEqualStandaloneModels(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	m := randomMatrix(rng, 9, 11)
	const gamma = 0.2

	set := setOf(m, relative(m, gamma))
	if set.Genes() != m.Rows() || set.Conditions() != m.Cols() {
		t.Fatalf("set is %d×%d, want %d×%d", set.Genes(), set.Conditions(), m.Rows(), m.Cols())
	}
	for g := 0; g < m.Rows(); g++ {
		p, l := set.Model(g), Build(m, g, gamma)
		if p.Gene() != l.Gene() || p.Gamma() != l.Gamma() || p.Conditions() != l.Conditions() {
			t.Fatalf("g%d: header mismatch", g)
		}
		if !reflect.DeepEqual(p.Pointers(), l.Pointers()) {
			t.Fatalf("g%d: pointers diverge: %v vs %v", g, p.Pointers(), l.Pointers())
		}
		if p.MaxChain() != l.MaxChain() {
			t.Fatalf("g%d: MaxChain %d vs %d", g, p.MaxChain(), l.MaxChain())
		}
		for c := 0; c < p.Conditions(); c++ {
			if p.Order(c) != l.Order(c) || p.Rank(c) != l.Rank(c) {
				t.Fatalf("g%d c%d: order/rank diverge", g, c)
			}
			if p.Value(c) != l.Value(c) || p.ValueOf(c) != l.ValueOf(c) {
				t.Fatalf("g%d c%d: values diverge", g, c)
			}
			if p.SuccessorStartRank(c) != l.SuccessorStartRank(c) ||
				p.PredecessorEndRank(c) != l.PredecessorEndRank(c) {
				t.Fatalf("g%d c%d: frontiers diverge", g, c)
			}
			if p.MaxUpChainFrom(c) != l.MaxUpChainFrom(c) ||
				p.MaxDownChainFrom(c) != l.MaxDownChainFrom(c) {
				t.Fatalf("g%d c%d: chain lengths diverge", g, c)
			}
			if !reflect.DeepEqual(p.Successors(c), l.Successors(c)) ||
				!reflect.DeepEqual(p.Predecessors(c), l.Predecessors(c)) {
				t.Fatalf("g%d c%d: successor/predecessor lists diverge", g, c)
			}
			for o := 0; o < p.Conditions(); o++ {
				if p.IsSuccessor(c, o) != l.IsSuccessor(c, o) ||
					p.IsPredecessor(c, o) != l.IsPredecessor(c, o) ||
					p.IsUpRegulated(c, o) != l.IsUpRegulated(c, o) {
					t.Fatalf("g%d c%d o%d: pairwise queries diverge", g, c, o)
				}
			}
		}
	}
}

// TestKernelMatchesModelAccessors verifies the flat per-gene stripes the
// table build reads directly — rank, order, succStart, predEnd, upLen, downLen
// and valueByCond — hold the same data the Model methods return, for a set's
// views and for standalone models, and that every stripe is capped at its
// own length.
func TestKernelMatchesModelAccessors(t *testing.T) {
	m := paperdata.RunningExample()
	set := setOf(m, relative(m, 0.15))
	for g := 0; g < m.Rows(); g++ {
		for _, mod := range []*Model{set.Model(g), Build(m, g, 0.15)} {
			n := mod.Conditions()
			for _, stripe := range [][]int{mod.order, mod.rank, mod.succStart, mod.predEnd, mod.upLen, mod.downLen} {
				if len(stripe) != n || cap(stripe) != n {
					t.Fatalf("g%d: int stripe len/cap = %d/%d, want %d", g, len(stripe), cap(stripe), n)
				}
			}
			for _, stripe := range [][]float64{mod.values, mod.valueByCond} {
				if len(stripe) != n || cap(stripe) != n {
					t.Fatalf("g%d: float stripe len/cap = %d/%d, want %d", g, len(stripe), cap(stripe), n)
				}
			}
			for c := 0; c < n; c++ {
				r := mod.rank[c]
				if r != mod.Rank(c) || mod.order[r] != c || mod.Order(r) != c {
					t.Fatalf("g%d c%d: stripe rank/order mismatch", g, c)
				}
				if mod.succStart[r] != mod.SuccessorStartRank(c) ||
					mod.predEnd[r] != mod.PredecessorEndRank(c) {
					t.Fatalf("g%d c%d: stripe frontiers mismatch", g, c)
				}
				if mod.upLen[r] != mod.MaxUpChainFrom(c) || mod.downLen[r] != mod.MaxDownChainFrom(c) {
					t.Fatalf("g%d c%d: stripe chain lengths mismatch", g, c)
				}
				if mod.valueByCond[c] != mod.ValueOf(c) || mod.values[r] != mod.ValueOf(c) ||
					mod.ValueOf(c) != m.At(g, c) {
					t.Fatalf("g%d c%d: stripe value mismatch", g, c)
				}
			}
		}
	}
}

// TestBuildSet builds the running example's set: one model per gene, in
// gene order, each equal to that gene's standalone model.
func TestBuildSet(t *testing.T) {
	m := paperdata.RunningExample()
	set := setOf(m, relative(m, 0.15))
	if set.Genes() != 3 || set.Conditions() != 10 {
		t.Fatalf("set is %d×%d, want 3×10", set.Genes(), set.Conditions())
	}
	for g := 0; g < set.Genes(); g++ {
		mod := set.Model(g)
		if mod.Gene() != g {
			t.Errorf("model %d reports gene %d", g, mod.Gene())
		}
		if mod.Conditions() != 10 {
			t.Errorf("model %d has %d conditions", g, mod.Conditions())
		}
		if !modelsIdentical(mod, Build(m, g, 0.15)) {
			t.Errorf("model %d differs from its standalone build", g)
		}
	}
}

// TestBuildSetAllocations pins the in-place build: a cold build and a
// repair each cost the same fixed number of allocations at every gene count.
// AllocsPerRun measures at GOMAXPROCS 1, so the build runs on one worker;
// the fan-out adds a goroutine per worker, which depends on the CPU count,
// not on the gene count.
func TestBuildSetAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	var cold, repair float64
	for i, genes := range []int{1, 16, 300} {
		m := randomMatrix(rng, genes, 8)
		parent := setOf(firstCols(m, 6), absolute(1))
		gamma := relative(m, 0.25)
		c := testing.AllocsPerRun(10, func() { BuildSet(m, gamma, nil, nil) })
		r := testing.AllocsPerRun(10, func() { BuildSet(m, absolute(1), parent, nil) })
		if i == 0 {
			cold, repair = c, r
			continue
		}
		if c != cold || r != repair {
			t.Errorf("BuildSet(%d genes): %.1f cold / %.1f repair allocs per run, want %.1f / %.1f as at 1 gene",
				genes, c, r, cold, repair)
		}
	}
}

// TestBuildSetWorkersAgree builds sets above the fan-out threshold on
// several workers and compares each, field by field and tables included,
// with a one-worker build of the same matrix: cold, and repaired from a
// parent set under a relative threshold that drifts for some genes. CI runs
// it under -race.
func TestBuildSetWorkersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	m := randomMatrix(rng, 3*buildParallelMinGenes+5, 12)
	gamma := relative(m, 0.2)
	old := firstCols(m, 9)
	parent := setOf(old, relative(old, 0.2))
	for _, par := range []*Set{nil, parent} {
		want, wantRepaired := buildSet(m, gamma, par, nil, 1)
		if par != nil && (wantRepaired == 0 || wantRepaired == m.Rows()) {
			t.Fatalf("%d of %d genes repaired: the case does not cover both paths", wantRepaired, m.Rows())
		}
		for _, workers := range []int{2, 5} {
			got, repaired := buildSet(m, gamma, par, nil, workers)
			if repaired != wantRepaired || !reflect.DeepEqual(got, want) {
				t.Fatalf("parent %v, %d workers: set differs from a one-worker build (%d vs %d repaired)",
					par != nil, workers, repaired, wantRepaired)
			}
		}
	}
}

// TestAppendVariantsMatchSliceForms checks the append-style successor and
// predecessor queries against the slice forms, including prefix
// preservation and reuse without reallocation.
func TestAppendVariantsMatchSliceForms(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	m := randomMatrix(rng, 5, 10)
	for g := 0; g < m.Rows(); g++ {
		mod := BuildAbsolute(m, g, 1.5)
		buf := make([]int, 0, m.Cols())
		for c := 0; c < m.Cols(); c++ {
			succ := mod.Successors(c)
			pred := mod.Predecessors(c)

			got := mod.AppendSuccessors(buf[:0], c)
			if !reflect.DeepEqual(got, succ) && !(len(got) == 0 && len(succ) == 0) {
				t.Fatalf("g%d c%d: AppendSuccessors = %v, Successors = %v", g, c, got, succ)
			}
			got = mod.AppendPredecessors(buf[:0], c)
			if !reflect.DeepEqual(got, pred) && !(len(got) == 0 && len(pred) == 0) {
				t.Fatalf("g%d c%d: AppendPredecessors = %v, Predecessors = %v", g, c, got, pred)
			}

			prefix := []int{-7, -9}
			got = mod.AppendSuccessors(prefix, c)
			if !reflect.DeepEqual(got[:2], prefix[:2]) || !reflect.DeepEqual(got[2:], succ) &&
				!(len(got) == 2 && len(succ) == 0) {
				t.Fatalf("g%d c%d: AppendSuccessors with prefix = %v", g, c, got)
			}
		}
	}
}
