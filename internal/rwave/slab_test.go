package rwave

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"regcluster/internal/matrix"
	"regcluster/internal/paperdata"
)

// searchSuccessorStart re-derives successorStart(rank(c)) the way the
// pre-memoization code did: binary search over the exported pointer list for
// the first pointer with A >= rank (Lemma 3.1). The memoized arrays must
// agree with this on every input.
func searchSuccessorStart(mod *Model, c int) int {
	ptrs := mod.Pointers()
	r := mod.Rank(c)
	i := sort.Search(len(ptrs), func(k int) bool { return ptrs[k].A >= r })
	if i == len(ptrs) {
		return mod.Conditions()
	}
	return ptrs[i].B
}

// searchPredecessorEnd is the binary-search reference for predecessorEnd:
// the A of the last pointer with B <= rank(c), or -1.
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
// succStart/predEnd arrays against binary search over Pointers() on random
// matrices under all three threshold schemes: the Equation 4 relative γ,
// a shared absolute γ, and per-gene custom absolute thresholds.
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
		for g := 0; g < rows; g++ {
			// Relative (Equation 4) scheme.
			check(t, Build(m, g, rng.Float64()), m)
			// Shared absolute scheme, including γ = 0 strictness.
			check(t, BuildAbsolute(m, g, float64(rng.Intn(5))), m)
			// Per-gene custom scheme: threshold depends on the gene index.
			check(t, BuildAbsolute(m, g, float64(g)*0.75+rng.Float64()), m)
		}
	}
}

// TestModelSlabViewsEqualStandaloneModels verifies that packing relocates
// storage without changing a single observable: every accessor of a packed
// model agrees with an identically built standalone model.
func TestModelSlabViewsEqualStandaloneModels(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	m := randomMatrix(rng, 9, 11)
	const gamma = 0.2

	packed := make([]*Model, m.Rows())
	loose := make([]*Model, m.Rows())
	for g := range packed {
		packed[g] = Build(m, g, gamma)
		loose[g] = Build(m, g, gamma)
	}
	slab := PackModels(packed)

	if slab.Genes() != m.Rows() || slab.Conditions() != m.Cols() {
		t.Fatalf("slab dims = %d×%d, want %d×%d",
			slab.Genes(), slab.Conditions(), m.Rows(), m.Cols())
	}
	if ints, floats := slab.Words(); ints != slabIntStripes*m.Rows()*m.Cols() ||
		floats != slabFloatStripes*m.Rows()*m.Cols() {
		t.Fatalf("slab words = (%d, %d), want (%d, %d)", ints, floats,
			slabIntStripes*m.Rows()*m.Cols(), slabFloatStripes*m.Rows()*m.Cols())
	}

	for g := range packed {
		p, l := packed[g], loose[g]
		if !slab.Contains(p) {
			t.Fatalf("g%d: slab does not contain its packed model", g)
		}
		if slab.Contains(l) {
			t.Fatalf("g%d: slab claims to contain a standalone model", g)
		}
		if p.Gene() != l.Gene() || p.Gamma() != l.Gamma() || p.Conditions() != l.Conditions() {
			t.Fatalf("g%d: header mismatch after pack", g)
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

func TestPackModelsEmpty(t *testing.T) {
	slab := PackModels(nil)
	if slab.Genes() != 0 || slab.Conditions() != 0 {
		t.Fatalf("empty pack: got %d×%d", slab.Genes(), slab.Conditions())
	}
	mod := Build(paperdata.RunningExample(), 0, 0.15)
	if slab.Contains(mod) {
		t.Fatal("empty slab claims to contain a model")
	}
}

// TestPackModelsAllocations pins the pack cost: exactly the int backing and
// the float backing, regardless of how many genes are packed. A third
// allocation is tolerated to keep the pin robust against toolchain changes,
// per the ≤3 budget in DESIGN.md.
func TestPackModelsAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, genes := range []int{1, 16, 300} {
		m := randomMatrix(rng, genes, 8)
		models := make([]*Model, genes)
		for g := range models {
			models[g] = Build(m, g, 0.25)
		}
		allocs := testing.AllocsPerRun(10, func() {
			PackModels(models)
		})
		if allocs > 3 {
			t.Errorf("PackModels(%d genes): %.1f allocs per run, want <= 3", genes, allocs)
		}
	}
}

// TestAppendVariantsMatchSliceForms checks the append-style successor and
// predecessor queries against the allocating forms, including prefix
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

// TestKernelMatchesModelAccessors verifies the flat Kernel view returns the
// same data the Model methods do, for both packed and standalone models.
func TestKernelMatchesModelAccessors(t *testing.T) {
	m := paperdata.RunningExample()
	models := make([]*Model, m.Rows())
	for g := range models {
		models[g] = Build(m, g, 0.15)
	}
	PackModels(models)
	kerns := Kernels(models)
	if len(kerns) != len(models) {
		t.Fatalf("Kernels: %d views for %d models", len(kerns), len(models))
	}
	for g, mod := range models {
		k := kerns[g]
		n := mod.Conditions()
		if len(k.Order) != n || len(k.Rank) != n || len(k.SuccStart) != n ||
			len(k.PredEnd) != n || len(k.UpLen) != n || len(k.DownLen) != n ||
			len(k.ValueByCond) != n {
			t.Fatalf("g%d: kernel stripe lengths != %d", g, n)
		}
		for c := 0; c < n; c++ {
			r := k.Rank[c]
			if r != mod.Rank(c) || k.Order[r] != c {
				t.Fatalf("g%d c%d: kernel rank/order mismatch", g, c)
			}
			if k.SuccStart[r] != mod.SuccessorStartRank(c) ||
				k.PredEnd[r] != mod.PredecessorEndRank(c) {
				t.Fatalf("g%d c%d: kernel frontiers mismatch", g, c)
			}
			if k.UpLen[r] != mod.MaxUpChainFrom(c) || k.DownLen[r] != mod.MaxDownChainFrom(c) {
				t.Fatalf("g%d c%d: kernel chain lengths mismatch", g, c)
			}
			if k.ValueByCond[c] != mod.ValueOf(c) {
				t.Fatalf("g%d c%d: kernel value mismatch", g, c)
			}
		}
	}
}

// TestKernelsBuiltOncePerPackedSet: a packed set's views are built by the
// first Kernels call and returned, without allocating, by every later one;
// a repack replaces them, and a set that was never packed as a whole gets
// fresh views each time.
func TestKernelsBuiltOncePerPackedSet(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	m := randomMatrix(rng, 70, 9)
	models := make([]*Model, m.Rows())
	for g := range models {
		models[g] = Build(m, g, 0.2)
	}
	PackModels(models)
	first := Kernels(models)
	again := Kernels(append([]*Model(nil), models...))
	if &again[0] != &first[0] {
		t.Fatal("a second Kernels call over the same packed set rebuilt its views")
	}
	if allocs := testing.AllocsPerRun(10, func() { Kernels(models) }); allocs != 0 {
		t.Fatalf("Kernels over a packed set allocated %.1f times per call", allocs)
	}
	TablesOf(first) // the shared views still carry their tables

	// Concurrent first calls after a repack all get the one stored slice.
	PackModels(models)
	got := make([][]Kernel, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = Kernels(models)
		}()
	}
	wg.Wait()
	repacked := got[0]
	for _, k := range got[1:] {
		if &k[0] != &repacked[0] {
			t.Fatal("concurrent first Kernels calls returned different views")
		}
	}
	if &repacked[0] == &first[0] {
		t.Fatal("views of a repacked set survived the repack")
	}
	if repacked[0].tables[0] != uint64(len(models)) || &repacked[0].tables[0] != &models[0].tables[0] {
		t.Fatal("views of a repacked set do not carry its new tables")
	}

	part := models[:40]
	a, b := Kernels(part), Kernels(part)
	if &a[0] == &b[0] {
		t.Fatal("views of a partial set were shared")
	}
	checkTables(t, "partial", a, TablesOf(a))
}
