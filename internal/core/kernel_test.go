package core

// Exactness of the bit-sliced chain levels (extendBits) at gene counts that
// span several 64-gene words: every case goes through checkDifferential, so
// the frozen reference miner, Mine and MineWith at 1/2/8 workers must agree
// on clusters, order and every Stats counter.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"regcluster/internal/matrix"
	"regcluster/internal/synthetic"
)

// TestDifferentialWideMatrices runs the differential parameter grid on
// 60–210-gene matrices, where node member sets cover one to four bitset
// words. MinG grows with the row count so the grid keeps pruning.
func TestDifferentialWideMatrices(t *testing.T) {
	cases := 6
	if testing.Short() {
		cases = 2
	}
	rng := rand.New(rand.NewSource(20261019))
	clusters := 0
	for i := 0; i < cases; i++ {
		rows := 60 + rng.Intn(151)
		cols := 3 + rng.Intn(6)
		m := diffRandomMatrix(rng, rows, cols)
		for pi, p := range diffParams(rng) {
			p.MinG += rows / 20
			checkDifferential(t, m, p, fmt.Sprintf("wide case %d (%dx%d) params %d {%+v}", i, rows, cols, pi, p))
			res, err := Mine(m, p)
			if err != nil {
				t.Fatal(err)
			}
			clusters += len(res.Clusters)
		}
	}
	if clusters == 0 {
		t.Fatal("no wide case produced a cluster; the differential is vacuous")
	}
}

// TestDifferentialFigure7Matrices pins the cold-mine shape: 600×30 Figure 7
// matrices at the Figure 7 parameters (MinG = #genes/100, MinC = 6,
// γ = 0.1, ε = 0.01), where nearly all member checks run at chain lengths 1
// and 2.
func TestDifferentialFigure7Matrices(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		cfg := synthetic.DefaultConfig()
		cfg.Genes, cfg.Seed = 600, seed
		m, _, err := synthetic.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := Params{MinG: 6, MinC: 6, Gamma: 0.1, Epsilon: 0.01}
		checkDifferential(t, m, p, fmt.Sprintf("figure 7 seed %d", seed))
	}
}

// TestDifferentialKernelEdges drives the corners of the level-1/2 kernel on
// multi-word matrices: level-2 nodes that emit (MinC = 2), ε = 0 (no bucket
// filter), quotients H/ε past the bucketable range, each ablation switch
// that changes what the kernel reads, and γ = 0 with non-finite scores.
func TestDifferentialKernelEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(20261020))
	m := diffRandomMatrix(rng, 130, 7)
	for _, p := range []Params{
		{MinG: 8, MinC: 2, Gamma: 0.1, Epsilon: 0.25},
		{MinG: 6, MinC: 3, Gamma: 0.1, Epsilon: 0},
		{MinG: 6, MinC: 3, Gamma: 0.1, Epsilon: 0x1p-56}, // |H/ε| in [2^53, 2^62)
		{MinG: 6, MinC: 3, Gamma: 0.1, Epsilon: 1e-300},  // |H/ε| beyond 2^62
		{MinG: 8, MinC: 4, Gamma: 0.1, Epsilon: 0.5, DisableChainLengthPruning: true},
		{MinG: 8, MinC: 4, Gamma: 0.1, Epsilon: 0.5, NaiveCandidates: true},
		{MinG: 8, MinC: 9, Gamma: 0.1, Epsilon: 0.5}, // MinC past every chain
	} {
		checkDifferential(t, m, p, fmt.Sprintf("edges {%+v}", p))
	}
	res, err := Mine(m, Params{MinG: 8, MinC: 2, Gamma: 0.1, Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	level2 := 0
	for _, b := range res.Clusters {
		if len(b.Chain) == 2 {
			level2++
		}
	}
	if level2 == 0 {
		t.Fatalf("MinC = 2 emitted no level-2 cluster among %d", len(res.Clusters))
	}

	// γ = 0 admits denormal regulation steps, so Equation 7 overflows for
	// some members at level 2; the kernel must drop and count them exactly
	// as the sparse loop does.
	tiny := math.SmallestNonzeroFloat64
	den := matrix.New(70, 5)
	for g := 0; g < den.Rows(); g++ {
		for c := 0; c < den.Cols(); c++ {
			den.Set(g, c, []float64{0, tiny, 2 * tiny, 1e300, 1}[rng.Intn(5)])
		}
	}
	p := Params{MinG: 2, MinC: 2, Gamma: 0, AbsoluteGamma: true, Epsilon: 0.5}
	ref, err := referenceMine(den, p)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.NonFiniteH == 0 {
		t.Fatal("denormal matrix produced no non-finite scores; the case is vacuous")
	}
	checkDifferential(t, den, p, "gamma 0 non-finite")
}
