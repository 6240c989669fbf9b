package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"regcluster/internal/matrix"
	"regcluster/internal/paperdata"
)

func runningParams() Params {
	return Params{MinG: 3, MinC: 5, Gamma: 0.15, Epsilon: 0.1}
}

// TestRunningExample reproduces the paper's Section 4 walk-through (Figure 6):
// with γ=0.15, ε=0.1, MinG=3 and MinC=5, the only validated representative
// regulation chain of Table 1 is c7 ↶ c9 ↶ c5 ↶ c1 ↶ c3 with p-members
// {g1, g3} and n-member {g2}.
func TestRunningExample(t *testing.T) {
	m := paperdata.RunningExample()
	res, err := Mine(m, runningParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 {
		t.Fatalf("found %d clusters, want 1: %v", len(res.Clusters), res.Clusters)
	}
	b := res.Clusters[0]
	if !reflect.DeepEqual(b.Chain, paperdata.RunningExampleChain()) {
		t.Errorf("chain = %v, want %v", b.Chain, paperdata.RunningExampleChain())
	}
	if !reflect.DeepEqual(b.PMembers, []int{0, 2}) {
		t.Errorf("pX = %v, want [0 2] (g1, g3)", b.PMembers)
	}
	if !reflect.DeepEqual(b.NMembers, []int{1}) {
		t.Errorf("nX = %v, want [1] (g2)", b.NMembers)
	}
	if err := CheckBicluster(m, runningParams(), b); err != nil {
		t.Errorf("output fails Definition 3.2: %v", err)
	}
}

// TestRunningExamplePruningActivity checks that the Figure 6 prunings all
// fire on the running example.
func TestRunningExamplePruningActivity(t *testing.T) {
	m := paperdata.RunningExample()
	res, err := Mine(m, runningParams())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.PrunedMinG == 0 {
		t.Error("pruning (1) never fired (paper prunes c2c1, c2c9, c2c10c8, c7c10)")
	}
	if s.PrunedMajority == 0 {
		t.Error("pruning (3a) never fired (paper prunes node c3)")
	}
	if s.PrunedCoherence == 0 {
		t.Error("pruning (4) never fired (paper prunes c2c10c5)")
	}
	if s.MembersDroppedByLength == 0 {
		t.Error("pruning (2) never fired")
	}
	if s.Clusters != 1 {
		t.Errorf("stats.Clusters = %d", s.Clusters)
	}
	if s.Nodes == 0 || s.CandidatesExamined == 0 {
		t.Error("empty work counters")
	}
}

// TestSixPatterns verifies the Figure 1 motivation: the six profiles related
// by P1 = P2-5 = P3-15 = P4 = P5/1.5 = P6/3 form one reg-cluster across all
// eight conditions.
func TestSixPatterns(t *testing.T) {
	m := paperdata.SixPatterns()
	res, err := Mine(m, Params{MinG: 6, MinC: 8, Gamma: 0.1, Epsilon: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range res.Clusters {
		g, c := b.Dims()
		if g == 6 && c == 8 && len(b.NMembers) == 0 {
			found = true
			if err := CheckBicluster(m, Params{MinG: 6, MinC: 8, Gamma: 0.1, Epsilon: 1e-9}, b); err != nil {
				t.Errorf("six-pattern cluster invalid: %v", err)
			}
		}
	}
	if !found {
		t.Fatalf("no 6x8 all-positive cluster found; got %v", res.Clusters)
	}
}

// TestOutlierProjection verifies the Figure 4 comparison: on conditions
// c2, c4, c8, c10 of Table 1, reg-cluster groups g1 and g3 (which satisfy
// d3 = 0.4*d1 + 2) and rejects the outlier g2.
func TestOutlierProjection(t *testing.T) {
	m := paperdata.OutlierProjection()
	p := Params{MinG: 2, MinC: 4, Gamma: 0.15, Epsilon: 0.1}
	res, err := Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 {
		t.Fatal("no cluster found on the Figure 4 projection")
	}
	for _, b := range res.Clusters {
		for _, g := range b.Genes() {
			if g == 1 {
				t.Fatalf("outlier g2 wrongly clustered: %v", b)
			}
		}
	}
	// The {g1, g3} cluster over all four conditions must be among them.
	found := false
	for _, b := range res.Clusters {
		if g, c := b.Dims(); g == 2 && c == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a 2x4 cluster of g1 and g3, got %v", res.Clusters)
	}
}

// TestRepresentativeDirection: when the falling genes outnumber the rising
// ones, the representative chain must be the falling direction (those genes
// become p-members of the reversed chain).
func TestRepresentativeDirection(t *testing.T) {
	m := matrix.FromRows([][]float64{
		{1, 2, 3, 4, 5},      // rises along c0..c4
		{2, 4, 6, 8, 10},     // rises
		{10, 8, 6, 4, 2},     // falls
		{5, 4, 3, 2, 1},      // falls
		{50, 40, 30, 20, 10}, // falls
	})
	p := Params{MinG: 5, MinC: 5, Gamma: 0.1, Epsilon: 1e-9}
	res, err := Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 {
		t.Fatalf("got %d clusters, want 1: %v", len(res.Clusters), res.Clusters)
	}
	b := res.Clusters[0]
	if !reflect.DeepEqual(b.Chain, []int{4, 3, 2, 1, 0}) {
		t.Errorf("chain = %v, want [4 3 2 1 0]", b.Chain)
	}
	if !reflect.DeepEqual(b.PMembers, []int{2, 3, 4}) || !reflect.DeepEqual(b.NMembers, []int{0, 1}) {
		t.Errorf("pX=%v nX=%v, want pX=[2 3 4] nX=[0 1]", b.PMembers, b.NMembers)
	}
}

// TestTieBreakOnEqualMembership: with one rising and one falling gene the
// directions tie; exactly one orientation may be output, the one whose chain
// starts at the larger condition id.
func TestTieBreakOnEqualMembership(t *testing.T) {
	m := matrix.FromRows([][]float64{
		{1, 2, 3},
		{3, 2, 1},
	})
	p := Params{MinG: 2, MinC: 3, Gamma: 0.1, Epsilon: 1e-9}
	res, err := Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 {
		t.Fatalf("got %d clusters, want exactly 1 (tie-break): %v", len(res.Clusters), res.Clusters)
	}
	b := res.Clusters[0]
	if b.Chain[0] <= b.Chain[len(b.Chain)-1] {
		t.Errorf("tie-break violated: chain %v should start at the larger condition id", b.Chain)
	}
}

// TestNoDuplicateOutputs: output keys must be unique.
func TestNoDuplicateOutputs(t *testing.T) {
	m := randomMatrix(40, 10, 3)
	res, err := Mine(m, Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, b := range res.Clusters {
		k := b.Key()
		if seen[k] {
			t.Fatalf("duplicate cluster output: %s", k)
		}
		seen[k] = true
	}
}

// TestAllOutputsSatisfyDefinition: on random data every mined cluster must
// pass the independent Definition 3.2 checker.
func TestAllOutputsSatisfyDefinition(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		m := randomMatrix(30, 8, seed)
		p := Params{MinG: 3, MinC: 3, Gamma: 0.1, Epsilon: 0.3}
		res, err := Mine(m, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range res.Clusters {
			if err := CheckBicluster(m, p, b); err != nil {
				t.Fatalf("seed %d: invalid cluster %v: %v", seed, b, err)
			}
		}
	}
}

// TestAblationEquivalence: disabling the output-preserving prunings and the
// RWave candidate generation must not change the mined cluster set.
func TestAblationEquivalence(t *testing.T) {
	m := randomMatrix(25, 8, 11)
	base := Params{MinG: 3, MinC: 3, Gamma: 0.08, Epsilon: 0.4}
	want := clusterKeySet(t, m, base)
	variants := []func(*Params){
		func(p *Params) { p.DisableChainLengthPruning = true },
		func(p *Params) { p.DisableMajorityPruning = true },
		func(p *Params) { p.DisableDedupPruning = true },
		func(p *Params) { p.NaiveCandidates = true },
		func(p *Params) {
			p.DisableChainLengthPruning = true
			p.DisableMajorityPruning = true
			p.DisableDedupPruning = true
			p.NaiveCandidates = true
		},
	}
	for i, mod := range variants {
		p := base
		mod(&p)
		got := clusterKeySet(t, m, p)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("variant %d changed the cluster set: %d vs %d clusters", i, len(got), len(want))
		}
	}
}

func clusterKeySet(t *testing.T, m *matrix.Matrix, p Params) []string {
	t.Helper()
	res, err := Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(res.Clusters))
	for i, b := range res.Clusters {
		keys[i] = b.Key()
	}
	sort.Strings(keys)
	return keys
}

// TestShiftScaleInvariance: applying gene-wise shifting-and-scaling (with
// positive or negative scale) to cluster members must preserve the cluster,
// because both the Equation 4 threshold and the Equation 7 score are
// invariant under d := s1*d + s2.
func TestShiftScaleInvariance(t *testing.T) {
	m := matrix.FromRows([][]float64{
		{1, 3, 5, 7, 9},
		{1, 3, 5, 7, 9},
		{1, 3, 5, 7, 9},
	})
	m.ShiftScaleRow(1, 2.5, -4)  // positive scaling + shift
	m.ShiftScaleRow(2, -1.5, 20) // negative scaling + shift
	p := Params{MinG: 3, MinC: 5, Gamma: 0.2, Epsilon: 1e-9}
	res, err := Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 {
		t.Fatalf("got %d clusters, want 1: %v", len(res.Clusters), res.Clusters)
	}
	b := res.Clusters[0]
	if g, c := b.Dims(); g != 3 || c != 5 {
		t.Fatalf("cluster dims %dx%d, want 3x5", g, c)
	}
	if len(b.NMembers) != 1 || b.NMembers[0] != 2 {
		t.Errorf("negatively scaled gene should be the n-member: %v", b)
	}
}

func TestGammaFiltersWeakPatterns(t *testing.T) {
	// Two genes follow the same tendency, but gene 1's swings are a tiny
	// fraction of its own range except for one spike, so at γ=0.3 its small
	// steps are not regulations and no 4-condition cluster survives.
	m := matrix.FromRows([][]float64{
		{0, 10, 20, 30},
		{0, 0.1, 0.2, 100},
	})
	res, err := Mine(m, Params{MinG: 2, MinC: 4, Gamma: 0.3, Epsilon: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 0 {
		t.Fatalf("γ should have filtered the weak pattern, got %v", res.Clusters)
	}
	// With γ=0 the tendency alone suffices.
	res, err = Mine(m, Params{MinG: 2, MinC: 4, Gamma: 0, Epsilon: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 {
		t.Fatal("γ=0 with huge ε should accept the shared tendency")
	}
}

func TestEpsilonControlsCoherence(t *testing.T) {
	// Same tendency, different shapes: H scores differ by 1.0 between the
	// genes on the middle pair.
	m := matrix.FromRows([][]float64{
		{0, 1, 2, 3},
		{0, 1, 3, 4},
	})
	tight := Params{MinG: 2, MinC: 4, Gamma: 0, Epsilon: 0.5}
	res, err := Mine(m, tight)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 0 {
		t.Fatalf("ε=0.5 should reject (H spread is 1.0), got %v", res.Clusters)
	}
	loose := tight
	loose.Epsilon = 1.0
	res, err = Mine(m, loose)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 {
		t.Fatal("ε=1.0 should accept the pair")
	}
}

func TestMaxClustersTruncation(t *testing.T) {
	m := randomMatrix(40, 10, 5)
	p := Params{MinG: 3, MinC: 3, Gamma: 0.02, Epsilon: 1.0, MaxClusters: 4}
	res, err := Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 4 || !res.Stats.Truncated {
		t.Fatalf("MaxClusters=4: got %d clusters, truncated=%v", len(res.Clusters), res.Stats.Truncated)
	}
}

func TestMaxNodesTruncation(t *testing.T) {
	m := randomMatrix(40, 10, 5)
	p := Params{MinG: 3, MinC: 3, Gamma: 0.02, Epsilon: 1.0, MaxNodes: 10}
	res, err := Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Truncated {
		t.Fatal("MaxNodes=10 should truncate")
	}
	if res.Stats.Nodes > 11 {
		t.Fatalf("visited %d nodes with MaxNodes=10", res.Stats.Nodes)
	}
}

func TestParamValidation(t *testing.T) {
	m := matrix.New(2, 2)
	bad := []Params{
		{MinG: 1, MinC: 2, Gamma: 0.1},
		{MinG: 2, MinC: 1, Gamma: 0.1},
		{MinG: 2, MinC: 2, Gamma: -0.1},
		{MinG: 2, MinC: 2, Gamma: 1.5},
		{MinG: 2, MinC: 2, Gamma: 0.1, Epsilon: -1},
		{MinG: 2, MinC: 2, Gamma: -1, AbsoluteGamma: true},
		{MinG: 2, MinC: 2, Gamma: 0.1, MaxClusters: -1},
	}
	for i, p := range bad {
		if _, err := Mine(m, p); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
	// AbsoluteGamma may exceed 1.
	if _, err := Mine(m, Params{MinG: 2, MinC: 2, Gamma: 5, AbsoluteGamma: true}); err != nil {
		t.Errorf("absolute gamma 5 rejected: %v", err)
	}
}

func TestAbsoluteGamma(t *testing.T) {
	m := matrix.FromRows([][]float64{
		{0, 10, 20, 30},
		{0, 10, 20, 30},
	})
	// Steps are 10; absolute γ=9 accepts, γ=11 rejects.
	if res, _ := Mine(m, Params{MinG: 2, MinC: 4, Gamma: 9, Epsilon: 0.1, AbsoluteGamma: true}); len(res.Clusters) == 0 {
		t.Error("absolute γ=9 should accept steps of 10")
	}
	if res, _ := Mine(m, Params{MinG: 2, MinC: 4, Gamma: 11, Epsilon: 0.1, AbsoluteGamma: true}); len(res.Clusters) != 0 {
		t.Error("absolute γ=11 should reject steps of 10")
	}
}

func TestEmptyAndTinyMatrices(t *testing.T) {
	res, err := Mine(matrix.New(0, 0), Params{MinG: 2, MinC: 2, Gamma: 0.1})
	if err != nil || len(res.Clusters) != 0 {
		t.Fatalf("empty matrix: %v %v", res, err)
	}
	res, err = Mine(matrix.New(1, 5), Params{MinG: 2, MinC: 2, Gamma: 0.1})
	if err != nil || len(res.Clusters) != 0 {
		t.Fatalf("single gene: %v %v", res, err)
	}
}

func randomMatrix(rows, cols int, seed int64) *matrix.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.Float64()*10)
		}
	}
	return m
}

// TestChainLengthPruningDropsValidCluster pins what pruning (2) does to the
// output on the smallest known case: it is not output-preserving. At the
// level-2 node (c1, c3, c2) the n-members g0 and g1 cannot step on to c0,
// so the paper configuration drops them before the windows are cut and
// emits only {g2, g4, g5} on chain c1→c3→c2→c0. Without pruning (2), g1
// shapes a second ε-window {g2, g5, g1}, which becomes the cluster {g2, g5}
// once g1 fails at c0. That cluster satisfies Definition 3.2, yet the paper
// configuration — the reference semantics — does not emit it.
func TestChainLengthPruningDropsValidCluster(t *testing.T) {
	m := matrix.New(6, 4)
	for g, row := range [][]float64{
		{2, 6, 2, 3},
		{2, 6, 1, 4},
		{8, 2, 6, 4},
		{0, 9, 6, 3},
		{6, 1, 5, 4},
		{9, 0, 6, 3},
	} {
		copy(m.Row(g), row)
	}
	paper := Params{MinG: 2, MinC: 4, Gamma: 0.1, Epsilon: 1}
	unpruned := paper
	unpruned.DisableChainLengthPruning = true
	chain := []int{1, 3, 2, 0}
	onChain := func(p Params) [][]int {
		res, err := Mine(m, p)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]int
		for _, b := range res.Clusters {
			if reflect.DeepEqual(b.Chain, chain) && len(b.NMembers) == 0 {
				out = append(out, b.PMembers)
			}
		}
		return out
	}
	if got, want := onChain(paper), [][]int{{2, 4, 5}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("paper configuration on c1→c3→c2→c0: p-members %v, want %v", got, want)
	}
	if got, want := onChain(unpruned), [][]int{{2, 4, 5}, {2, 5}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unpruned run on c1→c3→c2→c0: p-members %v, want %v", got, want)
	}
	lost := &Bicluster{Chain: chain, PMembers: []int{2, 5}}
	if err := CheckBicluster(m, paper, lost); err != nil {
		t.Fatalf("the cluster pruning (2) drops must satisfy Definition 3.2: %v", err)
	}
}
