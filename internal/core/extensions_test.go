package core

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"

	"regcluster/internal/matrix"
	"regcluster/internal/paperdata"
)

func TestMineRejectsNaN(t *testing.T) {
	m := matrix.FromRows([][]float64{{1, math.NaN()}, {2, 3}})
	if _, err := Mine(m, Params{MinG: 2, MinC: 2, Gamma: 0.1}); err == nil {
		t.Fatal("NaN matrix accepted")
	}
}

func TestCustomGammasOverride(t *testing.T) {
	m := matrix.FromRows([][]float64{
		{0, 10, 20, 30},
		{0, 10, 20, 30},
	})
	// Steps are 10. Custom absolute thresholds of 9 accept; 11 reject.
	p := Params{MinG: 2, MinC: 4, Gamma: 0.9, Epsilon: 0.1, CustomGammas: []float64{9, 9}}
	res, err := Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 {
		t.Fatalf("custom γ=9 should accept: %v", res.Clusters)
	}
	if err := CheckBicluster(m, p, res.Clusters[0]); err != nil {
		t.Errorf("validator disagrees with miner under CustomGammas: %v", err)
	}
	p.CustomGammas = []float64{11, 11}
	res, err = Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 0 {
		t.Fatalf("custom γ=11 should reject: %v", res.Clusters)
	}
}

func TestCustomGammasValidation(t *testing.T) {
	m := matrix.New(2, 3)
	if _, err := Mine(m, Params{MinG: 2, MinC: 2, Gamma: 0.1, CustomGammas: []float64{1}}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Mine(m, Params{MinG: 2, MinC: 2, Gamma: 0.1, CustomGammas: []float64{1, -1}}); err == nil {
		t.Error("negative custom gamma accepted")
	}
}

func TestThresholdHelpers(t *testing.T) {
	m2 := matrix.FromRows([][]float64{{0, 10}, {-4, 4}})
	if got := ThresholdsRangeFraction(m2, 0.5); !reflect.DeepEqual(got, []float64{5, 4}) {
		t.Errorf("range fraction = %v", got)
	}
	if got := ThresholdsMeanFraction(m2, 1.0); !reflect.DeepEqual(got, []float64{5, 4}) {
		t.Errorf("mean fraction = %v", got)
	}
	m3 := matrix.FromRows([][]float64{{1, 5, 3, 11}})
	// Sorted: 1,3,5,11 → gaps 2,2,6 → mean 10/3.
	got := ThresholdsNearestPair(m3)
	if math.Abs(got[0]-10.0/3) > 1e-12 {
		t.Errorf("nearest pair = %v", got)
	}
	if ThresholdsNearestPair(matrix.New(1, 1))[0] != 0 {
		t.Error("single-condition nearest pair should be 0")
	}
}

func TestThresholdsEquivalence(t *testing.T) {
	// CustomGammas = ThresholdsRangeFraction(γ) must reproduce the default
	// Equation 4 behaviour exactly.
	m := paperdata.RunningExample()
	base := Params{MinG: 3, MinC: 5, Gamma: 0.15, Epsilon: 0.1}
	custom := base
	custom.Gamma = 0
	custom.CustomGammas = ThresholdsRangeFraction(m, 0.15)
	a, err := Mine(m, base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mine(m, custom)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Clusters) != len(b.Clusters) || a.Clusters[0].Key() != b.Clusters[0].Key() {
		t.Fatal("CustomGammas(range fraction) diverged from Equation 4 default")
	}
}

func TestMineParallelMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		m := randomMatrix(60, 10, seed)
		p := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.4}
		seq, err := Mine(m, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 2, 4, 16} {
			par, err := MineWith(context.Background(), m, p, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !sameClusterKeys(seq.Clusters, par.Clusters) {
				t.Fatalf("seed %d workers %d: parallel output differs (%d vs %d clusters)",
					seed, workers, len(par.Clusters), len(seq.Clusters))
			}
			if par.Stats.Nodes != seq.Stats.Nodes {
				t.Errorf("seed %d workers %d: node counts differ: %d vs %d",
					seed, workers, par.Stats.Nodes, seq.Stats.Nodes)
			}
		}
	}
}

func TestMineParallelOrderDeterministic(t *testing.T) {
	m := randomMatrix(50, 8, 9)
	p := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.4}
	a, err := MineWith(context.Background(), m, p, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MineWith(context.Background(), m, p, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Clusters) != len(b.Clusters) {
		t.Fatal("nondeterministic count")
	}
	for i := range a.Clusters {
		if a.Clusters[i].Key() != b.Clusters[i].Key() {
			t.Fatal("nondeterministic order")
		}
	}
}

func TestMineParallelRunningExample(t *testing.T) {
	m := paperdata.RunningExample()
	res, err := MineWith(context.Background(), m, runningParams(), Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 || !reflect.DeepEqual(res.Clusters[0].Chain, paperdata.RunningExampleChain()) {
		t.Fatalf("parallel run diverged on the running example: %v", res.Clusters)
	}
}

func TestMineParallelValidation(t *testing.T) {
	m := matrix.FromRows([][]float64{{1, math.NaN()}})
	if _, err := MineWith(context.Background(), m, Params{MinG: 2, MinC: 2, Gamma: 0.1}, Options{Workers: 2}); err == nil {
		t.Fatal("NaN matrix accepted by a parallel MineWith")
	}
}

func sameClusterKeys(a, b []*Bicluster) bool {
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i := range a {
		ka[i] = a[i].Key()
	}
	for i := range b {
		kb[i] = b[i].Key()
	}
	sort.Strings(ka)
	sort.Strings(kb)
	return reflect.DeepEqual(ka, kb)
}
