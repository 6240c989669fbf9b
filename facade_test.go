package regcluster_test

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"regcluster"
)

func TestPublicAPIParallelAndThresholds(t *testing.T) {
	m := regcluster.MatrixFromRows([][]float64{
		{0, 10, 20, 30, 40},
		{0, 20, 40, 60, 80},
		{100, 75, 50, 25, 0},
	})
	p := regcluster.Params{MinG: 3, MinC: 5, Gamma: 0.2, Epsilon: 1e-9}
	seq, err := regcluster.Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	par, err := regcluster.MineWith(context.Background(), m, p, regcluster.MineOptions{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Clusters) != 1 || len(par.Clusters) != 1 {
		t.Fatalf("seq %d, par %d clusters", len(seq.Clusters), len(par.Clusters))
	}
	if seq.Clusters[0].Key() != par.Clusters[0].Key() {
		t.Fatal("parallel diverged")
	}

	// Threshold helpers.
	rf := regcluster.ThresholdsRangeFraction(m, 0.5)
	if rf[0] != 20 || rf[2] != 50 {
		t.Errorf("range fraction thresholds %v", rf)
	}
	mf := regcluster.ThresholdsMeanFraction(m, 1)
	if mf[0] != 20 { // mean |{0,10,20,30,40}| = 20
		t.Errorf("mean fraction thresholds %v", mf)
	}
	np := regcluster.ThresholdsNearestPair(m)
	if np[0] != 10 {
		t.Errorf("nearest pair thresholds %v", np)
	}
	p.CustomGammas = np
	if _, err := regcluster.Mine(m, p); err != nil {
		t.Fatalf("custom gammas via public API: %v", err)
	}
}

// TestPublicAPISharedModels covers the model-sharing surface: BuildModels +
// MineWith's Models option reproduce Mine exactly across an ε variation, and
// ModelKey distinguishes γ-schemes but not ε.
func TestPublicAPISharedModels(t *testing.T) {
	m := regcluster.MatrixFromRows([][]float64{
		{0, 10, 20, 30, 40},
		{0, 20, 40, 60, 80},
		{100, 75, 50, 25, 0},
	})
	p := regcluster.Params{MinG: 3, MinC: 5, Gamma: 0.2, Epsilon: 1e-9}
	models, err := regcluster.BuildModels(m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{1e-9, 0.5} {
		q := p
		q.Epsilon = eps
		want, err := regcluster.Mine(m, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := regcluster.MineWith(context.Background(), m, q, regcluster.MineOptions{Workers: 1, Models: models})
		if err != nil {
			t.Fatal(err)
		}
		gotPar, err := regcluster.MineWith(context.Background(), m, q, regcluster.MineOptions{Workers: 2, Models: models})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Clusters) != len(want.Clusters) || len(gotPar.Clusters) != len(want.Clusters) {
			t.Fatalf("ε=%v: %d/%d clusters with shared models, want %d",
				eps, len(got.Clusters), len(gotPar.Clusters), len(want.Clusters))
		}
		for i := range want.Clusters {
			if got.Clusters[i].Key() != want.Clusters[i].Key() ||
				gotPar.Clusters[i].Key() != want.Clusters[i].Key() {
				t.Fatalf("ε=%v cluster %d diverges with shared models", eps, i)
			}
		}
	}
	q := p
	q.Epsilon = 0.5
	if regcluster.ModelKey("ds", p) != regcluster.ModelKey("ds", q) {
		t.Fatal("ε changed the model key")
	}
	q = p
	q.Gamma = 0.3
	if regcluster.ModelKey("ds", p) == regcluster.ModelKey("ds", q) {
		t.Fatal("γ did not change the model key")
	}
}

func TestPublicAPIYeastAndGO(t *testing.T) {
	cfg := regcluster.YeastConfig{Genes: 300, Conds: 17, Modules: 3, Seed: 11}
	m, modules, err := regcluster.GenerateYeastLike(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 300 || len(modules) != 3 {
		t.Fatalf("yeast substitute %dx%d, %d modules", m.Rows(), m.Cols(), len(modules))
	}
	if def := regcluster.DefaultYeastConfig(); def.Genes != 2884 || def.Conds != 17 {
		t.Errorf("default yeast config %+v", def)
	}

	sets := make([][]int, len(modules))
	for i := range modules {
		sets[i] = modules[i].Genes()
	}
	corpus := regcluster.SynthesizeGO(m.Rows(), sets, 5)
	for _, ns := range []regcluster.GONamespace{regcluster.GOProcess, regcluster.GOFunction, regcluster.GOComponent} {
		es := corpus.TermFinder(sets[0], ns)
		if len(es) == 0 || es[0].PValue > 1e-6 {
			t.Errorf("%v: planted module not enriched: %+v", ns, es)
		}
	}

	// Hypergeometric sanity through the façade.
	if p := regcluster.HypergeomTail(10, 4, 3, 1); math.Abs(p-5.0/6) > 1e-12 {
		t.Errorf("HypergeomTail = %v", p)
	}
}

func TestPublicAPILoadExpressionFile(t *testing.T) {
	m := regcluster.MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	path := filepath.Join(t.TempDir(), "e.tsv")
	if err := m.WriteTSVFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := regcluster.LoadExpressionFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(m) {
		t.Fatal("round trip mismatch")
	}
	if _, err := regcluster.LoadExpressionFile(filepath.Join(t.TempDir(), "missing.tsv")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestPublicAPIReadTSVFileMissing(t *testing.T) {
	if _, err := regcluster.ReadTSVFile(filepath.Join(t.TempDir(), "nope.tsv")); err == nil {
		t.Fatal("missing file accepted")
	}
}
