package regcluster_test

// Benchmark harness: one testing.B benchmark per table/figure of the paper's
// evaluation (see DESIGN.md's per-experiment index and EXPERIMENTS.md for
// measured results).
//
//	go test -bench=. -benchmem
//
// Figure 7 panels sweep one generator input with the others at the paper
// defaults; BenchmarkYeast is the Section 5.2 effectiveness run; the
// remaining benchmarks cover Table 2 (GO term finder), the running example
// and the pruning ablation (E8).

import (
	"context"
	"fmt"
	"testing"

	"regcluster"
	"regcluster/internal/ccbicluster"
	"regcluster/internal/core"
	"regcluster/internal/dataset"
	"regcluster/internal/experiments"
	"regcluster/internal/ontology"
	"regcluster/internal/opcluster"
	"regcluster/internal/opsm"
	"regcluster/internal/paperdata"
	"regcluster/internal/pcluster"
	"regcluster/internal/scaling"
	"regcluster/internal/synthetic"
)

// genMatrix builds the Figure 7 synthetic dataset for one sweep point.
func genMatrix(b *testing.B, genes, conds, clusters int) *regcluster.Matrix {
	b.Helper()
	cfg := synthetic.Config{Genes: genes, Conds: conds, Clusters: clusters, Seed: 1}
	m, _, err := synthetic.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func mineBench(b *testing.B, m *regcluster.Matrix, p core.Params) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Mine(m, p)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Clusters) == 0 {
			b.Fatal("no clusters")
		}
	}
}

// BenchmarkFig7Genes is E1 (Figure 7 left): runtime vs #genes at
// #cond=30, #clus=30, MinG=0.01*#g, MinC=6, γ=0.1, ε=0.01.
func BenchmarkFig7Genes(b *testing.B) {
	for _, genes := range []int{1000, 2000, 3000, 4000, 5000} {
		b.Run(fmt.Sprintf("g=%d", genes), func(b *testing.B) {
			m := genMatrix(b, genes, 30, 30)
			mineBench(b, m, experiments.MiningDefaults(genes))
		})
	}
}

// BenchmarkFig7Conds is E2 (Figure 7 middle): runtime vs #conditions at
// #g=3000, #clus=30.
func BenchmarkFig7Conds(b *testing.B) {
	for _, conds := range []int{10, 15, 20, 25, 30} {
		b.Run(fmt.Sprintf("c=%d", conds), func(b *testing.B) {
			m := genMatrix(b, 3000, conds, 30)
			mineBench(b, m, experiments.MiningDefaults(3000))
		})
	}
}

// BenchmarkFig7Clusters is E3 (Figure 7 right): runtime vs #clusters at
// #g=3000, #cond=30.
func BenchmarkFig7Clusters(b *testing.B) {
	for _, clus := range []int{10, 20, 30, 40, 50} {
		b.Run(fmt.Sprintf("k=%d", clus), func(b *testing.B) {
			m := genMatrix(b, 3000, 30, clus)
			mineBench(b, m, experiments.MiningDefaults(3000))
		})
	}
}

// BenchmarkYeast is E4 (Section 5.2): mining the 2884×17 yeast substitute at
// MinG=20, MinC=6, γ=0.05, ε=1.0.
func BenchmarkYeast(b *testing.B) {
	m, _, err := dataset.GenerateYeastLike(dataset.DefaultYeastConfig())
	if err != nil {
		b.Fatal(err)
	}
	mineBench(b, m, experiments.YeastParams())
}

// BenchmarkTable2TermFinder is E5: scoring a 21-gene cluster against the GO
// substrate across all three namespaces.
func BenchmarkTable2TermFinder(b *testing.B) {
	modules := make([][]int, 12)
	for k := range modules {
		for i := 0; i < 25; i++ {
			modules[k] = append(modules[k], k*25+i)
		}
	}
	corpus := ontology.Synthesize(dataset.YeastGenes, modules, 1)
	query := modules[3][:21]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ns := range ontology.Namespaces() {
			if es := corpus.TermFinder(query, ns); len(es) == 0 {
				b.Fatal("no enrichment")
			}
		}
	}
}

// BenchmarkRunningExample is E6: the complete Table 1 walk-through (index
// construction plus mining).
func BenchmarkRunningExample(b *testing.B) {
	m := paperdata.RunningExample()
	p := core.Params{MinG: 3, MinC: 5, Gamma: 0.15, Epsilon: 0.1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Mine(m, p)
		if err != nil || len(res.Clusters) != 1 {
			b.Fatalf("unexpected result: %v %v", res, err)
		}
	}
}

// BenchmarkPruningAblation is E8: the paper configuration versus each
// pruning disabled, on a mid-size synthetic dataset. Work counters are
// reported as custom metrics.
func BenchmarkPruningAblation(b *testing.B) {
	m := genMatrix(b, 1000, 20, 10)
	base := experiments.MiningDefaults(1000)
	for _, v := range experiments.AblationVariants() {
		b.Run(v.Name, func(b *testing.B) {
			p := base
			v.Modify(&p)
			b.ReportAllocs()
			var nodes, cands int
			for i := 0; i < b.N; i++ {
				res, err := core.Mine(m, p)
				if err != nil {
					b.Fatal(err)
				}
				nodes = res.Stats.Nodes
				cands = res.Stats.CandidatesExamined
			}
			b.ReportMetric(float64(nodes), "nodes")
			b.ReportMetric(float64(cands), "candidates")
		})
	}
}

// BenchmarkBuildModels measures the index every mining run pays for before
// its search, the preprocessing phase of Figure 5: core.BuildModels — the
// per-gene RWave builds and the condition-pair tables — on Figure 7
// matrices at the Figure 7 defaults, at the cold-mine upload shape (600×30)
// and at Figure 7's largest gene count (5000×30).
func BenchmarkBuildModels(b *testing.B) {
	for _, genes := range []int{600, 5000} {
		b.Run(fmt.Sprintf("g=%d", genes), func(b *testing.B) {
			m := genMatrix(b, genes, 30, 30)
			p := experiments.MiningDefaults(genes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				set, err := core.BuildModels(m, p, nil)
				if err != nil || set.Genes() != genes {
					b.Fatalf("build: %v", err)
				}
			}
		})
	}
}

// BenchmarkSweepSharedModel measures what the model cache buys an ε-sweep:
// "rebuild" runs a 4-point sweep the naive way (each point constructs its own
// RWave index), "shared" builds the index once and re-mines with it. The gap
// is the amortized preprocessing cost of Figure 5.
func BenchmarkSweepSharedModel(b *testing.B) {
	m := genMatrix(b, 1000, 20, 10)
	base := experiments.MiningDefaults(1000)
	epsilons := []float64{0.005, 0.01, 0.02, 0.04}
	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, e := range epsilons {
				p := base
				p.Epsilon = e
				if _, err := core.Mine(m, p); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			models, err := core.BuildModels(m, base, nil)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range epsilons {
				p := base
				p.Epsilon = e
				if _, err := core.MineWith(context.Background(), m, p, core.Options{Workers: 1, Models: models}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkIncrementalRemine measures the append-delta re-mine against a
// cold mine of the same grown matrix (DESIGN.md §15, E13). A condition is
// clean only when the appended arrays stay within γ of it in EVERY gene, so
// the scenario that benefits is the live-pipeline steady state: new arrays
// that are near-replicates of an existing condition band. 400 genes share a
// shifted ladder profile — 24 baseline arrays inside one γ band plus six
// expression rungs at spacing 3 — under an absolute γ=2; the two appended
// arrays land inside the baseline band, so they regulate only against the
// six rungs and 24 of 32 subtrees splice from the parent run. The
// incremental side is MineWith with Options.Parent: it pays RWave repair
// plus mining the eight dirty subtrees; both sides emit byte-identical
// output (pinned by the core differential suite), so the delta is pure
// runtime.
func BenchmarkIncrementalRemine(b *testing.B) {
	const genes, baseConds, rungs, workers = 400, 24, 6, 4
	parent := regcluster.NewMatrix(genes, baseConds+rungs)
	for j := 0; j < baseConds+rungs; j++ {
		parent.SetColName(j, fmt.Sprintf("c%02d", j))
	}
	for g := 0; g < genes; g++ {
		parent.SetRowName(g, fmt.Sprintf("g%03d", g))
		shift := 0.001 * float64(g)
		for j := 0; j < baseConds; j++ {
			parent.Set(g, j, 0.02*float64(j)+shift)
		}
		for k := 0; k < rungs; k++ {
			parent.Set(g, baseConds+k, 3*float64(k+1)+shift)
		}
	}
	delta := regcluster.NewMatrix(genes, 2)
	delta.SetColName(0, "new-a")
	delta.SetColName(1, "new-b")
	for g := 0; g < genes; g++ {
		delta.SetRowName(g, parent.RowName(g))
		shift := 0.001 * float64(g)
		delta.Set(g, 0, 0.25+shift)
		delta.Set(g, 1, 0.31+shift)
	}
	grown, err := regcluster.AppendConditions(parent, delta)
	if err != nil {
		b.Fatal(err)
	}
	p := core.Params{MinG: 40, MinC: 4, Gamma: 2, AbsoluteGamma: true, Epsilon: 0.05}

	parentModels, err := core.BuildModels(parent, p, nil)
	if err != nil {
		b.Fatal(err)
	}
	parentResult, err := core.MineWith(context.Background(), parent, p, core.Options{Workers: workers, Models: parentModels})
	if err != nil {
		b.Fatal(err)
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := core.MineWith(context.Background(), grown, p, core.Options{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Clusters) == 0 {
				b.Fatal("no clusters")
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			childModels, _, err := core.RepairModels(grown, p, parentModels, nil)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			visit := func(*core.Bicluster) bool { n++; return true }
			res, err := core.MineWith(context.Background(), grown, p, core.Options{Workers: workers, Visit: visit,
				Models: childModels, Parent: &core.Parent{Matrix: parent, Result: parentResult}})
			if err != nil {
				b.Fatal(err)
			}
			info := res.Incremental
			if !info.Incremental {
				b.Fatal("fell back to a cold mine:", info.Fallback)
			}
			if info.SubtreesReused != baseConds {
				b.Fatalf("reused %d subtrees, want the %d baseline roots", info.SubtreesReused, baseConds)
			}
			if n == 0 {
				b.Fatal("no clusters")
			}
		}
	})
}

// BenchmarkOverlapStats measures the Section 5.2 overlap statistic on a
// full yeast result set.
func BenchmarkOverlapStats(b *testing.B) {
	m, _, err := dataset.GenerateYeastLike(dataset.DefaultYeastConfig())
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Mine(m, experiments.YeastParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := regcluster.Overlaps(res.Clusters)
		if s.Pairs == 0 {
			b.Fatal("no pairs")
		}
	}
}

// BenchmarkBaselines measures each comparison model on the E9 workload, for
// the runtime column of the recovery table.
func BenchmarkBaselines(b *testing.B) {
	m := genMatrix(b, 60, 10, 2)
	b.Run("pcluster", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pcluster.Mine(m, pcluster.Params{Delta: 0.5, MinG: 4, MinC: 5, MaxNodes: 200000}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scaling", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := scaling.Mine(m, scaling.Params{Epsilon: 0.05, MinG: 4, MinC: 5, MaxNodes: 200000}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("opcluster", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := opcluster.Mine(m, opcluster.Params{MinG: 4, MinC: 5, Strict: true, MaxNodes: 500000}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cheng-church", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ccbicluster.Mine(m, ccbicluster.DefaultParams(25, 4)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("opsm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := opsm.Mine(m, opsm.Params{Size: 5, Beam: 100}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTricluster3D measures the 3-D miner on a planted tensor.
func BenchmarkTricluster3D(b *testing.B) {
	ten, _, err := regcluster.GenerateTensor(regcluster.TensorConfig{
		Genes: 60, Samples: 8, Times: 6,
		Clusters: 2, ClusterGenes: 8, ClusterSamples: 4, ClusterTimes: 3, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := regcluster.MineTriclusters(ten, regcluster.TriclusterParams{
			Epsilon: 0.001, MinG: 8, MinS: 4, MinT: 3,
		})
		if err != nil || len(got) == 0 {
			b.Fatalf("%v / %d blocks", err, len(got))
		}
	}
}

// BenchmarkMineParallel compares the sequential and parallel miners on the
// paper-scale workload.
func BenchmarkMineParallel(b *testing.B) {
	m := genMatrix(b, 3000, 30, 30)
	p := experiments.MiningDefaults(3000)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Mine(m, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MineWith(context.Background(), m, p, core.Options{Workers: 0}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel-func", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			if _, err := core.MineWith(context.Background(), m, p, core.Options{Workers: 0, Visit: func(*core.Bicluster) bool {
				n++
				return true
			}}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The truncated path exercises the global budget plus the emitter's
	// reconciliation rerun; it must stay bounded by ~2x the cap's work.
	b.Run("parallel-truncated", func(b *testing.B) {
		pt := p
		pt.MaxNodes = 50000
		for i := 0; i < b.N; i++ {
			if _, err := core.MineWith(context.Background(), m, pt, core.Options{Workers: 0}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
