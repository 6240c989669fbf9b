package core

// Kernel microbenchmarks — the `make bench-kernels` suite. Each benchmark
// isolates one inner-loop primitive of the columnar mining hot path (flat
// frontier lookups, the candidate scan, Equation 7 scoring, the word-wise
// bitset walk) on a model set's per-gene views, so a regression in the set's
// layout or the memoized arrays shows up here before it shows up in the
// minutes-long Figure 7 runs.

import (
	"math"
	"testing"

	"regcluster/internal/matrix"
	"regcluster/internal/rwave"
	"regcluster/internal/synthetic"
)

var kernelSink int
var kernelSinkF float64

func kernelBenchSetup(b *testing.B, genes, conds int) (*matrix.Matrix, *rwave.Set) {
	b.Helper()
	cfg := synthetic.Config{Genes: genes, Conds: conds, Clusters: 6, Seed: 3}
	m, _, err := synthetic.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	models, err := BuildModels(m, Params{MinG: 4, MinC: 4, Gamma: 0.1, Epsilon: 0.05}, nil)
	if err != nil {
		b.Fatal(err)
	}
	return m, models
}

// BenchmarkKernelFrontierLookup measures the memoized Lemma 3.1 queries:
// one successor-start and one predecessor-end load per (gene, condition)
// pair.
func BenchmarkKernelFrontierLookup(b *testing.B) {
	m, set := kernelBenchSetup(b, 500, 30)
	conds := m.Cols()
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		for g := 0; g < set.Genes(); g++ {
			mod := set.Model(g)
			for c := 0; c < conds; c++ {
				sum += mod.SuccessorStartRank(c) + mod.PredecessorEndRank(c)
			}
		}
	}
	kernelSink = sum
}

// BenchmarkKernelCandidateScan measures the extend-style successor scan: for
// every gene, walk the regulation successors of the chain tail and dedup
// against a chain-seeded bitset, exactly as the miner collects candidate
// conditions.
func BenchmarkKernelCandidateScan(b *testing.B) {
	m, set := kernelBenchSetup(b, 500, 30)
	conds := m.Cols()
	inChain := newCondSet(conds)
	inChain.set(0)
	inChain.set(conds / 2)
	seen := newCondSet(conds)
	cand := make([]int, 0, conds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		const last = 0
		cand = cand[:0]
		seen.copyFrom(inChain)
		for g := 0; g < set.Genes(); g++ {
			for _, c := range set.Model(g).Successors(last) {
				if !seen.has(c) {
					seen.set(c)
					cand = append(cand, c)
				}
			}
		}
		seen.zero()
		kernelSink += len(cand)
	}
}

// BenchmarkKernelEquation7 measures the flat-value coherence scoring: one
// Equation 7 quotient per gene against a fixed baseline chain, including the
// non-finite guard of the real member loop.
func BenchmarkKernelEquation7(b *testing.B) {
	m, set := kernelBenchSetup(b, 500, 30)
	c0, c1 := 0, 1
	last, ci := 1, m.Cols()-1
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		for g := 0; g < set.Genes(); g++ {
			mod := set.Model(g)
			h := (mod.ValueOf(ci) - mod.ValueOf(last)) / (mod.ValueOf(c1) - mod.ValueOf(c0))
			if math.IsInf(h, 0) || math.IsNaN(h) {
				continue
			}
			sum += h
		}
	}
	kernelSinkF = sum
}

// BenchmarkKernelCondSetAppendClear measures the word-at-a-time complement
// walk the NaiveCandidates path uses to enumerate off-chain conditions.
func BenchmarkKernelCondSetAppendClear(b *testing.B) {
	const conds = 200
	s := newCondSet(conds)
	for c := 0; c < conds; c += 3 {
		s.set(c)
	}
	dst := make([]int, 0, conds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = s.appendClear(dst[:0], conds)
		kernelSink += len(dst)
	}
}

// BenchmarkKernelLevel2Candidates measures the bit-sliced candidate
// evaluation of one level-2 node on a cold-mine-shaped matrix (600×30,
// MinG 6, MinC 6, ε 0.01): for every off-chain condition, the survivor ANDs
// with the condition-pair tables, Equation 7 on the survivors, and the
// bucket filter with its exact confirmation — without descending. The node
// is the level-2 chain with the most members.
func BenchmarkKernelLevel2Candidates(b *testing.B) {
	cfg := synthetic.DefaultConfig()
	cfg.Genes, cfg.Seed = 600, 1
	m, _, err := synthetic.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := Params{MinG: 6, MinC: 6, Gamma: 0.1, Epsilon: 0.01}
	models, err := BuildModels(m, p, nil)
	if err != nil {
		b.Fatal(err)
	}
	mn := newMiner(m, p, models, newBudget(p, nil))
	sc := &mn.sc
	sc.ensure(m.Rows(), m.Cols())
	level2 := func(c0, c1 int) int {
		sc.chain = append(sc.chain[:0], c0)
		sc.ps[0].copyRow(mn.tab.UpLen(c0, p.MinC))
		sc.ns[0].copyRow(mn.tab.DownLen(c0, p.MinC))
		n := mn.survivors(1, c1)
		sc.chain = append(sc.chain, c1)
		return n
	}
	best, c0, c1 := -1, 0, 0
	for a := 0; a < m.Cols(); a++ {
		for z := 0; z < m.Cols(); z++ {
			if n := level2(a, z); a != z && n > best {
				best, c0, c1 = n, a, z
			}
		}
	}
	level2(c0, c1)
	f := sc.frame(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ci := 0; ci < m.Cols(); ci++ {
			if ci == c0 || ci == c1 || mn.survivors(2, ci) == 0 {
				continue
			}
			if mn.mayCohere(mn.scoreSurvivors(ci, sc.ps[2], sc.ns[2], f)) {
				kernelSink++
			}
		}
	}
}

// BenchmarkKernelMineSmall ties the primitives together: a complete mining
// run on a small synthetic workload, cheap enough for the CI smoke pass.
func BenchmarkKernelMineSmall(b *testing.B) {
	cfg := synthetic.Config{Genes: 120, Conds: 14, Clusters: 4, Seed: 7}
	m, _, err := synthetic.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := Params{MinG: 4, MinC: 4, Gamma: 0.08, Epsilon: 0.05}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Mine(m, p)
		if err != nil {
			b.Fatal(err)
		}
		kernelSink += len(res.Clusters)
	}
}
