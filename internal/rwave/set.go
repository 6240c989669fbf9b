package rwave

import (
	"runtime"
	"sync"
	"sync/atomic"

	"regcluster/internal/matrix"
	"regcluster/internal/obs"
)

// Set is the RWave^γ index of one genes × conditions matrix: the model of
// every gene and the set's condition-pair tables (see Tables).
//
// A mining run touches every gene's model arrays millions of times, so the
// storage is columnar: one int backing holds every gene's
// order|rank|succStart|predEnd|upLen|downLen stripes, gene after gene, and
// one float64 backing its values|valueByCond stripes; each gene's Model
// views its own stripes. BuildSet sizes both backings before the build and
// fills every gene in place, so a set costs a fixed handful of allocations
// whatever its gene count, and Model(g) is gene g's model by construction.
//
// A set is immutable once built and safe to share between any number of
// concurrent readers: mining runs, worker pools, and the service and dist
// model caches keyed by core.ModelKey.
type Set struct {
	genes, conds int
	models       []Model // gene g's views of its stripes
	tables       Tables
}

// Genes returns the number of genes in the set.
func (s *Set) Genes() int { return s.genes }

// Conditions returns the number of conditions of every gene's model.
func (s *Set) Conditions() int { return s.conds }

// Model returns gene g's model. It views the set's storage and, like the
// set, is read-only.
func (s *Set) Model(g int) *Model { return &s.models[g] }

// Tables returns the set's condition-pair tables.
func (s *Set) Tables() *Tables { return &s.tables }

// buildParallelMinGenes is the gene count below which the fan-out overhead
// outweighs the per-gene O(n log n) build work and BuildSet stays
// sequential; buildChunk is the number of genes one worker claims per grab.
const (
	buildParallelMinGenes = 128
	buildChunk            = 32
)

// BuildSet builds the model set of m in place, gene g under the absolute
// threshold gamma(g), and then its condition-pair tables in one pass.
//
// parent, when non-nil, is the set of a matrix m grew from by appended
// conditions: a gene whose prefix values and threshold are unchanged splices
// the appended conditions into its parent model's order (see repair.go)
// instead of sorting its row. Either way every gene is byte-identical to a
// cold build; the second return counts the genes repaired.
//
// Genes are independent, so for large gene counts the build runs on up to
// GOMAXPROCS goroutines, each filling the disjoint gene chunks it claims;
// the result does not depend on the worker count. gamma must be safe for
// concurrent calls with distinct genes. A panic in a worker — a negative or
// NaN threshold — is re-raised on the calling goroutine.
//
// When sp is non-nil it collects genes/workers attributes and one
// "rwave.chunk" child span per claimed chunk (attrs lo/hi) — the per-phase
// breakdown of the index construction. A nil sp costs nothing.
func BuildSet(m *matrix.Matrix, gamma func(g int) float64, parent *Set, sp *obs.Span) (*Set, int) {
	return buildSet(m, gamma, parent, sp, runtime.GOMAXPROCS(0))
}

// buildSet is BuildSet on at most the given number of workers.
func buildSet(m *matrix.Matrix, gamma func(g int) float64, parent *Set, sp *obs.Span, workers int) (*Set, int) {
	genes, conds := m.Rows(), m.Cols()
	s := &Set{genes: genes, conds: conds, models: make([]Model, genes)}
	ints := make([]int, intStripes*conds*genes)
	floats := make([]float64, floatStripes*conds*genes)
	for g := range s.models {
		s.models[g].bindStripes(ints[intStripes*conds*g:], floats[floatStripes*conds*g:], conds)
	}
	fill := func(b *builder, lo, hi int) (repaired int) {
		csp := sp.Start("rwave.chunk")
		csp.SetInt("lo", int64(lo))
		csp.SetInt("hi", int64(hi))
		for g := lo; g < hi; g++ {
			var old *Model
			if parent != nil && g < parent.genes {
				old = &parent.models[g]
			}
			if b.fill(&s.models[g], m, g, gamma(g), old) {
				repaired++
			}
		}
		csp.End()
		return repaired
	}

	sp.SetInt("genes", int64(genes))
	if genes < buildParallelMinGenes || workers <= 1 {
		sp.SetInt("workers", 1)
		var b builder
		repaired := fill(&b, 0, genes)
		s.tables = writeTables(s.models, conds)
		return s, repaired
	}
	workers = min(workers, (genes+buildChunk-1)/buildChunk)
	sp.SetInt("workers", int64(workers))
	var (
		next, repaired atomic.Int64
		wg             sync.WaitGroup
		panicMu        sync.Mutex
		panicVal       any
	)
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if panicVal == nil {
					panicVal = r
				}
				panicMu.Unlock()
			}
		}()
		var b builder
		for {
			lo := int(next.Add(buildChunk)) - buildChunk
			if lo >= genes {
				return
			}
			repaired.Add(int64(fill(&b, lo, min(lo+buildChunk, genes))))
		}
	}
	// The calling goroutine is one of the workers.
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	s.tables = writeTables(s.models, conds)
	return s, int(repaired.Load())
}
