package rwave

// Packed columnar storage for whole model sets.
//
// A mining run touches every gene's model arrays millions of times; built
// one by one, those arrays are ~nGenes scattered heap objects and the hot
// loops spend their time pointer-chasing between them. PackModels rewrites a
// freshly built model set into two contiguous gene-major backing
// allocations — every gene's order|rank|succStart|predEnd|upLen|downLen
// stripes adjacent in one []int, its values|valueByCond stripes adjacent in
// one []float64 — and rebinds each Model's slice fields to full-capacity
// views of its stripes. The models keep their identity (same *Model
// pointers, same method behaviour, bit-identical float64 values), so a slab
// is purely a memory layout of the same model set: core.ModelKey, the
// service and dist model caches, and every Mine*WithModels contract are
// unaffected.

// ModelSlab owns the packed backing arrays of one model set. The zero value
// is an empty slab. A slab is immutable after PackModels returns and safe to
// share between any number of concurrent readers.
type ModelSlab struct {
	genes, conds int
	ints         []int     // gene-major: slabIntStripes stripes of conds ints per gene
	floats       []float64 // gene-major: slabFloatStripes stripes of conds float64s per gene
}

// Genes returns the number of models packed into the slab.
func (s ModelSlab) Genes() int { return s.genes }

// Conditions returns the per-gene condition count.
func (s ModelSlab) Conditions() int { return s.conds }

// Words returns the backing sizes: total ints and total float64s.
func (s ModelSlab) Words() (ints, floats int) { return len(s.ints), len(s.floats) }

// Contains reports whether mod's arrays are views into this slab (i.e. mod's
// order stripe starts at some gene's stripe base).
func (s ModelSlab) Contains(mod *Model) bool {
	if s.conds == 0 || len(mod.order) != s.conds {
		return false
	}
	stride := slabIntStripes * s.conds
	for g := 0; g < s.genes; g++ {
		if &mod.order[0] == &s.ints[g*stride] {
			return true
		}
	}
	return false
}

// PackModels copies every model's per-gene arrays into one contiguous int
// backing and one contiguous float64 backing (gene-major SoA stripes, in the
// bindStripes order) and rebinds the models' slice fields to views of those
// stripes. The models slice and its *Model pointers are unchanged; only the
// storage behind them moves. All models must come from the same matrix (same
// condition count) and must not be shared with a concurrent reader during
// the pack — in practice PackModels runs once, at the end of a build, before
// the set escapes.
//
// The same pass builds the set's condition-pair tables (see Tables) and
// points every model at them, so whoever holds the set holds its tables.
//
// The pack performs exactly three heap allocations regardless of gene count
// (the int backing, the float backing and the table backing); the per-model
// mini-slabs it replaces become garbage. Float64 values are copied bit for
// bit.
func PackModels(models []*Model) ModelSlab {
	if len(models) == 0 {
		return ModelSlab{}
	}
	n := models[0].Conditions()
	s := ModelSlab{
		genes:  len(models),
		conds:  n,
		ints:   make([]int, slabIntStripes*n*len(models)),
		floats: make([]float64, slabFloatStripes*n*len(models)),
	}
	for g, mod := range models {
		ints := s.ints[slabIntStripes*n*g : slabIntStripes*n*(g+1)]
		floats := s.floats[slabFloatStripes*n*g : slabFloatStripes*n*(g+1)]
		copy(ints[0*n:1*n], mod.order)
		copy(ints[1*n:2*n], mod.rank)
		copy(ints[2*n:3*n], mod.succStart)
		copy(ints[3*n:4*n], mod.predEnd)
		copy(ints[4*n:5*n], mod.upLen)
		copy(ints[5*n:6*n], mod.downLen)
		copy(floats[0*n:1*n], mod.values)
		copy(floats[1*n:2*n], mod.valueByCond)
		mod.bindStripes(ints, floats, n)
	}
	maxLen := longestChain(models)
	tables := make([]uint64, tableSize(len(models), n, maxLen))
	writeTables(tables, models, n, maxLen)
	for g, mod := range models {
		mod.tables, mod.slot = tables, g
		mod.views.Store(nil)
	}
	return s
}

// Kernel is the flat read-only view of one model used by the miner's inner
// loops: every Lemma 3.1 and Equation 7 lookup is a direct slice load, with
// no method dispatch and no *Model dereference. The slices alias the model's
// (usually slab-backed) storage — treat them as immutable; writing through a
// Kernel corrupts the model.
type Kernel struct {
	Order       []int     // rank -> condition index
	Rank        []int     // condition index -> rank
	SuccStart   []int     // rank -> smallest successor rank (== len(Order) when none)
	PredEnd     []int     // rank -> largest predecessor rank (== -1 when none)
	UpLen       []int     // rank -> longest upward regulation chain from this rank
	DownLen     []int     // rank -> longest downward regulation chain from this rank
	ValueByCond []float64 // condition index -> expression value

	tables []uint64 // the set's condition-pair table backing (see TablesOf)
	slot   int      // this view's bit in those tables
}

// Kernel returns the flat view of mod.
func (mod *Model) Kernel() Kernel {
	return Kernel{
		Order:       mod.order,
		Rank:        mod.rank,
		SuccStart:   mod.succStart,
		PredEnd:     mod.predEnd,
		UpLen:       mod.upLen,
		DownLen:     mod.downLen,
		ValueByCond: mod.valueByCond,
		tables:      mod.tables,
		slot:        mod.slot,
	}
}

// Kernels returns one flat view per model, in one contiguous slice. The
// result is immutable and shared: callers read it, concurrently if they
// like, and never write to it. Every view carries the set's condition-pair
// tables (TablesOf). A set PackModels produced keeps its own, and its views
// are built once — the first call stores them with the set, and every later
// call over the same set (each lease of a distributed run, each job sharing
// a cached model set) returns that slice. A set that was never packed (or
// was reassembled from several packs) gets fresh views and tables built for
// them on every call, while its models stay untouched.
func Kernels(models []*Model) []Kernel {
	packed := packedSet(models)
	if packed {
		if v := models[0].views.Load(); v != nil {
			return *v
		}
	}
	out := make([]Kernel, len(models))
	for g, mod := range models {
		out[g] = mod.Kernel()
	}
	if packed {
		if !models[0].views.CompareAndSwap(nil, &out) {
			return *models[0].views.Load()
		}
		return out
	}
	if len(out) > 0 {
		tables := buildTables(models)
		for g := range out {
			out[g].tables, out[g].slot = tables, g
		}
	}
	return out
}

// packedSet reports whether models is exactly the sequence of models one
// PackModels call packed: one table backing sized for them, each model in
// its own slot. It is packIn's test, read off the models instead of views.
func packedSet(models []*Model) bool {
	if len(models) == 0 {
		return false
	}
	first := models[0].tables
	if len(first) < tableHeader || first[0] != uint64(len(models)) || first[1] != uint64(len(models[0].rank)) {
		return false
	}
	for g, mod := range models {
		if mod.slot != g || len(mod.tables) != len(first) || &mod.tables[0] != &first[0] {
			return false
		}
	}
	return true
}
