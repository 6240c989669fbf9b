package rwave

import (
	"fmt"
	"math/rand"
	"testing"

	"regcluster/internal/synthetic"
)

func hasBit(s []uint64, g int) bool { return s[g>>6]&(1<<(uint(g)&63)) != 0 }

// checkTables verifies every table bit of kern against the frontier arrays
// the miner's sparse loop reads: Up(a, b) against SuccStart, Up(b, a)
// against PredEnd (down-membership), and the chain-length rows against
// UpLen/DownLen, including the all-genes row at l <= 1 and the empty row
// past MaxLen. Bits past the last gene must be zero.
func checkTables(t *testing.T, label string, kern []Kernel, tab Tables) {
	t.Helper()
	genes := len(kern)
	if tab.Genes() != genes || tab.Words() != (genes+63)/64 {
		t.Fatalf("%s: tables cover %d genes in %d words, want %d in %d",
			label, tab.Genes(), tab.Words(), genes, (genes+63)/64)
	}
	conds := len(kern[0].Rank)
	maxLen := 0
	for g := range kern {
		for r := range kern[g].UpLen {
			maxLen = max(maxLen, kern[g].UpLen[r], kern[g].DownLen[r])
		}
	}
	if tab.MaxLen() != maxLen {
		t.Fatalf("%s: MaxLen = %d, want %d", label, tab.MaxLen(), maxLen)
	}
	tail := func(row []uint64) bool {
		if genes%64 == 0 {
			return true
		}
		return row[len(row)-1]>>(uint(genes)&63) == 0
	}
	for a := 0; a < conds; a++ {
		for b := 0; b < conds; b++ {
			up := tab.Up(a, b)
			if !tail(up) {
				t.Fatalf("%s: Up(%d,%d) has bits past gene %d", label, a, b, genes)
			}
			for g := range kern {
				k := &kern[g]
				succ := k.Rank[b] >= k.SuccStart[k.Rank[a]]
				if hasBit(up, g) != succ {
					t.Fatalf("%s: Up(%d,%d) gene %d = %v, frontier says %v", label, a, b, g, hasBit(up, g), succ)
				}
				pred := k.Rank[a] <= k.PredEnd[k.Rank[b]] // a precedes b
				if hasBit(up, g) != pred {
					t.Fatalf("%s: Up(%d,%d) gene %d = %v, PredEnd says %v", label, a, b, g, hasBit(up, g), pred)
				}
			}
		}
		for l := -1; l <= maxLen+1; l++ {
			upRow, downRow := tab.UpLen(a, l), tab.DownLen(a, l)
			if l > maxLen {
				if upRow != nil || downRow != nil {
					t.Fatalf("%s: length rows past MaxLen are not empty", label)
				}
				continue
			}
			if !tail(upRow) || !tail(downRow) {
				t.Fatalf("%s: length row (%d,%d) has bits past gene %d", label, a, l, genes)
			}
			for g := range kern {
				k := &kern[g]
				r := k.Rank[a]
				if hasBit(upRow, g) != (k.UpLen[r] >= l) || hasBit(downRow, g) != (k.DownLen[r] >= l) {
					t.Fatalf("%s: length rows (%d,%d) gene %d: up %v/%d down %v/%d", label, a, l, g,
						hasBit(upRow, g), k.UpLen[r], hasBit(downRow, g), k.DownLen[r])
				}
			}
		}
	}
}

// TestTablesMatchFrontiers checks the condition-pair tables of packed and
// never-packed sets against the per-gene frontiers, at gene counts on both
// sides of every word boundary up to three words, under the relative,
// absolute and custom threshold schemes.
func TestTablesMatchFrontiers(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for _, genes := range []int{1, 63, 64, 65, 128, 130} {
		m := randomMatrix(rng, genes, 3+rng.Intn(10))
		schemes := map[string]func(g int) *Model{
			"relative": func(g int) *Model { return Build(m, g, 0.2) },
			"absolute": func(g int) *Model { return BuildAbsolute(m, g, 1.5) },
			"custom":   func(g int) *Model { return BuildAbsolute(m, g, float64(g%5)*0.5) },
		}
		for name, build := range schemes {
			packed := make([]*Model, genes)
			loose := make([]*Model, genes)
			for g := range packed {
				packed[g], loose[g] = build(g), build(g)
			}
			PackModels(packed)
			kern := Kernels(packed)
			label := name + "/packed"
			checkTables(t, label, kern, TablesOf(kern))
			if &kern[0].tables[0] != &packed[0].tables[0] {
				t.Fatalf("%s: Kernels rebuilt the tables of a packed set", label)
			}
			// Never packed: Kernels builds tables for the views.
			lk := Kernels(loose)
			checkTables(t, name+"/loose", lk, TablesOf(lk))
			if loose[0].tables != nil {
				t.Fatalf("%s: Kernels attached tables to caller models", name)
			}
		}
	}
}

// TestTablesWideConditions covers condition counts past one 64-bit word,
// where the build tiles both condition axes. The second gene block is only
// partly filled, so a tile reused from the first must not leak into it.
func TestTablesWideConditions(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	for _, conds := range []int{64, 65, 130} {
		m := randomMatrix(rng, 120, conds)
		models := make([]*Model, m.Rows())
		for g := range models {
			models[g] = BuildAbsolute(m, g, float64(g%3))
		}
		PackModels(models)
		kern := Kernels(models)
		checkTables(t, "wide", kern, TablesOf(kern))
	}
}

// TestTablesRejectForeignViews checks that views not taken from one pack in
// pack order — a reordered or mixed set — never read the pack's tables.
func TestTablesRejectForeignViews(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	m := randomMatrix(rng, 70, 9)
	a := make([]*Model, m.Rows())
	b := make([]*Model, m.Rows())
	for g := range a {
		a[g], b[g] = Build(m, g, 0.1), Build(m, g, 0.1)
	}
	PackModels(a)
	PackModels(b)
	views := func(models []*Model) []Kernel {
		kern := make([]Kernel, len(models))
		for g, mod := range models {
			kern[g] = mod.Kernel()
		}
		return kern
	}
	mixed := append(append([]*Model(nil), a[:35]...), b[35:]...)
	if packIn(views(mixed)) {
		t.Fatal("a set mixed from two packs claims one pack's tables")
	}
	swapped := append([]*Model(nil), a...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if packIn(views(swapped)) {
		t.Fatal("a reordered pack claims its tables")
	}
	kern := Kernels(mixed)
	checkTables(t, "mixed", kern, TablesOf(kern))
	if !packIn(views(a)) || !packIn(Kernels(a)) {
		t.Fatal("a pack does not recognise its own tables")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TablesOf read views that carry no tables of their own")
		}
	}()
	TablesOf(views(mixed))
}

func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	var m, orig [64]uint64
	for i := range m {
		m[i] = rng.Uint64()
	}
	orig = m
	transpose64(&m)
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			if (m[i]>>uint(j))&1 != (orig[j]>>uint(i))&1 {
				t.Fatalf("bit (%d,%d) not transposed", i, j)
			}
		}
	}
}

// BenchmarkTablesBuild measures the table build alone on Figure 7 matrices
// at the cold-mine shape (600×30) and at Figure 7's largest gene count
// (5000×30), γ = 0.1.
func BenchmarkTablesBuild(b *testing.B) {
	for _, genes := range []int{600, 5000} {
		cfg := synthetic.DefaultConfig()
		cfg.Genes, cfg.Seed = genes, 1
		m, _, err := synthetic.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		models := make([]*Model, genes)
		for g := range models {
			models[g] = Build(m, g, 0.1)
		}
		b.Run(fmt.Sprintf("g=%d", genes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildTables(models)
			}
		})
	}
}
