package rwave

import (
	"fmt"
	"math/rand"
	"testing"

	"regcluster/internal/synthetic"
)

func hasBit(s []uint64, g int) bool { return s[g>>6]&(1<<(uint(g)&63)) != 0 }

// checkTables verifies every table bit of set against the frontier arrays
// of its models: Up(a, b) against succStart, Up(b, a) against predEnd
// (down-membership), and the chain-length rows against upLen/downLen,
// including the all-genes row at l <= 1 and the empty row past MaxLen. Bits
// past the last gene must be zero.
func checkTables(t *testing.T, label string, set *Set) {
	t.Helper()
	tab := set.Tables()
	genes, conds := set.Genes(), set.Conditions()
	if tab.Genes() != genes || tab.Words() != (genes+63)/64 {
		t.Fatalf("%s: tables cover %d genes in %d words, want %d in %d",
			label, tab.Genes(), tab.Words(), genes, (genes+63)/64)
	}
	maxLen := 0
	for g := 0; g < genes; g++ {
		mod := set.Model(g)
		for r := range mod.upLen {
			maxLen = max(maxLen, mod.upLen[r], mod.downLen[r])
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
			for g := 0; g < genes; g++ {
				mod := set.Model(g)
				succ := mod.rank[b] >= mod.succStart[mod.rank[a]]
				if hasBit(up, g) != succ {
					t.Fatalf("%s: Up(%d,%d) gene %d = %v, frontier says %v", label, a, b, g, hasBit(up, g), succ)
				}
				pred := mod.rank[a] <= mod.predEnd[mod.rank[b]] // a precedes b
				if hasBit(up, g) != pred {
					t.Fatalf("%s: Up(%d,%d) gene %d = %v, predEnd says %v", label, a, b, g, hasBit(up, g), pred)
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
			for g := 0; g < genes; g++ {
				mod := set.Model(g)
				r := mod.rank[a]
				if hasBit(upRow, g) != (mod.upLen[r] >= l) || hasBit(downRow, g) != (mod.downLen[r] >= l) {
					t.Fatalf("%s: length rows (%d,%d) gene %d: up %v/%d down %v/%d", label, a, l, g,
						hasBit(upRow, g), mod.upLen[r], hasBit(downRow, g), mod.downLen[r])
				}
			}
		}
	}
}

// TestTablesMatchFrontiers checks the condition-pair tables of model sets
// against the per-gene frontiers, at gene counts on both sides of every word
// boundary up to three words, under the relative, absolute and custom
// threshold schemes.
func TestTablesMatchFrontiers(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for _, genes := range []int{1, 63, 64, 65, 128, 130} {
		m := randomMatrix(rng, genes, 3+rng.Intn(10))
		schemes := map[string]func(g int) float64{
			"relative": relative(m, 0.2),
			"absolute": absolute(1.5),
			"custom":   func(g int) float64 { return float64(g%5) * 0.5 },
		}
		for name, gamma := range schemes {
			checkTables(t, fmt.Sprintf("%s/%d genes", name, genes), setOf(m, gamma))
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
		checkTables(t, "wide", setOf(m, func(g int) float64 { return float64(g % 3) }))
	}
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
		set := setOf(m, relative(m, 0.1))
		b.Run(fmt.Sprintf("g=%d", genes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				writeTables(set.models, set.conds)
			}
		})
	}
}
