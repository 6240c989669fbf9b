package core

import (
	"context"
	"math/rand"
	"testing"

	"regcluster/internal/matrix"
)

// FuzzMine throws arbitrary small matrices and parameters at the miner: it
// must never panic, every output must satisfy Definition 3.2, and the
// optimized hot path must reproduce the frozen pre-optimization reference
// (reference_test.go) exactly — clusters, enumeration order, and Stats.
func FuzzMine(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, 3, uint8(10), uint8(50))
	f.Add([]byte{0, 0, 0, 0}, 2, uint8(0), uint8(0))
	f.Add([]byte{255, 0, 255, 0, 128, 7}, 2, uint8(99), uint8(255))
	f.Fuzz(func(t *testing.T, cells []byte, cols int, gammaB, epsB uint8) {
		if cols < 2 || cols > 6 || len(cells) < 2*cols {
			return
		}
		rows := len(cells) / cols
		if rows > 8 {
			rows = 8
		}
		m := matrix.New(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, float64(cells[i*cols+j]))
			}
		}
		p := Params{
			MinG:    2,
			MinC:    2,
			Gamma:   float64(gammaB%101) / 100,
			Epsilon: float64(epsB) / 16,
		}
		res, err := Mine(m, p)
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		for _, b := range res.Clusters {
			if err := CheckBicluster(m, p, b); err != nil {
				t.Fatalf("invalid output %v: %v\nmatrix %v params %+v", b, err, m, p)
			}
		}
		// The zero-allocation path must be indistinguishable from the seed
		// semantics.
		ref, err := referenceMine(m, p)
		if err != nil {
			t.Fatalf("reference error: %v", err)
		}
		if !sameClustersExact(ref.Clusters, res.Clusters) {
			t.Fatalf("optimized diverged from reference: %d vs %d clusters", len(res.Clusters), len(ref.Clusters))
		}
		if ref.Stats != res.Stats {
			t.Fatalf("Stats diverged from reference:\nref %+v\ngot %+v", ref.Stats, res.Stats)
		}
		// Parallel must agree.
		par, err := MineWith(context.Background(), m, p, Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !sameClusterKeys(res.Clusters, par.Clusters) {
			t.Fatalf("parallel diverged: %d vs %d clusters", len(par.Clusters), len(res.Clusters))
		}
	})
}

// FuzzMineWide is FuzzMine past the first 64-gene word: it derives a
// 65–200-gene matrix and MinG, MinC, γ and ε from the input, so node member
// sets span two to four bitset words. Cells come from the input bytes first
// and from a generator seeded by them after that; a small value grid keeps
// ties and shared regulation steps common. Clusters, their order and Stats
// must match the reference, and MineWith at 3 workers.
func FuzzMineWide(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0), uint8(3), uint8(4), uint8(1), uint8(8), uint8(10))
	f.Add([]byte{9, 0, 9, 0}, uint8(135), uint8(5), uint8(9), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{200, 17, 3}, uint8(63), uint8(2), uint8(1), uint8(3), uint8(40), uint8(30))
	f.Fuzz(func(t *testing.T, cells []byte, rowsB, colsB, minGB, minCB, epsB, gammaB uint8) {
		rows, cols := 65+int(rowsB)%136, 3+int(colsB)%6
		levels := 2 + int(gammaB>>4)%8
		seed := int64(len(cells))
		for _, b := range cells {
			seed = seed*131 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed))
		m := matrix.New(rows, cols)
		for k := 0; k < rows*cols; k++ {
			v := rng.Intn(256)
			if k < len(cells) {
				v = int(cells[k])
			}
			m.Set(k/cols, k%cols, float64(v%levels))
		}
		p := Params{
			MinG:    2 + int(minGB)%12,
			MinC:    2 + int(minCB)%4,
			Gamma:   float64(gammaB%51) / 100,
			Epsilon: float64(epsB) / 32,
		}
		ref, err := referenceMine(m, p)
		if err != nil {
			t.Fatalf("reference error: %v", err)
		}
		res, err := Mine(m, p)
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if !sameClustersExact(ref.Clusters, res.Clusters) || ref.Stats != res.Stats {
			t.Fatalf("%dx%d %+v: optimized diverged from reference: %d vs %d clusters\nref %+v\ngot %+v",
				rows, cols, p, len(res.Clusters), len(ref.Clusters), ref.Stats, res.Stats)
		}
		par, err := MineWith(context.Background(), m, p, Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !sameClustersExact(ref.Clusters, par.Clusters) || ref.Stats != par.Stats {
			t.Fatalf("%dx%d %+v: 3 workers diverged: %d vs %d clusters\nref %+v\ngot %+v",
				rows, cols, p, len(par.Clusters), len(ref.Clusters), ref.Stats, par.Stats)
		}
	})
}
