package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"regcluster/internal/faultinject"
	"regcluster/internal/matrix"
	"regcluster/internal/rwave"
)

// grownMatrix draws a random parent and appends k random conditions to it,
// returning both the parent and the grown child.
func grownMatrix(t *testing.T, rng *rand.Rand, rows, oldC, k int) (parent, child *matrix.Matrix) {
	t.Helper()
	parent = diffRandomMatrix(rng, rows, oldC)
	delta := diffRandomMatrix(rng, rows, k)
	for j := 0; j < k; j++ {
		delta.SetColName(j, fmt.Sprintf("new%d", j))
	}
	child, err := matrix.AppendConditions(parent, delta)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	return parent, child
}

// incrSchemes returns one Params per threshold scheme — relative, absolute
// and custom per-gene — all over the small-integer value grid the random
// matrices use.
func incrSchemes(rng *rand.Rand, rows int) []Params {
	custom := make([]float64, rows)
	for g := range custom {
		custom[g] = float64(rng.Intn(3))
	}
	return []Params{
		{MinG: 2, MinC: 2, Gamma: 0.2, Epsilon: 0.5},
		{MinG: 2, MinC: 2, Gamma: 1, AbsoluteGamma: true, Epsilon: 0.5},
		// A threshold near the top of the value grid keeps regulation sparse,
		// so appends leave most subtrees clean — the splice-heavy regime.
		{MinG: 2, MinC: 2, Gamma: 5, AbsoluteGamma: true, Epsilon: 0.5},
		{MinG: 2, MinC: 2, CustomGammas: custom, Epsilon: 0.25},
	}
}

// sameModels compares two model sets gene by gene, field for field — the
// threshold by its bit pattern — and their pointer lists.
func sameModels(t *testing.T, label string, got, want *rwave.Set) {
	t.Helper()
	if got.Genes() != want.Genes() || got.Conditions() != want.Conditions() {
		t.Fatalf("%s: set is %d×%d, want %d×%d", label, got.Genes(), got.Conditions(), want.Genes(), want.Conditions())
	}
	for g := 0; g < got.Genes(); g++ {
		gm, wm := got.Model(g), want.Model(g)
		if math.Float64bits(gm.Gamma()) != math.Float64bits(wm.Gamma()) {
			t.Fatalf("%s: gene %d γ %v, want %v", label, g, gm.Gamma(), wm.Gamma())
		}
		if !reflect.DeepEqual(*gm, *wm) {
			t.Fatalf("%s: gene %d model mismatch\ngot:  %v\nwant: %v", label, g, gm, wm)
		}
		if !reflect.DeepEqual(gm.Pointers(), wm.Pointers()) {
			t.Fatalf("%s: gene %d pointer set mismatch", label, g)
		}
	}
}

// sameTables compares the condition-pair tables of two model sets row by
// row: the Up bitset of every ordered condition pair and the chain-length
// rows of every condition and length.
func sameTables(t *testing.T, label string, got, want *rwave.Set, conds int) {
	t.Helper()
	gt, wt := got.Tables(), want.Tables()
	if gt.Genes() != wt.Genes() || gt.MaxLen() != wt.MaxLen() {
		t.Fatalf("%s: tables cover %d genes / MaxLen %d, want %d / %d", label,
			gt.Genes(), gt.MaxLen(), wt.Genes(), wt.MaxLen())
	}
	for a := 0; a < conds; a++ {
		for b := 0; b < conds; b++ {
			if !reflect.DeepEqual(gt.Up(a, b), wt.Up(a, b)) {
				t.Fatalf("%s: Up(%d,%d) differs", label, a, b)
			}
		}
		for l := 1; l <= wt.MaxLen(); l++ {
			if !reflect.DeepEqual(gt.UpLen(a, l), wt.UpLen(a, l)) || !reflect.DeepEqual(gt.DownLen(a, l), wt.DownLen(a, l)) {
				t.Fatalf("%s: length rows (%d,%d) differ", label, a, l)
			}
		}
	}
}

// TestDifferentialRepairVsBuildModels: across all three threshold schemes and
// random append deltas, RepairModels must produce a model set identical in
// every field to a cold BuildModels of the grown matrix, condition-pair
// tables included. Runs under -race in
// CI alongside the other differential suites.
func TestDifferentialRepairVsBuildModels(t *testing.T) {
	trials := 30
	if testing.Short() {
		trials = 8
	}
	rng := rand.New(rand.NewSource(20260807))
	fastTotal := 0
	for i := 0; i < trials; i++ {
		rows := 2 + rng.Intn(8)
		parent, child := grownMatrix(t, rng, rows, 2+rng.Intn(6), 1+rng.Intn(4))
		for pi, p := range incrSchemes(rng, rows) {
			label := fmt.Sprintf("trial %d scheme %d", i, pi)
			parentModels, err := BuildModels(parent, p, nil)
			if err != nil {
				t.Fatalf("%s: parent build: %v", label, err)
			}
			repaired, nFast, err := RepairModels(child, p, parentModels, nil)
			if err != nil {
				t.Fatalf("%s: repair: %v", label, err)
			}
			cold, err := BuildModels(child, p, nil)
			if err != nil {
				t.Fatalf("%s: cold build: %v", label, err)
			}
			sameModels(t, label, repaired, cold)
			sameTables(t, label, repaired, cold, child.Cols())
			// Absolute and custom thresholds never drift under an append, so
			// every gene must take the fast path there.
			if pi > 0 && nFast != rows {
				t.Fatalf("%s: %d/%d genes repaired under a drift-free scheme", label, nFast, rows)
			}
			fastTotal += nFast
		}
	}
	if fastTotal == 0 {
		t.Fatal("no gene ever took the repair fast path — the differential is vacuous")
	}
}

// mineOnParent runs MineWith on child with parent as Options.Parent,
// streaming to visit.
func mineOnParent(ctx context.Context, child, parent *matrix.Matrix, p Params, workers int, visit Visitor,
	childModels *rwave.Set, parentRes *Result) (*Result, error) {
	return MineWith(ctx, child, p, Options{Workers: workers, Visit: visit, Models: childModels,
		Parent: &Parent{Matrix: parent, Result: parentRes}})
}

// TestDifferentialIncrementalVsCold is the tentpole differential: on random
// append deltas across all threshold schemes, a MineWith seeded with the
// parent run must stream clusters and return Stats byte-identical to a cold
// parallel mine of the grown matrix, at 1, 2 and 8 workers, and record the
// same per-subtree Stats. Runs under -race in CI.
func TestDifferentialIncrementalVsCold(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 6
	}
	rng := rand.New(rand.NewSource(42))
	sawIncremental, sawReused, sawFallback := 0, 0, 0
	for i := 0; i < trials; i++ {
		rows := 2 + rng.Intn(8)
		parent, child := grownMatrix(t, rng, rows, 3+rng.Intn(5), 1+rng.Intn(3))
		for pi, p := range incrSchemes(rng, rows) {
			label := fmt.Sprintf("trial %d scheme %d", i, pi)
			parentModels, err := BuildModels(parent, p, nil)
			if err != nil {
				t.Fatalf("%s: parent models: %v", label, err)
			}
			parentRes, err := MineWith(context.Background(), parent, p, Options{Workers: 4, Models: parentModels})
			if err != nil {
				t.Fatalf("%s: parent mine: %v", label, err)
			}
			childModels, _, err := RepairModels(child, p, parentModels, nil)
			if err != nil {
				t.Fatalf("%s: repair: %v", label, err)
			}
			cold, err := MineWith(context.Background(), child, p, Options{Workers: 4, Models: childModels})
			if err != nil {
				t.Fatalf("%s: cold mine: %v", label, err)
			}
			for _, workers := range []int{1, 2, 8} {
				var got []*Bicluster
				res, err := mineOnParent(context.Background(), child, parent, p, workers,
					func(b *Bicluster) bool { got = append(got, b); return true },
					childModels, parentRes)
				if err != nil {
					t.Fatalf("%s workers %d: %v", label, workers, err)
				}
				if !sameClustersExact(cold.Clusters, got) {
					t.Fatalf("%s workers %d: clusters diverge from cold mine\ncold: %v\ngot:  %v",
						label, workers, cold.Clusters, got)
				}
				if res.Stats != cold.Stats {
					t.Fatalf("%s workers %d: stats diverge\ncold: %+v\ngot:  %+v",
						label, workers, cold.Stats, res.Stats)
				}
				if !reflect.DeepEqual(res.Subtrees, cold.Subtrees) {
					t.Fatalf("%s workers %d: per-subtree stats diverge\ncold: %+v\ngot:  %+v",
						label, workers, cold.Subtrees, res.Subtrees)
				}
				info := res.Incremental
				if info.Incremental {
					sawIncremental++
					sawReused += info.SubtreesReused
					if info.SubtreesReused+info.SubtreesMined != child.Cols() {
						t.Fatalf("%s workers %d: reused %d + mined %d != %d conditions",
							label, workers, info.SubtreesReused, info.SubtreesMined, child.Cols())
					}
				} else {
					sawFallback++
				}
			}
		}
	}
	if sawIncremental == 0 || sawReused == 0 {
		t.Fatalf("fast path never reused a subtree (incremental runs %d, reused %d) — the differential is vacuous",
			sawIncremental, sawReused)
	}
	t.Logf("incremental runs %d (reused %d subtrees), fallbacks %d", sawIncremental, sawReused, sawFallback)
}

// TestResumeWithParent: a run seeded with a parent and resumed from any
// snapshot of the cold child run delivers exactly the remaining clusters,
// with the cold run's Stats and per-subtree Stats. A spliced partial that
// lands on the resumed head skips the clusters delivered before the
// snapshot, as every producer of a put-back root does.
func TestResumeWithParent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	splicedResumes := 0
	for i := 0; i < 6; i++ {
		rows := 2 + rng.Intn(8)
		parent, child := grownMatrix(t, rng, rows, 3+rng.Intn(5), 1+rng.Intn(3))
		p := incrSchemes(rng, rows)[2]
		parentRes, err := Mine(parent, p)
		if err != nil {
			t.Fatal(err)
		}
		var snaps []Checkpoint
		cold, err := MineWith(context.Background(), child, p, Options{Workers: 2,
			Checkpoint: CheckpointConfig{EveryClusters: 1, OnCheckpoint: func(ck Checkpoint) { snaps = append(snaps, ck) }}})
		if err != nil {
			t.Fatal(err)
		}
		for k, ck := range snaps {
			var got []*Bicluster
			res, err := MineWith(context.Background(), child, p, Options{Workers: 2, Resume: &ck,
				Visit:  func(b *Bicluster) bool { got = append(got, b); return true },
				Parent: &Parent{Matrix: parent, Result: parentRes}})
			if err != nil {
				t.Fatalf("trial %d snapshot %d: %v", i, k, err)
			}
			if !sameClustersExact(cold.Clusters[ck.Delivered():], got) || res.Stats != cold.Stats ||
				!reflect.DeepEqual(res.Subtrees, cold.Subtrees) {
				t.Fatalf("trial %d snapshot %d (%d+%d): resumed %v / %+v / %+v, want %v / %+v / %+v", i, k,
					ck.NextCond, ck.SkipClusters, got, res.Stats, res.Subtrees, cold.Clusters[ck.Delivered():], cold.Stats, cold.Subtrees)
			}
			if res.Incremental.Incremental && ck.SkipClusters > 0 {
				splicedResumes++
			}
		}
	}
	if splicedResumes == 0 {
		t.Fatal("no spliced run resumed inside a subtree; test is vacuous")
	}
}

// TestMineIncrementalFallbacks: every ineligible parent must make MineWith
// mine cold — reporting a reason — and still produce output identical to a
// plain mine under the same Params.
func TestMineIncrementalFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows := 6
	parent, child := grownMatrix(t, rng, rows, 5, 2)
	p := Params{MinG: 2, MinC: 2, Gamma: 1, AbsoluteGamma: true, Epsilon: 0.5}
	parentModels, err := BuildModels(parent, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	parentRes, err := MineWith(context.Background(), parent, p, Options{Workers: 1, Models: parentModels})
	if err != nil {
		t.Fatal(err)
	}
	childModels, _, err := RepairModels(child, p, parentModels, nil)
	if err != nil {
		t.Fatal(err)
	}

	geneDelta := diffRandomMatrix(rng, 1, child.Cols())
	geneDelta.SetRowName(0, "extra")
	for j := 0; j < child.Cols(); j++ {
		geneDelta.SetColName(j, child.ColName(j))
	}
	grownGenes, err := matrix.AppendGenes(child, geneDelta)
	if err != nil {
		t.Fatal(err)
	}
	grownGenesModels, _, err := RepairModels(grownGenes, p, parentModels, nil)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := child.Clone()
	rewritten.Set(0, 0, rewritten.At(0, 0)+1)
	rewrittenModels, _, err := RepairModels(rewritten, p, parentModels, nil)
	if err != nil {
		t.Fatal(err)
	}
	truncatedRes := &Result{Clusters: parentRes.Clusters, Stats: parentRes.Stats, Subtrees: parentRes.Subtrees}
	truncatedRes.Stats.Truncated = true
	unrecordedRes := &Result{Clusters: parentRes.Clusters, Stats: parentRes.Stats}
	capped := p
	capped.MaxClusters = 2
	naive := p
	naive.NaiveCandidates = true

	cases := []struct {
		name      string
		m, parent *matrix.Matrix
		p         Params
		models    *rwave.Set
		parentRes *Result
		reason    string
	}{
		{"no parent", child, nil, p, childModels, nil, "no parent result"},
		{"gene axis changed", grownGenes, parent, p, grownGenesModels, parentRes, "gene axis changed"},
		{"no appended conditions", parent, parent, p, parentModels, parentRes, "no appended conditions"},
		{"caps set", child, parent, capped, childModels, parentRes, "budget caps require sequential accounting"},
		{"naive candidates", child, parent, naive, childModels, parentRes, "naive-candidates ablation"},
		{"parent truncated", child, parent, p, childModels, truncatedRes, "parent result truncated"},
		{"values rewritten", rewritten, parent, p, rewrittenModels, parentRes, "parent values rewritten"},
		{"no per-subtree stats", child, parent, p, childModels, unrecordedRes, "parent result has no per-subtree stats"},
	}
	for _, tc := range cases {
		cold, err := MineWith(context.Background(), tc.m, tc.p, Options{Workers: 1, Models: tc.models})
		if err != nil {
			t.Fatalf("%s: cold mine: %v", tc.name, err)
		}
		var got []*Bicluster
		res, err := mineOnParent(context.Background(), tc.m, tc.parent, tc.p, 1,
			func(b *Bicluster) bool { got = append(got, b); return true },
			tc.models, tc.parentRes)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if info := res.Incremental; info == nil || info.Incremental || info.Fallback != tc.reason {
			t.Errorf("%s: info %+v, want fallback %q", tc.name, info, tc.reason)
		}
		if !sameClustersExact(cold.Clusters, got) || res.Stats != cold.Stats {
			t.Errorf("%s: fallback output diverges from cold mine", tc.name)
		}
	}
	res, err := MineWith(context.Background(), child, p, Options{Models: childModels})
	if err != nil || res.Incremental != nil {
		t.Fatalf("a run without a parent reports incremental info %+v (err %v)", res.Incremental, err)
	}
}

// TestMineIncrementalVisitorStop: a spliced run stopped by its visitor after
// k clusters delivers the cold prefix of k and returns exactly the Stats of
// a sequential MineWith stopped at the same cluster, for every k, spliced
// subtrees and mined ones alike.
func TestMineIncrementalVisitorStop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := Params{MinG: 2, MinC: 2, Gamma: 4, AbsoluteGamma: true, Epsilon: 1}
	stops, splicedStops := 0, 0
	for trial := 0; trial < 40; trial++ {
		parent, child := grownMatrix(t, rng, 4+rng.Intn(6), 5+rng.Intn(3), 1)
		parentModels, err := BuildModels(parent, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		parentRes, err := MineWith(context.Background(), parent, p, Options{Workers: 2, Models: parentModels})
		if err != nil {
			t.Fatal(err)
		}
		childModels, _, err := RepairModels(child, p, parentModels, nil)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := MineWith(context.Background(), child, p, Options{Workers: 1, Models: childModels})
		if err != nil {
			t.Fatal(err)
		}
		dirty := dirtyConditions(childModels, parent.Cols(), child.Cols())
		for k := 1; k <= len(cold.Clusters); k++ {
			stopAt := func(got *[]*Bicluster) Visitor {
				return func(b *Bicluster) bool { *got = append(*got, b); return len(*got) < k }
			}
			var seqGot []*Bicluster
			seq, err := MineWith(context.Background(), child, p, Options{Workers: 1, Visit: stopAt(&seqGot), Models: childModels})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				var got []*Bicluster
				res, err := mineOnParent(context.Background(), child, parent, p, workers, stopAt(&got), childModels, parentRes)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Incremental.Incremental {
					break
				}
				if !sameClustersExact(cold.Clusters[:k], got) {
					t.Fatalf("trial %d stop at %d, workers %d: delivered %d clusters, want the cold prefix", trial, k, workers, len(got))
				}
				if res.Stats != seq.Stats || !res.Stats.Truncated || res.Subtrees != nil {
					t.Fatalf("trial %d stop at %d, workers %d: stats %+v (subtrees %v), want the sequential stop's %+v",
						trial, k, workers, res.Stats, res.Subtrees, seq.Stats)
				}
				stops++
				if !dirty[cold.Clusters[k-1].Chain[0]] {
					splicedStops++
				}
			}
		}
	}
	if splicedStops == 0 {
		t.Fatalf("no stop landed in a spliced subtree (%d stops) — the test is vacuous", stops)
	}
	t.Logf("%d stops, %d inside spliced subtrees", stops, splicedStops)
}

// TestMineIncrementalCancelled: a pre-cancelled context must fail a spliced
// run with the context's error, even though its spliced subtrees need no
// mining.
func TestMineIncrementalCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := Params{MinG: 2, MinC: 2, Gamma: 1, AbsoluteGamma: true, Epsilon: 0.5}
	parent, child := grownMatrix(t, rng, 6, 5, 2)
	parentModels, err := BuildModels(parent, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	parentRes, err := MineWith(context.Background(), parent, p, Options{Workers: 2, Models: parentModels})
	if err != nil {
		t.Fatal(err)
	}
	childModels, _, err := RepairModels(child, p, parentModels, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = mineOnParent(ctx, child, parent, p, 2, func(*Bicluster) bool { return true }, childModels, parentRes)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err %v, want context.Canceled", err)
	}
}

// TestMineIncrementalWorkerPanicContained: a panic on a worker mining a
// dirty subtree of a spliced run surfaces as a *PanicError instead of
// crossing to the caller's goroutine.
func TestMineIncrementalWorkerPanicContained(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	rng := rand.New(rand.NewSource(13))
	p := Params{MinG: 2, MinC: 2, Gamma: 1, AbsoluteGamma: true, Epsilon: 0.5}
	parent, child := grownMatrix(t, rng, 6, 5, 2)
	parentModels, err := BuildModels(parent, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	parentRes, err := MineWith(context.Background(), parent, p, Options{Workers: 2, Models: parentModels})
	if err != nil {
		t.Fatal(err)
	}
	childModels, _, err := RepairModels(child, p, parentModels, nil)
	if err != nil {
		t.Fatal(err)
	}
	mine := func() (*Result, error) {
		return mineOnParent(context.Background(), child, parent, p, 2, func(*Bicluster) bool { return true }, childModels, parentRes)
	}
	if res, err := mine(); err != nil || !res.Incremental.Incremental {
		t.Fatalf("fixture must take the fast path: res %+v, err %v", res, err)
	}
	disarm := faultinject.Arm("core.mine.subtree", faultinject.Spec{Panic: "boom in a dirty subtree", Times: 1})
	_, err = mine()
	disarm()
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if !strings.Contains(perr.Error(), "boom in a dirty subtree") || len(perr.Stack) == 0 {
		t.Fatalf("panic error lost its value or stack: %v", perr)
	}
}
