package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"regcluster/internal/matrix"
)

// TestWithModelsEquivalence: mining with a prebuilt model set must reproduce
// the plain Mine output exactly — clusters and Stats — sequentially and in
// parallel, for each γ-scheme.
func TestWithModelsEquivalence(t *testing.T) {
	m := randomMatrix(40, 10, 99)
	schemes := []struct {
		name string
		p    Params
	}{
		{"relative", Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.8}},
		{"absolute", Params{MinG: 3, MinC: 3, Gamma: 0.4, Epsilon: 0.8, AbsoluteGamma: true}},
		{"custom", Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.8,
			CustomGammas: ThresholdsMeanFraction(randomMatrix(40, 10, 99), 0.05)}},
	}
	for _, tc := range schemes {
		t.Run(tc.name, func(t *testing.T) {
			want, err := Mine(m, tc.p)
			if err != nil {
				t.Fatalf("Mine: %v", err)
			}
			models, err := BuildModels(m, tc.p, nil)
			if err != nil {
				t.Fatalf("BuildModels: %v", err)
			}
			// The shared build serves runs that vary every non-γ knob.
			variants := []Params{tc.p}
			eps := tc.p
			eps.Epsilon = 0.5
			variants = append(variants, eps)
			for _, p := range variants {
				seqWant, err := Mine(m, p)
				if err != nil {
					t.Fatalf("Mine variant: %v", err)
				}
				got, err := MineWith(context.Background(), m, p, Options{Workers: 1, Models: models})
				if err != nil {
					t.Fatalf("sequential MineWith with models: %v", err)
				}
				if !reflect.DeepEqual(got, seqWant) {
					t.Fatalf("sequential MineWith with models diverges from Mine (ε=%v)", p.Epsilon)
				}
				par, err := MineWith(context.Background(), m, p, Options{Workers: 4, Models: models})
				if err != nil {
					t.Fatalf("parallel MineWith with models: %v", err)
				}
				if !reflect.DeepEqual(par, seqWant) {
					t.Fatalf("parallel MineWith with models diverges from Mine (ε=%v)", p.Epsilon)
				}
			}
			_ = want
		})
	}
}

// TestWithModelsResumable: the resumable entry accepts a shared build and
// still matches the sequential run.
func TestWithModelsResumable(t *testing.T) {
	m := randomMatrix(30, 9, 5)
	p := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.8}
	want, err := Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	models, err := BuildModels(m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []*Bicluster
	stats, err := statsOf(MineWith(context.Background(), m, p, Options{Workers: 3, Visit: func(b *Bicluster) bool {
		got = append(got, b)
		return true
	}, Models: models}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Clusters) || !reflect.DeepEqual(stats, want.Stats) {
		t.Fatal("resumable WithModels run diverges from Mine")
	}
}

// TestWithModelsRejectsBadInputs: a prebuilt model set does not bypass input
// validation, and a set built for another shape — fewer genes, fewer or more
// conditions — is an error at one worker and at several, and on every other
// entry that takes a set.
func TestWithModelsRejectsBadInputs(t *testing.T) {
	m := randomMatrix(20, 8, 1)
	p := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.8}
	models, err := BuildModels(m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.Epsilon = math.NaN()
	if _, err := MineWith(context.Background(), m, bad, Options{Workers: 1, Models: models}); err == nil {
		t.Error("non-finite Epsilon accepted via WithModels")
	}
	if _, err := BuildModels(m, bad, nil); err == nil {
		t.Error("BuildModels accepted non-finite Epsilon")
	}

	wide, narrow := randomMatrix(40, 9, 2), randomMatrix(40, 6, 3)
	q := Params{MinG: 3, MinC: 3, Gamma: 0.1, Epsilon: 0.5}
	cases := []struct {
		name   string
		m      *matrix.Matrix
		p      Params
		models *matrix.Matrix // the matrix the set is built for
	}{
		{"10-gene set", m, p, randomMatrix(10, 8, 4)},
		{"40×9 set, 40×6 matrix", narrow, q, wide},
		{"40×6 set, 40×9 matrix", wide, q, narrow},
	}
	for _, tc := range cases {
		set, err := BuildModels(tc.models, tc.p, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			if _, err := MineWith(context.Background(), tc.m, tc.p, Options{Workers: workers, Models: set}); err == nil {
				t.Errorf("%s: accepted at %d workers", tc.name, workers)
			}
		}
		shared := Options{Workers: -1, Models: set, Share: func(*SubtreeQueue) func() {
			t.Errorf("%s: queue shared before the set was checked", tc.name)
			return func() {}
		}}
		if _, err := MineWith(context.Background(), tc.m, tc.p, shared); err == nil {
			t.Errorf("%s: accepted with a shared queue", tc.name)
		}
		if _, err := MineSubtreeFunc(context.Background(), tc.m, tc.p, 0, set, func(SubtreeCluster) bool { return true }); err == nil {
			t.Errorf("%s: accepted by MineSubtreeFunc", tc.name)
		}
	}
}

// TestModelKey pins the canonical key semantics: identity on the γ-scheme
// only, sensitivity to everything that changes the index.
func TestModelKey(t *testing.T) {
	base := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.8}
	key := ModelKey("ds1", base)

	// ε/MinG/MinC/caps/ablations do not change the key.
	same := base
	same.Epsilon = 2.5
	same.MinG, same.MinC = 10, 5
	same.MaxClusters, same.MaxNodes = 7, 7
	same.NaiveCandidates = true
	if got := ModelKey("ds1", same); got != key {
		t.Errorf("non-γ knobs changed the key: %q vs %q", got, key)
	}

	// Everything that changes the index changes the key.
	diff := map[string]Params{
		"gamma":    {Gamma: 0.06},
		"absolute": {Gamma: 0.05, AbsoluteGamma: true},
		"custom":   {Gamma: 0.05, CustomGammas: []float64{1, 2}},
	}
	seen := map[string]string{"base": key}
	for name, p := range diff {
		p.MinG, p.MinC, p.Epsilon = 3, 3, 0.8
		k := ModelKey("ds1", p)
		for prev, pk := range seen {
			if k == pk {
				t.Errorf("ModelKey(%s) == ModelKey(%s)", name, prev)
			}
		}
		seen[name] = k
	}
	if ModelKey("ds2", base) == key {
		t.Error("dataset hash not part of the key")
	}

	// Same relative vs absolute γ value must not collide; custom digests are
	// order- and value-sensitive.
	if ModelKey("d", Params{Gamma: 0.1}) == ModelKey("d", Params{Gamma: 0.1, AbsoluteGamma: true}) {
		t.Error("rel/abs scheme collision")
	}
	c1 := ModelKey("d", Params{CustomGammas: []float64{1, 2}})
	c2 := ModelKey("d", Params{CustomGammas: []float64{2, 1}})
	if c1 == c2 {
		t.Error("custom digest ignores order")
	}

	// Total even on non-finite values (Validate rejects them upstream, but
	// the key function itself must never panic or conflate).
	n1 := ModelKey("d", Params{Gamma: math.NaN()})
	n2 := ModelKey("d", Params{Gamma: math.Inf(1)})
	if n1 == n2 || n1 == ModelKey("d", Params{Gamma: 0}) {
		t.Error("non-finite γ values conflated")
	}
}
