package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"regcluster/internal/matrix"
	"regcluster/internal/rwave"
	"regcluster/internal/synthetic"
)

func subtreeTestMatrix(t *testing.T) (*matrix.Matrix, Params) {
	t.Helper()
	cfg := synthetic.Config{Genes: 110, Conds: 12, Clusters: 4, Seed: 11}
	mm, _, err := synthetic.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mm, Params{MinG: 4, MinC: 4, Gamma: 0.08, Epsilon: 0.05}
}

// mineAllSubtrees mines every level-1 subtree in isolation, in an order that
// deliberately differs from both the condition order and the engine's
// dispatch order, as distributed workers would.
func mineAllSubtrees(t *testing.T, m *matrix.Matrix, p Params) []*SubtreePartial {
	t.Helper()
	models, err := BuildModels(m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*SubtreePartial, 0, m.Cols())
	for c := m.Cols() - 1; c >= 0; c-- {
		part, err := mineSubtree(context.Background(), m, p, c, models)
		if err != nil {
			t.Fatalf("subtree %d: %v", c, err)
		}
		if part.Stats.Truncated {
			t.Fatalf("subtree %d: isolated mine reported truncation", c)
		}
		parts = append(parts, part)
	}
	return parts
}

// mineSubtree mines one level-1 subtree in isolation into a partial, as a
// distributed worker ships it.
func mineSubtree(ctx context.Context, m *matrix.Matrix, p Params, cond int, models *rwave.Set) (*SubtreePartial, error) {
	part := &SubtreePartial{Cond: cond}
	stats, err := MineSubtreeFunc(ctx, m, p, cond, models, func(sc SubtreeCluster) bool {
		part.Clusters = append(part.Clusters, sc)
		return true
	})
	if err != nil {
		return nil, err
	}
	part.Stats = stats
	return part, nil
}

// mergePartials folds a full set of subtree partials (one per condition, any
// order) through a SubtreeMerger into a Result; a missing partial is an
// error.
func mergePartials(m *matrix.Matrix, p Params, models *rwave.Set, partials []*SubtreePartial) (*Result, error) {
	res := &Result{}
	g, err := NewSubtreeMerger(context.Background(), m, p, models, func(b *Bicluster) bool {
		res.Clusters = append(res.Clusters, b)
		return true
	}, nil, CheckpointConfig{})
	if err != nil {
		return nil, err
	}
	for _, part := range partials {
		if _, err := g.Offer(part); err != nil {
			return nil, err
		}
	}
	if !g.Done() {
		return nil, fmt.Errorf("missing subtree partial for condition %d", g.NextCond())
	}
	if res.Stats, err = g.Result(); err != nil {
		return nil, err
	}
	return res, nil
}

func clustersEqual(t *testing.T, want, got []*Bicluster) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("cluster count: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if want[i].Key() != got[i].Key() {
			t.Fatalf("cluster %d differs:\n want %s\n got  %s", i, want[i], got[i])
		}
	}
}

// The tentpole guarantee: per-subtree isolated mining plus the merger equals
// the sequential miner exactly — clusters and every Stats counter — with and
// without global caps.
func TestMergeSubtreePartialsMatchesMine(t *testing.T) {
	m, base := subtreeTestMatrix(t)
	ref, err := Mine(m, base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Clusters < 50 {
		t.Fatalf("workload too small (%d clusters); test is weak", ref.Stats.Clusters)
	}
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"uncapped", func(*Params) {}},
		{"node_cap", func(p *Params) { p.MaxNodes = ref.Stats.Nodes / 3 }},
		{"cluster_cap", func(p *Params) { p.MaxClusters = ref.Stats.Clusters / 2 }},
		{"both_caps", func(p *Params) { p.MaxNodes = ref.Stats.Nodes * 2 / 3; p.MaxClusters = ref.Stats.Clusters * 2 / 3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := base
			tc.mut(&p)
			want, err := Mine(m, p)
			if err != nil {
				t.Fatal(err)
			}
			// Partials are mined WITHOUT caps — the merger owns global budget
			// enforcement — so they are shared across all cap variants of the
			// same base parameters in a real coordinator. Mine them per-case
			// here to keep the test self-contained.
			parts := mineAllSubtrees(t, m, p)
			got, err := mergePartials(m, p, nil, parts)
			if err != nil {
				t.Fatal(err)
			}
			clustersEqual(t, want.Clusters, got.Clusters)
			if !reflect.DeepEqual(want.Stats, got.Stats) {
				t.Errorf("stats: want %+v, got %+v", want.Stats, got.Stats)
			}
		})
	}
}

// A merger fed out of order must still deliver in sequential order, and its
// checkpoints must resume exactly like the engine's.
func TestSubtreeMergerResume(t *testing.T) {
	m, p := subtreeTestMatrix(t)
	parts := mineAllSubtrees(t, m, p)
	byCond := make(map[int]*SubtreePartial, len(parts))
	for _, part := range parts {
		byCond[part.Cond] = part
	}

	// Full merged run, capturing cadence checkpoints.
	var full []*Bicluster
	var cks []Checkpoint
	g, err := NewSubtreeMerger(nil, m, p, nil, func(b *Bicluster) bool {
		full = append(full, b)
		return true
	}, nil, CheckpointConfig{EveryClusters: 7, OnCheckpoint: func(ck Checkpoint) { cks = append(cks, ck) }})
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range parts { // reverse condition order: all out of order
		if _, err := g.Offer(part); err != nil {
			t.Fatal(err)
		}
	}
	if !g.Done() {
		t.Fatalf("merger not done; next cond %d", g.NextCond())
	}
	fullStats, err := g.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) == 0 {
		t.Fatal("no checkpoints emitted")
	}

	// Resume from a mid-run cadence checkpoint: only the suffix re-delivers.
	ck := cks[len(cks)/2]
	if ck.Delivered() == 0 || ck.Delivered() >= len(full) {
		t.Fatalf("checkpoint watermark %d not mid-run (of %d)", ck.Delivered(), len(full))
	}
	var tail []*Bicluster
	rg, err := NewSubtreeMerger(nil, m, p, nil, func(b *Bicluster) bool {
		tail = append(tail, b)
		return true
	}, &ck, CheckpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for c := ck.NextCond; c < m.Cols() && !rg.Done(); c++ {
		if _, err := rg.Offer(byCond[c]); err != nil {
			t.Fatal(err)
		}
	}
	if !rg.Done() {
		t.Fatalf("resumed merger not done; next cond %d", rg.NextCond())
	}
	resumedStats, err := rg.Result()
	if err != nil {
		t.Fatal(err)
	}
	clustersEqual(t, full[ck.Delivered():], tail)
	if !reflect.DeepEqual(fullStats, resumedStats) {
		t.Errorf("resumed stats: want %+v, got %+v", fullStats, resumedStats)
	}
}

// A visitor stop inside the merger must reproduce the sequential visitor-stop
// truncation exactly.
func TestSubtreeMergerVisitorStopMatchesMineFunc(t *testing.T) {
	m, p := subtreeTestMatrix(t)
	const stopAfter = 23
	var want []*Bicluster
	wantStats, err := statsOf(MineWith(context.Background(), m, p, Options{Workers: 1, Visit: func(b *Bicluster) bool {
		want = append(want, b)
		return len(want) < stopAfter
	}}))
	if err != nil {
		t.Fatal(err)
	}
	if !wantStats.Truncated {
		t.Fatal("sequential visitor stop did not truncate; test is vacuous")
	}

	parts := mineAllSubtrees(t, m, p)
	var got []*Bicluster
	g, err := NewSubtreeMerger(nil, m, p, nil, func(b *Bicluster) bool {
		got = append(got, b)
		return len(got) < stopAfter
	}, nil, CheckpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range parts {
		done, err := g.Offer(part)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if !g.Done() {
		t.Fatal("merger did not settle on visitor stop")
	}
	gotStats, err := g.Result()
	if err != nil {
		t.Fatal(err)
	}
	clustersEqual(t, want, got)
	if !reflect.DeepEqual(wantStats, gotStats) {
		t.Errorf("stats: want %+v, got %+v", wantStats, gotStats)
	}
}

func TestSubtreeMergerRejectsBadPartials(t *testing.T) {
	m, p := subtreeTestMatrix(t)
	models, err := BuildModels(m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewSubtreeMerger(nil, m, p, models, func(*Bicluster) bool { return true }, nil, CheckpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Offer(&SubtreePartial{Cond: m.Cols()}); err == nil {
		t.Error("out-of-range condition accepted")
	}
	if _, err := g.Offer(&SubtreePartial{Cond: 3, Stats: Stats{Truncated: true}}); err == nil {
		t.Error("truncated (abandoned) partial accepted")
	}
	if _, err := g.Offer(&SubtreePartial{Cond: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Offer(&SubtreePartial{Cond: 3}); err == nil {
		t.Error("duplicate pending partial accepted")
	}
	part, err := mineSubtree(context.Background(), m, p, 0, models)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Offer(part); err != nil {
		t.Fatal(err)
	}
	// Subtree 0 folded; re-offering it is now behind the merge frontier.
	if _, err := g.Offer(&SubtreePartial{Cond: 0}); err == nil {
		t.Error("already-folded partial accepted")
	}
	// A missing partial surfaces as an explicit merge error in the batch API.
	if _, err := mergePartials(m, p, models, []*SubtreePartial{part}); err == nil {
		t.Error("incomplete partial set merged without error")
	}
}

func TestMineSubtreeFuncCancellation(t *testing.T) {
	m, p := subtreeTestMatrix(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MineSubtreeFunc(ctx, m, p, 0, nil, func(SubtreeCluster) bool { return true })
	if err == nil {
		t.Fatal("cancelled context did not interrupt the subtree mine")
	}
}

func TestSubtreeOrderMatchesEngineDispatch(t *testing.T) {
	m, p := subtreeTestMatrix(t)
	models, err := BuildModels(m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SubtreeOrder(m, p, models)
	if err != nil {
		t.Fatal(err)
	}
	want := subtreeOrder(m, p, models)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("exported order %v != engine order %v", got, want)
	}
	if len(got) != m.Cols() {
		t.Errorf("order covers %d of %d conditions", len(got), m.Cols())
	}
}
