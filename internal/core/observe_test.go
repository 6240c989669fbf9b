package core

import (
	"context"
	"errors"
	"testing"

	"regcluster/internal/matrix"
	"regcluster/internal/synthetic"
)

func observeTestMatrix(t *testing.T) (*matrix.Matrix, Params) {
	t.Helper()
	cfg := synthetic.Config{Genes: 120, Conds: 14, Clusters: 4, Seed: 7}
	mm, _, err := synthetic.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mm, Params{MinG: 4, MinC: 4, Gamma: 0.08, Epsilon: 0.05}
}

func TestMineParallelFuncObservedMatchesStats(t *testing.T) {
	m, p := observeTestMatrix(t)
	for _, workers := range []int{1, 4} {
		var obs Observer
		var streamed int
		stats, err := statsOf(MineWith(context.Background(), m, p, Options{Workers: workers, Visit: func(b *Bicluster) bool {
			streamed++
			return true
		}, Observer: &obs}))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Clusters == 0 {
			t.Fatal("workload mined no clusters; test is vacuous")
		}
		// An uncapped, uninterrupted run ends with the live counters equal to
		// the authoritative Stats.
		if obs.Nodes() != int64(stats.Nodes) {
			t.Errorf("workers=%d: observer nodes %d, stats %d", workers, obs.Nodes(), stats.Nodes)
		}
		if obs.Clusters() != int64(stats.Clusters) {
			t.Errorf("workers=%d: observer clusters %d, stats %d", workers, obs.Clusters(), stats.Clusters)
		}
		if streamed != stats.Clusters {
			t.Errorf("workers=%d: streamed %d, stats %d", workers, streamed, stats.Clusters)
		}
	}
}

func TestMineParallelFuncObservedTruncatedRunKeepsCounters(t *testing.T) {
	m, p := observeTestMatrix(t)
	p.MaxNodes = 50
	var obs Observer
	stats, err := statsOf(MineWith(context.Background(), m, p, Options{Workers: 4, Visit: func(*Bicluster) bool { return true }, Observer: &obs}))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Truncated {
		t.Fatal("node cap did not truncate; test is vacuous")
	}
	// Live counters may overshoot the exact sequential totals (workers race
	// the cancellation) but never undershoot what the run settled on.
	if obs.Nodes() < int64(stats.Nodes) {
		t.Errorf("observer nodes %d < settled %d", obs.Nodes(), stats.Nodes)
	}
}

func TestMineParallelFuncContextMatchesMineFunc(t *testing.T) {
	m, p := observeTestMatrix(t)
	var seq []string
	if _, err := statsOf(MineWith(context.Background(), m, p, Options{Workers: 1, Visit: func(b *Bicluster) bool {
		seq = append(seq, b.Key())
		return true
	}})); err != nil {
		t.Fatal(err)
	}
	var par []string
	stats, err := statsOf(MineWith(context.Background(), m, p, Options{Workers: 4, Visit: func(b *Bicluster) bool {
		par = append(par, b.Key())
		return true
	}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) || len(seq) != stats.Clusters {
		t.Fatalf("sequential %d vs parallel %d clusters (stats %d)", len(seq), len(par), stats.Clusters)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("cluster %d diverged", i)
		}
	}
}

func TestMineParallelFuncContextCancellation(t *testing.T) {
	m, p := observeTestMatrix(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := statsOf(MineWith(ctx, m, p, Options{Workers: 4, Visit: func(*Bicluster) bool { return true }}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestValidateWorkers(t *testing.T) {
	if err := ValidateWorkers(0, 0); err != nil {
		t.Errorf("workers=0 (GOMAXPROCS) rejected: %v", err)
	}
	if err := ValidateWorkers(-1, 8); err != nil {
		t.Errorf("workers=-1 (GOMAXPROCS) rejected: %v", err)
	}
	if err := ValidateWorkers(8, 8); err != nil {
		t.Errorf("workers at the limit rejected: %v", err)
	}
	if err := ValidateWorkers(9, 8); err == nil {
		t.Error("workers above the limit accepted")
	}
	if err := ValidateWorkers(1000, 0); err != nil {
		t.Errorf("unlimited max rejected a large count: %v", err)
	}
}
