package core

import (
	"context"
	"errors"
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

// remoteTaker is the Options.Share hook of a run with no local worker, driven
// as a coordinator with remote workers only drives it: it takes every queued
// root, mines each in isolation (uncapped, as a remote worker does), and
// delivers the subtrees out of order — descending condition, so the merger's
// head arrives last — each in two batches, the second carrying its isolated
// Stats. Like dist.Worker, it skips the clusters a root's buffer already
// holds and offsets its watermarks by them. It records the order it took the
// roots in.
type remoteTaker struct {
	t      *testing.T
	m      *matrix.Matrix
	p      Params
	models *rwave.Set
	taken  []int
}

func (r *remoteTaker) share(q *SubtreeQueue) func() {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.deliver(ctx, q)
	}()
	return func() { cancel(); <-done }
}

func (r *remoteTaker) deliver(ctx context.Context, q *SubtreeQueue) {
	parts := make([]*SubtreePartial, r.m.Cols())
	skips := make([]int, r.m.Cols())
	for c, buffered, ok := q.Take(); ok; c, buffered, ok = q.Take() {
		part, err := mineSubtree(ctx, r.m, r.p, c, r.models)
		if err != nil {
			return // the run ended first
		}
		r.taken = append(r.taken, c)
		parts[c], skips[c] = part, buffered
	}
	for c := len(parts) - 1; c >= 0; c-- {
		part := parts[c]
		if part == nil {
			continue
		}
		skip := skips[c]
		rest := part.Clusters[skip:]
		half := len(rest) / 2
		if !q.Append(c, skip+half, rest[:half], nil) ||
			!q.Append(c, skip+len(rest), rest[half:], &part.Stats) {
			r.t.Errorf("delivery of subtree %d refused", c)
			return
		}
	}
}

// mineRemote runs MineWith with o and no local worker, every root mined and
// delivered by a remoteTaker. It returns the result and the order in which
// the taker took the roots.
func mineRemote(ctx context.Context, t *testing.T, m *matrix.Matrix, p Params, o Options) (*Result, []int, error) {
	t.Helper()
	if o.Models == nil {
		models, err := BuildModels(m, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		o.Models = models
	}
	r := &remoteTaker{t: t, m: m, p: p, models: o.Models}
	o.Workers, o.Share = -1, r.share
	res, err := MineWith(ctx, m, p, o)
	return res, r.taken, err
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

// The tentpole guarantee: per-subtree isolated mining, delivered from outside
// the process out of order, merges to the sequential miner's output exactly —
// clusters and every Stats counter — with and without global caps.
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
			// Subtrees are mined WITHOUT caps — the merger owns global budget
			// enforcement — exactly as remote workers mine them.
			got, _, err := mineRemote(context.Background(), t, m, p, Options{})
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

// Remote subtrees delivered out of order must still reach the visitor in
// sequential order, and their checkpoints must resume exactly like the
// engine's.
func TestSubtreeMergerResume(t *testing.T) {
	m, p := subtreeTestMatrix(t)

	// Full remote run, capturing cadence checkpoints.
	var full []*Bicluster
	var cks []Checkpoint
	res, _, err := mineRemote(context.Background(), t, m, p, Options{
		Visit: func(b *Bicluster) bool {
			full = append(full, b)
			return true
		},
		Checkpoint: CheckpointConfig{EveryClusters: 7, OnCheckpoint: func(ck Checkpoint) { cks = append(cks, ck) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	fullStats, fullSubtrees := res.Stats, res.Subtrees
	if len(fullSubtrees) != m.Cols() {
		t.Fatalf("full run recorded %d per-subtree stats, want %d", len(fullSubtrees), m.Cols())
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
	res, taken, err := mineRemote(context.Background(), t, m, p, Options{
		Visit: func(b *Bicluster) bool {
			tail = append(tail, b)
			return true
		},
		Resume: &ck,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range taken {
		if c < ck.NextCond {
			t.Errorf("resumed run queued subtree %d, settled before the checkpoint at %d", c, ck.NextCond)
		}
	}
	clustersEqual(t, full[ck.Delivered():], tail)
	if !reflect.DeepEqual(fullStats, res.Stats) {
		t.Errorf("resumed stats: want %+v, got %+v", fullStats, res.Stats)
	}
	if !reflect.DeepEqual(fullSubtrees, res.Subtrees) {
		t.Errorf("resumed per-subtree stats: want %+v, got %+v", fullSubtrees, res.Subtrees)
	}
}

// A checkpoint inside a subtree resumes through the shared queue with its
// head put back: the taker gets the head with the delivered clusters
// buffered and ships only the rest, and the run ends as the cold one did.
func TestSubtreeMergerResumeInsideSubtree(t *testing.T) {
	m, p := subtreeTestMatrix(t)
	full, err := Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	var cks []Checkpoint
	if _, err := MineWith(context.Background(), m, p, Options{Workers: 2, Visit: func(*Bicluster) bool { return true },
		Checkpoint: CheckpointConfig{EveryClusters: 7, OnCheckpoint: func(ck Checkpoint) { cks = append(cks, ck) }}}); err != nil {
		t.Fatal(err)
	}
	for _, ck := range cks {
		if ck.SkipClusters == 0 || ck.NextCond == 0 {
			continue
		}
		var tail []*Bicluster
		res, _, err := mineRemote(context.Background(), t, m, p, Options{Resume: &ck, Visit: func(b *Bicluster) bool {
			tail = append(tail, b)
			return true
		}})
		if err != nil {
			t.Fatal(err)
		}
		clustersEqual(t, full.Clusters[ck.Delivered():], tail)
		if !reflect.DeepEqual(full.Stats, res.Stats) || !reflect.DeepEqual(full.Subtrees, res.Subtrees) {
			t.Errorf("resumed at %d+%d: stats %+v / %+v, want %+v / %+v",
				ck.NextCond, ck.SkipClusters, res.Stats, res.Subtrees, full.Stats, full.Subtrees)
		}
		return
	}
	t.Fatal("no checkpoint inside a subtree past condition 0; test is weak")
}

// A visitor stop inside remotely delivered subtrees must reproduce the
// sequential visitor-stop truncation exactly.
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

	var got []*Bicluster
	gotStats, err := statsOf(func() (*Result, error) {
		res, _, err := mineRemote(context.Background(), t, m, p, Options{Visit: func(b *Bicluster) bool {
			got = append(got, b)
			return len(got) < stopAfter
		}})
		return res, err
	}())
	if err != nil {
		t.Fatal(err)
	}
	clustersEqual(t, want, got)
	if !reflect.DeepEqual(wantStats, gotStats) {
		t.Errorf("stats: want %+v, got %+v", wantStats, gotStats)
	}
}

// The shared queue refuses every delivery that would corrupt a subtree, puts
// a root back with what was buffered, and fails the run on its taker's word.
func TestSubtreeMergerRejectsBadPartials(t *testing.T) {
	m, p := subtreeTestMatrix(t)
	models, err := BuildModels(m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	errMissing := errors.New("subtree never delivered")
	share := func(q *SubtreeQueue) func() {
		if q.Append(m.Cols(), 0, nil, &Stats{}) {
			t.Error("out-of-range condition accepted")
		}
		c, _, ok := q.Take()
		if !ok {
			t.Fatal("nothing queued")
		}
		if q.Append((c+1)%m.Cols(), 0, nil, &Stats{}) {
			t.Error("delivery for a root nobody took accepted")
		}
		if q.Append(c, 0, nil, &Stats{Truncated: true}) {
			t.Error("truncated (abandoned) partial accepted")
		}
		// Hold roots until one has clusters enough to split.
		var part *SubtreePartial
		for ; ok; c, _, ok = q.Take() {
			var err error
			if part, err = mineSubtree(context.Background(), m, p, c, models); err != nil {
				t.Fatal(err)
			}
			if len(part.Clusters) >= 2 {
				break
			}
		}
		if !ok {
			t.Fatal("no subtree has two clusters; test is weak")
		}
		if q.Append(c, len(part.Clusters), part.Clusters[:1], nil) {
			t.Error("batch with a watermark past what it carries accepted")
		}
		if !q.Append(c, 1, part.Clusters[:1], nil) {
			t.Fatal("first batch refused")
		}
		if q.Append(c, 1, part.Clusters[:1], nil) {
			t.Error("replayed batch accepted")
		}
		// Put back, the root comes out first again, with its buffered prefix.
		q.Requeue(c)
		if q.Append(c, 2, part.Clusters[1:2], nil) {
			t.Error("delivery for a root put back accepted")
		}
		again, buffered, ok := q.Take()
		if !ok || again != c || buffered != 1 {
			t.Fatalf("retake: root %d with %d buffered (ok %v), want %d with 1", again, buffered, ok, c)
		}
		if !q.Append(c, len(part.Clusters), part.Clusters[1:], &part.Stats) {
			t.Fatal("final batch refused")
		}
		if q.Append(c, len(part.Clusters), nil, &part.Stats) {
			t.Error("duplicate final accepted for a finished subtree")
		}
		// A taker that cannot deliver a root fails the run explicitly.
		q.Fail(errMissing)
		return func() {}
	}
	if _, err := MineWith(context.Background(), m, p, Options{Workers: -1, Models: models, Share: share}); !errors.Is(err, errMissing) {
		t.Errorf("run with an undelivered subtree: err = %v, want %v", err, errMissing)
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

// A taker of the shared queue receives the roots in the engine's dispatch
// order, largest estimated subtree first.
func TestSubtreeOrderMatchesEngineDispatch(t *testing.T) {
	m, p := subtreeTestMatrix(t)
	models, err := BuildModels(m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := mineRemote(context.Background(), t, m, p, Options{Models: models})
	if err != nil {
		t.Fatal(err)
	}
	want := subtreeOrder(m, p, models)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("taken order %v != engine order %v", got, want)
	}
	if len(got) != m.Cols() {
		t.Errorf("order covers %d of %d conditions", len(got), m.Cols())
	}
}

// A root its taker put back half delivered is finished by a local worker,
// which skips what the buffer holds, while the taker keeps mining other roots
// beside the local workers: the run still equals Mine's.
func TestLocalWorkerResumesPutBackRoot(t *testing.T) {
	m, p := subtreeTestMatrix(t)
	models, err := BuildModels(m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	putBack := -1
	share := func(q *SubtreeQueue) func() {
		// Before any local dispatch: take roots until one can be split, ship
		// half of it and put it back.
		for c, _, ok := q.Take(); ok; c, _, ok = q.Take() {
			part, err := mineSubtree(context.Background(), m, p, c, models)
			if err != nil {
				t.Fatal(err)
			}
			if half := len(part.Clusters) / 2; half > 0 {
				if !q.Append(c, half, part.Clusters[:half], nil) {
					t.Fatalf("half of subtree %d refused", c)
				}
				q.Requeue(c)
				putBack = c
				break
			}
			if !q.Append(c, len(part.Clusters), part.Clusters, &part.Stats) {
				t.Fatalf("subtree %d refused", c)
			}
		}
		// Then race the local workers for the other roots; the put-back one
		// is left to them.
		done := make(chan struct{})
		go func() {
			defer close(done)
			for c, _, ok := q.Take(); ok; c, _, ok = q.Take() {
				if c == putBack {
					q.Requeue(c)
					return
				}
				part, err := mineSubtree(context.Background(), m, p, c, models)
				if err != nil {
					t.Error(err)
					return
				}
				if !q.Append(c, len(part.Clusters), part.Clusters, &part.Stats) {
					t.Errorf("subtree %d refused", c)
					return
				}
			}
		}()
		return func() { <-done }
	}
	res, err := MineWith(context.Background(), m, p, Options{Workers: 2, Models: models, Share: share})
	if err != nil {
		t.Fatal(err)
	}
	if putBack < 0 {
		t.Fatal("no subtree had clusters to split; test is vacuous")
	}
	clustersEqual(t, want.Clusters, res.Clusters)
	if !reflect.DeepEqual(want.Stats, res.Stats) || !reflect.DeepEqual(want.Subtrees, res.Subtrees) {
		t.Errorf("stats: want %+v / %+v, got %+v / %+v", want.Stats, want.Subtrees, res.Stats, res.Subtrees)
	}
}
