package dist

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/faultinject"
	"regcluster/internal/matrix"
	"regcluster/internal/synthetic"
)

func distTestMatrix(t *testing.T) (*matrix.Matrix, core.Params) {
	t.Helper()
	mm, _, err := synthetic.Generate(synthetic.Config{Genes: 110, Conds: 12, Clusters: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return mm, core.Params{MinG: 4, MinC: 4, Gamma: 0.08, Epsilon: 0.05}
}

// mapSource serves replicas from a map, content-addressed like the registry.
type mapSource map[string]*matrix.Matrix

func (s mapSource) Dataset(id string) (*matrix.Matrix, bool) {
	m, ok := s[id]
	return m, ok
}

func assertSameClusters(t *testing.T, want, got []*core.Bicluster) {
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

// Two remote workers over real HTTP, no local mining: the merged stream and
// Stats must be byte-identical to the single-node sequential miner.
func TestDistributedMineByteIdenticalAcrossWorkers(t *testing.T) {
	m, p := distTestMatrix(t)
	want, err := core.Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	id := m.Hash()
	c := NewCoordinator(Config{LeaseTTL: 500 * time.Millisecond, Datasets: mapSource{id: m}, Logf: t.Logf})
	mux := http.NewServeMux()
	c.Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	workers := make([]*Worker, 2)
	for i := range workers {
		workers[i] = NewWorker(WorkerConfig{Coordinator: srv.URL, Name: fmt.Sprintf("test-worker-%d", i)})
	}
	defer runWorkers(workers...)()

	// Both workers must be polling before the run queues its units, and the
	// leases must outlast the 25 ms long-poll tick, or one worker can drain
	// the whole run before the other's next poll. A pass-through delay per
	// mined cluster (the fault is never due) slows leases without changing
	// what they mine.
	t.Cleanup(faultinject.Reset)
	faultinject.Arm("dist.worker.mine", faultinject.Spec{Delay: 5 * time.Millisecond, After: math.MaxInt32})
	for deadline := time.Now().Add(10 * time.Second); c.WorkersConnected() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("workers connected: %d of 2", c.WorkersConnected())
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var got []*core.Bicluster
	stats, err := mineShared(ctx, c, "job-e2e", id, m, p, core.Options{Workers: -1}, func(b *core.Bicluster) bool {
		got = append(got, b)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameClusters(t, want.Clusters, got)
	if !reflect.DeepEqual(want.Stats, stats) {
		t.Errorf("stats: want %+v, got %+v", want.Stats, stats)
	}
	joined, issued, _, completed := c.Counters()
	if joined != 2 {
		t.Errorf("workers joined: want 2, got %d", joined)
	}
	if completed != int64(m.Cols()) || issued < completed {
		t.Errorf("lease counters: issued %d, completed %d (want %d units)", issued, completed, m.Cols())
	}
	if n := c.ActiveLeases(); n != 0 {
		t.Errorf("leases still active after run: %d", n)
	}
	if c.WorkersConnected() != 2 {
		t.Errorf("workers connected: want 2, got %d", c.WorkersConnected())
	}
	// Workers bump Completed after the coordinator has already merged their
	// final heartbeat; give the counters a moment to settle.
	mined := func() int64 { return workers[0].Completed.Load() + workers[1].Completed.Load() }
	for deadline := time.Now().Add(2 * time.Second); mined() != int64(m.Cols()) && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if mined() != int64(m.Cols()) {
		t.Errorf("worker completions: want %d, got %d", m.Cols(), mined())
	}
	if workers[0].Completed.Load() == 0 || workers[1].Completed.Load() == 0 {
		t.Errorf("work not spread across workers: %d vs %d",
			workers[0].Completed.Load(), workers[1].Completed.Load())
	}
}

// A worker dying mid-lease (faultinject at dist.worker.mine — it stops
// mining and never heartbeats again) must cost only a TTL: the lease is
// revoked, the subtree re-leased, and the final output stays byte-identical.
func TestDistributedMineSurvivesWorkerDeathMidLease(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm("dist.worker.mine", faultinject.Spec{After: 8, Times: 1})

	m, p := distTestMatrix(t)
	want, err := core.Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	id := m.Hash()
	c := NewCoordinator(Config{LeaseTTL: 120 * time.Millisecond, Datasets: mapSource{id: m}, Logf: t.Logf})
	mux := http.NewServeMux()
	c.Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	var abandoned func() int64
	{
		ws := make([]*Worker, 2)
		for i := range ws {
			ws[i] = NewWorker(WorkerConfig{Coordinator: srv.URL, Name: fmt.Sprintf("doomed-%d", i)})
		}
		defer runWorkers(ws...)()
		abandoned = func() int64 { return ws[0].Abandoned.Load() + ws[1].Abandoned.Load() }
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var got []*core.Bicluster
	stats, err := mineShared(ctx, c, "job-kill", id, m, p, core.Options{Workers: -1}, func(b *core.Bicluster) bool {
		got = append(got, b)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if faultinject.Fired("dist.worker.mine") == 0 {
		t.Fatal("kill site never fired; test exercised nothing")
	}
	if abandoned() == 0 {
		t.Error("no worker abandoned a lease")
	}
	if _, _, reassigned, _ := c.Counters(); reassigned == 0 {
		t.Error("no lease was reassigned after the simulated death")
	}
	assertSameClusters(t, want.Clusters, got)
	if !reflect.DeepEqual(want.Stats, stats) {
		t.Errorf("stats: want %+v, got %+v", want.Stats, stats)
	}
}

// Deterministic watermark recovery, driving the lease protocol directly: a
// holder ships half a subtree and vanishes; the re-issued lease must carry
// Skip equal to exactly what the coordinator verified, and the re-mined
// remainder must complete the run byte-identically.
func TestKilledWorkerResumesFromReceivedWatermark(t *testing.T) {
	m, p := distTestMatrix(t)
	models, err := core.BuildModels(m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(Config{LeaseTTL: 40 * time.Millisecond, Logf: t.Logf})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var got []*core.Bicluster
	var stats core.Stats
	var mineErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		stats, mineErr = mineShared(ctx, c, "", "", m, p, core.Options{Workers: -1, Models: models}, func(b *core.Bicluster) bool {
			got = append(got, b)
			return true
		})
	}()

	killed := false
	killedShipped := 0
	resumedSkip := -1
	for {
		select {
		case <-done:
			goto settled
		default:
		}
		ls := c.take("w1")
		if ls == nil {
			time.Sleep(3 * time.Millisecond)
			continue
		}
		var clusters []core.SubtreeCluster
		stats, err := core.MineSubtreeFunc(ctx, m, p, ls.cond, models, func(sc core.SubtreeCluster) bool {
			clusters = append(clusters, sc)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		rest := clusters[ls.skip:]
		if !killed && ls.skip == 0 && len(rest) >= 2 {
			// Ship half, then vanish: no Done, no further heartbeats.
			killed = true
			killedShipped = len(rest) / 2
			resp := c.progress(heartbeatRequest{Worker: "w1", Lease: ls.id,
				Clusters: rest[:killedShipped],
				Ckpt:     SubtreeCheckpoint{Cond: ls.cond, Delivered: killedShipped}})
			if !resp.OK {
				t.Fatalf("half shipment rejected: %+v", resp)
			}
			continue
		}
		if ls.skip > 0 {
			resumedSkip = ls.skip
		}
		resp := c.progress(heartbeatRequest{Worker: "w1", Lease: ls.id, Clusters: rest,
			Ckpt: SubtreeCheckpoint{Cond: ls.cond, Delivered: ls.skip + len(rest)},
			Done: true, Stats: &stats})
		if !resp.OK || resp.Revoked {
			t.Fatalf("completion rejected: %+v", resp)
		}
	}
settled:
	if mineErr != nil {
		t.Fatal(mineErr)
	}
	if !killed {
		t.Fatal("never found a subtree worth killing; test is vacuous")
	}
	if resumedSkip != killedShipped {
		t.Errorf("re-issued lease skip: want %d (received watermark), got %d", killedShipped, resumedSkip)
	}
	if _, _, reassigned, _ := c.Counters(); reassigned == 0 {
		t.Error("revoker never reassigned the abandoned lease")
	}
	assertSameClusters(t, want.Clusters, got)
	if !reflect.DeepEqual(want.Stats, stats) {
		t.Errorf("stats: want %+v, got %+v", want.Stats, stats)
	}
}

// A heartbeat whose watermark does not extend the verified prefix exactly
// must revoke the lease instead of corrupting the unit.
func TestWatermarkMismatchRevokesLease(t *testing.T) {
	m, p := distTestMatrix(t)
	c := NewCoordinator(Config{LeaseTTL: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = mineShared(ctx, c, "", "", m, p, core.Options{Workers: -1}, func(*core.Bicluster) bool { return true })
	}()
	var ls *leaseState
	for ls == nil {
		if ls = c.take("w1"); ls == nil {
			time.Sleep(3 * time.Millisecond)
		}
	}
	resp := c.progress(heartbeatRequest{Worker: "w1", Lease: ls.id,
		Ckpt: SubtreeCheckpoint{Cond: ls.cond, Delivered: 7}}) // nothing shipped, claims 7
	if !resp.Revoked {
		t.Fatalf("inconsistent watermark accepted: %+v", resp)
	}
	if resp := c.progress(heartbeatRequest{Worker: "w1", Lease: ls.id,
		Ckpt: SubtreeCheckpoint{Cond: ls.cond, Delivered: 0}}); !resp.Revoked {
		t.Fatalf("heartbeat for a revoked lease accepted: %+v", resp)
	}
	cancel()
	<-done
}

// Satellite: a replica whose bytes do not hash to the advertised id must be
// rejected before mining — the worker nacks the lease and mines nothing.
func TestWorkerRejectsCorruptReplica(t *testing.T) {
	m, p := distTestMatrix(t)
	evil, _, err := synthetic.Generate(synthetic.Config{Genes: 110, Conds: 12, Clusters: 4, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	id := m.Hash() // advertise the honest hash, serve different bytes
	c := NewCoordinator(Config{
		LeaseTTL: 300 * time.Millisecond, MaxUnitFailures: 2,
		Datasets: mapSource{id: evil}, Logf: t.Logf,
	})
	mux := http.NewServeMux()
	c.Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	w := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "gullible", Logf: t.Logf})
	defer runWorkers(w)()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var got []*core.Bicluster
	_, err = mineShared(ctx, c, "job-corrupt", id, m, p, core.Options{Workers: -1}, func(b *core.Bicluster) bool {
		got = append(got, b)
		return true
	})
	if err == nil {
		t.Fatal("run with a corrupt replica source did not fail")
	}
	if !strings.Contains(err.Error(), "rejected") || !strings.Contains(err.Error(), "hash") {
		t.Errorf("error does not surface the hash rejection: %v", err)
	}
	if len(got) != 0 {
		t.Errorf("%d clusters mined from unverifiable data", len(got))
	}
	if w.Nacked.Load() == 0 {
		t.Error("worker never nacked the corrupt replica")
	}
	if w.Completed.Load() != 0 || w.Replicated.Load() != 0 {
		t.Errorf("worker accepted corrupt data: completed %d, replicated %d",
			w.Completed.Load(), w.Replicated.Load())
	}
}

// A worker keeps only its workerCacheSize most recent replicas and model
// sets: fed more datasets than that, a lease of a recent dataset fetches
// nothing, and a lease of an evicted one fetches it again.
func TestWorkerCachesKeepRecentDatasets(t *testing.T) {
	p := core.Params{MinG: 4, MinC: 3, Gamma: 0.08, Epsilon: 0.05}
	src := mapSource{}
	ids := make([]string, workerCacheSize+2)
	for i := range ids {
		m, _, err := synthetic.Generate(synthetic.Config{Genes: 30, Conds: 5, Clusters: 2, Seed: int64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = m.Hash()
		src[ids[i]] = m
	}
	c := NewCoordinator(Config{LeaseTTL: time.Second, Datasets: src, Logf: t.Logf})
	mux := http.NewServeMux()
	c.Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	w := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "bounded", Logf: t.Logf})
	defer runWorkers(w)()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	mine := func(id string) {
		t.Helper()
		if _, err := mineShared(ctx, c, "job-"+id[:8], id, src[id], p, core.Options{Workers: -1}, func(*core.Bicluster) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		mine(id)
	}
	if got := w.Replicated.Load(); got != int64(len(ids)) {
		t.Fatalf("replicated %d datasets, want %d", got, len(ids))
	}
	w.mu.Lock()
	kept, built := len(w.datasets), len(w.models)
	w.mu.Unlock()
	if kept != workerCacheSize || built != workerCacheSize {
		t.Fatalf("worker keeps %d replicas and %d model sets, want %d of each", kept, built, workerCacheSize)
	}
	mine(ids[len(ids)-1])
	if got := w.Replicated.Load(); got != int64(len(ids)) {
		t.Fatalf("a recent dataset was fetched again: %d replications", got)
	}
	mine(ids[0])
	if got := w.Replicated.Load(); got != int64(len(ids))+1 {
		t.Fatalf("an evicted dataset was not fetched again: %d replications, want %d", got, len(ids)+1)
	}
}

// Distributed runs resume from engine checkpoints like local ones: a run cut
// by a visitor stop hands back a checkpoint, and a fresh distributed run
// resumed from it delivers exactly the missing suffix.
func TestDistributedResumeFromCheckpoint(t *testing.T) {
	m, p := distTestMatrix(t)
	models, err := core.BuildModels(m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var full []*core.Bicluster
	ref, err := core.Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	full = ref.Clusters

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c := NewCoordinator(Config{LeaseTTL: time.Second})

	// First run: capture cadence checkpoints, let it complete via one local
	// worker.
	var cks []core.Checkpoint
	var first []*core.Bicluster
	if _, err := mineShared(ctx, c, "", "", m, p, core.Options{
		Workers: 1, Models: models,
		Checkpoint: core.CheckpointConfig{EveryClusters: 9, OnCheckpoint: func(ck core.Checkpoint) { cks = append(cks, ck) }},
	}, func(b *core.Bicluster) bool {
		first = append(first, b)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	assertSameClusters(t, full, first)
	if len(cks) == 0 {
		t.Fatal("no checkpoints emitted")
	}
	ck := cks[len(cks)/2]
	if ck.Delivered() == 0 || ck.Delivered() >= len(full) {
		t.Fatalf("checkpoint watermark %d not mid-run (of %d)", ck.Delivered(), len(full))
	}

	var tail []*core.Bicluster
	stats, err := mineShared(ctx, c, "", "", m, p, core.Options{Workers: 1, Models: models, Resume: &ck}, func(b *core.Bicluster) bool {
		tail = append(tail, b)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameClusters(t, full[ck.Delivered():], tail)
	if !reflect.DeepEqual(ref.Stats, stats) {
		t.Errorf("resumed stats: want %+v, got %+v", ref.Stats, stats)
	}
}

// A run resumed from a checkpoint inside a subtree, with no local worker and
// one remote worker over HTTP: the head goes out as a put-back root whose
// lease Skip is the checkpoint's watermark, the worker ships only the
// clusters after it, and the run ends as the cold one did — suffix, Stats
// and per-subtree Stats.
func TestRemoteWorkerResumesHeadFromCheckpoint(t *testing.T) {
	m, p := distTestMatrix(t)
	models, err := core.BuildModels(m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	var cks []core.Checkpoint
	if _, err := core.MineWith(context.Background(), m, p, core.Options{Workers: 2, Models: models, Visit: func(*core.Bicluster) bool { return true },
		Checkpoint: core.CheckpointConfig{EveryClusters: 1, OnCheckpoint: func(ck core.Checkpoint) { cks = append(cks, ck) }}}); err != nil {
		t.Fatal(err)
	}
	var ck core.Checkpoint
	for _, c := range cks {
		if c.NextCond > 0 && c.SkipClusters > 0 && c.SkipClusters < ref.Subtrees[c.NextCond].Clusters {
			ck = c
			break
		}
	}
	if ck.SkipClusters == 0 {
		t.Fatal("no checkpoint inside a subtree past condition 0; test is vacuous")
	}

	id := m.Hash()
	var (
		evMu sync.Mutex
		evs  []Event
	)
	c := NewCoordinator(Config{LeaseTTL: time.Minute, Datasets: mapSource{id: m}, Logf: t.Logf, Events: func(ev Event) {
		evMu.Lock()
		evs = append(evs, ev)
		evMu.Unlock()
	}})
	mux := http.NewServeMux()
	c.Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	w := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "resumer"})
	defer runWorkers(w)()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var tail []*core.Bicluster
	res, err := core.MineWith(ctx, m, p, core.Options{Workers: -1, Resume: &ck, Share: c.Share("job-resume", id, p, nil),
		Visit: func(b *core.Bicluster) bool {
			tail = append(tail, b)
			return true
		}})
	if err != nil {
		t.Fatal(err)
	}
	assertSameClusters(t, ref.Clusters[ck.Delivered():], tail)
	if !reflect.DeepEqual(ref.Stats, res.Stats) || !reflect.DeepEqual(ref.Subtrees, res.Subtrees) {
		t.Errorf("resumed stats %+v / %+v, want %+v / %+v", res.Stats, res.Subtrees, ref.Stats, ref.Subtrees)
	}

	// A lease's completion event follows the shipment that settled the run;
	// give the last one a moment to arrive.
	settled := func() bool {
		evMu.Lock()
		defer evMu.Unlock()
		n := 0
		for _, ev := range evs {
			if ev.Kind == EventLeaseIssued {
				n++
			} else if ev.Kind == EventLeaseCompleted {
				n--
			}
		}
		return n == 0
	}
	for deadline := time.Now().Add(5 * time.Second); !settled() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	evMu.Lock()
	defer evMu.Unlock()
	issued, completed := map[string]Event{}, map[string]Event{}
	conds := map[int]bool{}
	for _, ev := range evs {
		switch ev.Kind {
		case EventLeaseIssued:
			issued[ev.Lease] = ev
			conds[ev.Cond] = true
		case EventLeaseCompleted:
			completed[ev.Lease] = ev
		case EventLeaseReassigned:
			t.Errorf("lease %s reassigned (%s): the worker's shipment did not extend the buffer", ev.Lease, ev.Reason)
		}
	}
	if len(conds) != m.Cols()-ck.NextCond {
		t.Errorf("leased %d roots, want the %d from the head on", len(conds), m.Cols()-ck.NextCond)
	}
	for lease, ev := range issued {
		if ev.Cond < ck.NextCond {
			t.Errorf("lease %s on subtree %d, settled before the checkpoint", lease, ev.Cond)
		}
		want := 0
		if ev.Cond == ck.NextCond {
			want = ck.SkipClusters
		}
		if ev.Skip != want {
			t.Errorf("lease %s on subtree %d carries Skip %d, want %d", lease, ev.Cond, ev.Skip, want)
		}
		// The buffer accepts only shipments that extend it exactly, so a
		// completed head holds Skip resumed clusters plus what was shipped.
		if done, ok := completed[lease]; !ok || done.Skip != ref.Subtrees[ev.Cond].Clusters {
			t.Errorf("lease %s on subtree %d completed with %d clusters buffered, want %d",
				lease, ev.Cond, done.Skip, ref.Subtrees[ev.Cond].Clusters)
		}
	}
}

// mineShared runs core.MineWith over m with its subtree queue shared with c,
// as a coordinator-mode server does: o.Workers local workers (negative for
// none) beside c's remote ones, with visit receiving the merged clusters.
func mineShared(ctx context.Context, c *Coordinator, job, dataset string, m *matrix.Matrix, p core.Params, o core.Options, visit core.Visitor) (core.Stats, error) {
	o.Visit = visit
	o.Share = c.Share(job, dataset, p, nil)
	res, err := core.MineWith(ctx, m, p, o)
	if err != nil {
		return core.Stats{}, err
	}
	return res.Stats, nil
}

// A non-final heartbeat holding part of the head subtree reaches the visitor
// at once: a run merges a lease's clusters as they arrive, not when the lease
// completes.
func TestHeartbeatStreamsHeadSubtreeBeforeCompletion(t *testing.T) {
	m, p := distTestMatrix(t)
	models, err := core.BuildModels(m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(Config{LeaseTTL: time.Hour, Logf: t.Logf})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var mu sync.Mutex
	var got []*core.Bicluster
	seen := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(got)
	}
	var stats core.Stats
	var mineErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		stats, mineErr = mineShared(ctx, c, "job-stream", "", m, p, core.Options{Workers: -1, Models: models}, func(b *core.Bicluster) bool {
			mu.Lock()
			got = append(got, b)
			mu.Unlock()
			return true
		})
	}()

	// Lease every subtree to one holder, which mines them all up front.
	leases := make([]*leaseState, m.Cols())
	parts := make([][]core.SubtreeCluster, m.Cols())
	partStats := make([]core.Stats, m.Cols())
	for n, deadline := 0, time.Now().Add(10*time.Second); n < m.Cols(); {
		ls := c.take("w1")
		if ls == nil {
			if time.Now().After(deadline) {
				t.Fatalf("leased %d of %d subtrees", n, m.Cols())
			}
			time.Sleep(time.Millisecond)
			continue
		}
		leases[ls.cond] = ls
		if partStats[ls.cond], err = core.MineSubtreeFunc(ctx, m, p, ls.cond, models, func(sc core.SubtreeCluster) bool {
			parts[ls.cond] = append(parts[ls.cond], sc)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		n++
	}
	complete := func(cond, from int) {
		t.Helper()
		rest := parts[cond][from:]
		if resp := c.progress(heartbeatRequest{Worker: "w1", Lease: leases[cond].id, Clusters: rest,
			Ckpt: SubtreeCheckpoint{Cond: cond, Delivered: from + len(rest)},
			Done: true, Stats: &partStats[cond]}); !resp.OK || resp.Revoked {
			t.Fatalf("completion of subtree %d rejected: %+v", cond, resp)
		}
	}

	// Complete the subtrees before the first one worth splitting; that one is
	// the merger's head.
	head, before := 0, 0
	for ; head < m.Cols() && len(parts[head]) < 2; head++ {
		complete(head, 0)
		before += len(parts[head])
	}
	if head == m.Cols() {
		t.Fatal("no subtree has two clusters; test is vacuous")
	}
	half := len(parts[head]) / 2
	if resp := c.progress(heartbeatRequest{Worker: "w1", Lease: leases[head].id, Clusters: parts[head][:half],
		Ckpt: SubtreeCheckpoint{Cond: head, Delivered: half}}); !resp.OK || resp.Revoked {
		t.Fatalf("partial shipment rejected: %+v", resp)
	}
	for deadline := time.Now().Add(10 * time.Second); seen() < before+half; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("visitor holds %d clusters, want %d before the head lease completes", seen(), before+half)
		}
	}
	if _, _, _, completed := c.Counters(); completed != int64(head) {
		t.Fatalf("%d leases completed, want %d: the head lease must still be open", completed, head)
	}
	mu.Lock()
	assertSameClusters(t, want.Clusters[:before+half], got)
	mu.Unlock()

	// Finish the run, the later subtrees first.
	for cond := m.Cols() - 1; cond > head; cond-- {
		complete(cond, 0)
	}
	complete(head, half)
	<-done
	if mineErr != nil {
		t.Fatal(mineErr)
	}
	assertSameClusters(t, want.Clusters, got)
	if !reflect.DeepEqual(want.Stats, stats) {
		t.Errorf("stats: want %+v, got %+v", want.Stats, stats)
	}
}

// runWorkers starts each worker's Run loop and returns the function that
// stops them: it cancels the loops and waits until every Run has returned,
// so no worker logs through a finished test. Tests defer it after the
// coordinator's server, so the workers stop first.
func runWorkers(ws ...*Worker) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			w.Run(ctx) //nolint:errcheck // cancelled by stop
		}(w)
	}
	return func() { cancel(); wg.Wait() }
}
