package service

import (
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"

	"regcluster/internal/core"
	"regcluster/internal/paperdata"
	"regcluster/internal/report"
	"regcluster/internal/rwave"
)

// TestModelCacheSingleFlight forces the in-flight-sharing path
// deterministically: N goroutines request the same key while the one running
// build blocks until every other goroutine has had a chance to join it. The
// build runs exactly once, the starter counts as the miss, and every joiner
// counts as a hit. Run under -race this also proves the publication of the
// shared slice is properly synchronized.
func TestModelCacheSingleFlight(t *testing.T) {
	mt := NewMetrics()
	c := newModelCache(4, mt)

	const waiters = 8
	builds := 0
	started := make(chan struct{})
	release := make(chan struct{})
	want := new(rwave.Set) // identity is what matters, not contents

	var wg sync.WaitGroup
	results := make([]*rwave.Set, waiters+1)
	launch := func(i int) {
		defer wg.Done()
		got, err := c.getOrBuild("k", func() (*rwave.Set, error) {
			builds++
			close(started)
			<-release
			return want, nil
		})
		if err != nil {
			t.Errorf("goroutine %d: %v", i, err)
		}
		results[i] = got
	}
	wg.Add(1)
	go launch(0)
	<-started // the build is in flight and holds no lock
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go launch(i)
	}
	// Joiners count their hit BEFORE blocking on the build, so waiting for
	// the metric is race-free and guarantees they joined rather than raced
	// past the inflight entry.
	for mt.ModelCacheHits.Load() < waiters {
	}
	close(release)
	wg.Wait()

	if builds != 1 {
		t.Fatalf("%d builds, want 1", builds)
	}
	for i, got := range results {
		if got != want {
			t.Fatalf("goroutine %d got another model set", i)
		}
	}
	if h, m := mt.ModelCacheHits.Load(), mt.ModelCacheMisses.Load(); h != waiters || m != 1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", h, m, waiters)
	}
	// A follow-up lookup is a retained-entry hit, no build.
	if _, err := c.getOrBuild("k", func() (*rwave.Set, error) {
		t.Fatal("rebuilt a retained entry")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if c.len() != 1 {
		t.Fatalf("len %d", c.len())
	}
}

// TestModelCacheEviction: LRU order under pressure, eviction counter, and the
// onEvict hook firing symmetrically with resultCache's.
func TestModelCacheEviction(t *testing.T) {
	mt := NewMetrics()
	c := newModelCache(2, mt)
	var evicted []string
	c.onEvict = func(key string) { evicted = append(evicted, key) }

	put := func(key string) {
		if _, err := c.getOrBuild(key, func() (*rwave.Set, error) {
			return new(rwave.Set), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	put("a")
	put("b")
	put("a") // promote a over b
	put("c") // evicts b
	if !reflect.DeepEqual(evicted, []string{"b"}) {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	if mt.ModelCacheEvictions.Load() != 1 {
		t.Fatalf("evictions %d", mt.ModelCacheEvictions.Load())
	}
	if c.len() != 2 {
		t.Fatalf("len %d", c.len())
	}
	// a survived its promotion; a fresh build for it would be a bug.
	if _, err := c.getOrBuild("a", func() (*rwave.Set, error) {
		t.Fatal("a was evicted despite promotion")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}

	// Disabled retention: nothing stored, every lookup builds.
	d := newModelCache(0, NewMetrics())
	put2 := 0
	for i := 0; i < 2; i++ {
		d.getOrBuild("x", func() (*rwave.Set, error) { put2++; return nil, nil })
	}
	if put2 != 2 || d.len() != 0 {
		t.Fatalf("disabled cache: %d builds, len %d", put2, d.len())
	}
}

// TestModelCacheErrorNotCached: a failed build propagates to its caller and
// is not retained — the next lookup retries and can succeed. A panicking
// build is contained the same way.
func TestModelCacheErrorNotCached(t *testing.T) {
	c := newModelCache(4, NewMetrics())
	boom := errors.New("boom")
	if _, err := c.getOrBuild("k", func() (*rwave.Set, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err %v", err)
	}
	if _, err := c.getOrBuild("p", func() (*rwave.Set, error) { panic("kaboom") }); err == nil {
		t.Fatal("panicking build did not surface an error")
	}
	if c.len() != 0 {
		t.Fatalf("failed builds retained: len %d", c.len())
	}
	ok := false
	if _, err := c.getOrBuild("k", func() (*rwave.Set, error) { ok = true; return nil, nil }); err != nil || !ok {
		t.Fatalf("retry after failure: err=%v ok=%v", err, ok)
	}
}

// TestModelCacheSharedBuildByteIdentical is the differential check at the
// service level: two jobs sharing one γ (hence one RWave build) but differing
// in ε must produce results byte-identical — compared on their JSON encoding
// — to plain core.Mine runs that build their own index. Exactly one model
// build happens for the pair, visible on /metrics.
func TestModelCacheSharedBuildByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	m := paperdata.RunningExample()
	id := uploadMatrix(t, ts, m, "table1")

	params := []core.Params{
		{MinG: 3, MinC: 5, Gamma: 0.15, Epsilon: 0.1},
		{MinG: 3, MinC: 5, Gamma: 0.15, Epsilon: 0.3}, // same γ ⇒ shared build
	}
	for i, p := range params {
		v := submitJob(t, ts, submitRequest{Dataset: id, Params: p})
		fin := waitTerminal(t, ts, v.ID)
		if fin.Status != StatusDone {
			t.Fatalf("job %d ended %s (%s)", i, fin.Status, fin.Error)
		}
		clusters, _ := streamClusters(t, ts, v.ID)

		want, err := core.Mine(m, p)
		if err != nil {
			t.Fatal(err)
		}
		wantNamed := make([]report.NamedCluster, len(want.Clusters))
		for k, b := range want.Clusters {
			wantNamed[k] = report.Named(m, b)
		}
		gotJSON, _ := json.Marshal(clusters)
		wantJSON, _ := json.Marshal(wantNamed)
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("job %d (ε=%v): shared-build clusters diverge from cold Mine", i, p.Epsilon)
		}
		if fin.Stats == nil || *fin.Stats != want.Stats {
			t.Fatalf("job %d stats diverge: %+v vs %+v", i, fin.Stats, want.Stats)
		}
	}
	if misses := metricValue(t, ts, "regserver_model_cache_misses_total"); misses != 1 {
		t.Fatalf("%d model builds for one γ group, want 1", misses)
	}
	if hits := metricValue(t, ts, "regserver_model_cache_hits_total"); hits != 1 {
		t.Fatalf("model cache hits %d, want 1", hits)
	}
	if entries := metricValue(t, ts, "regserver_model_cache_entries"); entries != 1 {
		t.Fatalf("model cache entries %d, want 1", entries)
	}
}

// TestModelCacheConcurrentJobs: a burst of concurrent jobs over two γ groups
// performs exactly two builds total, whatever the interleaving (retained hit
// or in-flight join — both avoid a build). Run with -race in CI.
func TestModelCacheConcurrentJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrentJobs: 4})
	m := paperdata.RunningExample()
	id := uploadMatrix(t, ts, m, "table1")

	epsilons := []float64{0.05, 0.1, 0.2, 0.3}
	gammas := []float64{0.15, 0.3}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ids []string
	for _, g := range gammas {
		for _, e := range epsilons {
			wg.Add(1)
			go func(g, e float64) {
				defer wg.Done()
				v := submitJob(t, ts, submitRequest{Dataset: id,
					Params: core.Params{MinG: 3, MinC: 5, Gamma: g, Epsilon: e}})
				mu.Lock()
				ids = append(ids, v.ID)
				mu.Unlock()
			}(g, e)
		}
	}
	wg.Wait()
	for _, jid := range ids {
		if fin := waitTerminal(t, ts, jid); fin.Status != StatusDone {
			t.Fatalf("job %s ended %s (%s)", jid, fin.Status, fin.Error)
		}
	}
	if misses := metricValue(t, ts, "regserver_model_cache_misses_total"); misses != int64(len(gammas)) {
		t.Fatalf("%d model builds for %d γ groups", misses, len(gammas))
	}
	wantHits := int64(len(gammas)*len(epsilons) - len(gammas))
	if hits := metricValue(t, ts, "regserver_model_cache_hits_total"); hits != wantHits {
		t.Fatalf("model cache hits %d, want %d", hits, wantHits)
	}
}
