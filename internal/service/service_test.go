package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/matrix"
	"regcluster/internal/paperdata"
	"regcluster/internal/report"
	"regcluster/internal/synthetic"
)

// runningParams are the paper's Table 1 mining parameters (E6).
func runningParams() core.Params {
	return core.Params{MinG: 3, MinC: 5, Gamma: 0.15, Epsilon: 0.1}
}

// newTestServer starts an in-memory server behind an httptest listener;
// both close with the test, the listener first.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func uploadMatrix(t *testing.T, ts *httptest.Server, m *matrix.Matrix, name string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/datasets?name="+name, "text/tab-separated-values", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	var ds Dataset
	if err := json.NewDecoder(resp.Body).Decode(&ds); err != nil {
		t.Fatal(err)
	}
	return ds.ID
}

func submitJob(t *testing.T, ts *httptest.Server, req submitRequest) JobView {
	t.Helper()
	v, status := trySubmit(t, ts, req)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d: %+v", status, v)
	}
	return v
}

func trySubmit(t *testing.T, ts *httptest.Server, req submitRequest) (JobView, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	json.NewDecoder(resp.Body).Decode(&v)
	return v, resp.StatusCode
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v := getJob(t, ts, id)
		if v.Status.terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not settle", id)
	return JobView{}
}

// streamClusters drains /jobs/{id}/stream, returning the cluster lines and
// the final summary line.
func streamClusters(t *testing.T, ts *httptest.Server, id string) ([]report.NamedCluster, streamSummary) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var clusters []report.NamedCluster
	var summary streamSummary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"done":true`)) {
			if err := json.Unmarshal(line, &summary); err != nil {
				t.Fatalf("summary line: %v", err)
			}
			continue
		}
		var nc report.NamedCluster
		if err := json.Unmarshal(line, &nc); err != nil {
			t.Fatalf("cluster line %q: %v", line, err)
		}
		clusters = append(clusters, nc)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !summary.Done {
		t.Fatal("stream ended without a summary line")
	}
	return clusters, summary
}

func metricValue(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, name+" ") {
			var v int64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%d", &v); err != nil {
				t.Fatalf("parse metric %q from %q: %v", name, line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %q not exposed", name)
	return 0
}

// TestEndToEndCacheHit is the acceptance scenario: upload the Table 1 paper
// matrix, submit identical Params twice. The first submission mines and its
// streamed clusters equal Mine's output exactly; the second is served from
// the cache — cache_hits increments and no new miner nodes are counted.
func TestEndToEndCacheHit(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	m := paperdata.RunningExample()
	id := uploadMatrix(t, ts, m, "table1")
	if id != m.Hash() {
		t.Fatalf("dataset not content-addressed: %s vs %s", id, m.Hash())
	}

	want, err := core.Mine(m, runningParams())
	if err != nil {
		t.Fatal(err)
	}
	wantNamed := make([]report.NamedCluster, len(want.Clusters))
	for i, b := range want.Clusters {
		wantNamed[i] = report.Named(m, b)
	}

	// First submission mines.
	v1 := submitJob(t, ts, submitRequest{Dataset: id, Params: runningParams(), Workers: 4})
	if v1.Cached {
		t.Fatal("first submission claims a cache hit")
	}
	fin1 := waitTerminal(t, ts, v1.ID)
	if fin1.Status != StatusDone {
		t.Fatalf("first job ended %s (%s)", fin1.Status, fin1.Error)
	}
	if fin1.Stats == nil || *fin1.Stats != want.Stats {
		t.Fatalf("job stats %+v, want %+v", fin1.Stats, want.Stats)
	}
	streamed, summary := streamClusters(t, ts, v1.ID)
	if !reflect.DeepEqual(streamed, wantNamed) {
		t.Fatalf("streamed clusters diverge from Mine:\n%+v\nvs\n%+v", streamed, wantNamed)
	}
	if summary.Status != StatusDone || summary.Clusters != len(wantNamed) {
		t.Fatalf("summary %+v", summary)
	}

	nodesBefore := metricValue(t, ts, "regcluster_nodes_visited_total")
	if nodesBefore != int64(want.Stats.Nodes) {
		t.Fatalf("nodes_visited %d, want %d", nodesBefore, want.Stats.Nodes)
	}
	if hits := metricValue(t, ts, "regcluster_cache_hits_total"); hits != 0 {
		t.Fatalf("cache hits %d before second submission", hits)
	}

	// Second submission: identical params (different worker count — the
	// cache key ignores parallelism) must be served from memory.
	v2 := submitJob(t, ts, submitRequest{Dataset: id, Params: runningParams(), Workers: 1})
	if !v2.Cached {
		t.Fatal("second submission did not hit the cache")
	}
	fin2 := waitTerminal(t, ts, v2.ID)
	if fin2.Status != StatusDone || fin2.Clusters != len(wantNamed) {
		t.Fatalf("cached job view %+v", fin2)
	}
	streamed2, _ := streamClusters(t, ts, v2.ID)
	if !reflect.DeepEqual(streamed2, wantNamed) {
		t.Fatal("cached stream diverges from the mined stream")
	}
	if hits := metricValue(t, ts, "regcluster_cache_hits_total"); hits != 1 {
		t.Fatalf("cache hits %d, want 1", hits)
	}
	if nodesAfter := metricValue(t, ts, "regcluster_nodes_visited_total"); nodesAfter != nodesBefore {
		t.Fatalf("cache hit mined %d new nodes", nodesAfter-nodesBefore)
	}
	if srv.cache.len() != 1 {
		t.Fatalf("cache entries %d", srv.cache.len())
	}

	// Different params miss the cache.
	p3 := runningParams()
	p3.Epsilon = 0.2
	v3 := submitJob(t, ts, submitRequest{Dataset: id, Params: p3})
	if v3.Cached {
		t.Fatal("changed Epsilon still hit the cache")
	}
	waitTerminal(t, ts, v3.ID)

	// The settled result document carries the stable schema.
	resp, err := http.Get(ts.URL + "/jobs/" + v1.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	doc, err := report.Read(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != report.SchemaID || len(doc.Clusters) != len(wantNamed) {
		t.Fatalf("result document schema %q, %d clusters", doc.Schema, len(doc.Clusters))
	}
}

// slowWorkload returns a matrix + params that mine for at least a second or
// two, so tests can observe and interrupt a running job.
func slowWorkload(t *testing.T) (*matrix.Matrix, core.Params) {
	t.Helper()
	m, _, err := synthetic.Generate(synthetic.Config{Genes: 500, Conds: 26, Clusters: 30, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return m, core.Params{MinG: 3, MinC: 3, Gamma: 0.02, Epsilon: 2}
}

// TestCancellationFreesSlot cancels a job mid-mine and verifies both prompt
// settlement and that the mining slot is released for the next job.
func TestCancellationFreesSlot(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrentJobs: 1})
	m, p := slowWorkload(t)
	id := uploadMatrix(t, ts, m, "slow")

	v := submitJob(t, ts, submitRequest{Dataset: id, Params: p, Workers: 2})
	// Wait until the job is demonstrably mining.
	deadline := time.Now().Add(20 * time.Second)
	for {
		jv := getJob(t, ts, v.ID)
		if jv.Status == StatusRunning && jv.LiveNodes > 0 {
			break
		}
		if jv.Status.terminal() {
			t.Fatalf("workload finished before it could be cancelled (%s); enlarge slowWorkload", jv.Status)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started mining")
		}
		time.Sleep(2 * time.Millisecond)
	}

	cancelStart := time.Now()
	resp, err := http.Post(ts.URL+"/jobs/"+v.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fin := waitTerminal(t, ts, v.ID)
	promptness := time.Since(cancelStart)
	if fin.Status != StatusCancelled {
		t.Fatalf("status %s after cancel", fin.Status)
	}
	if promptness > 5*time.Second {
		t.Fatalf("cancellation took %v", promptness)
	}
	if got := metricValue(t, ts, "regcluster_jobs_cancelled_total"); got != 1 {
		t.Fatalf("jobs_cancelled %d", got)
	}

	// The slot must be free: a small job on the same server completes.
	t1 := paperdata.RunningExample()
	tid := uploadMatrix(t, ts, t1, "table1")
	v2 := submitJob(t, ts, submitRequest{Dataset: tid, Params: runningParams()})
	if fin2 := waitTerminal(t, ts, v2.ID); fin2.Status != StatusDone {
		t.Fatalf("post-cancel job ended %s", fin2.Status)
	}
	if running := metricValue(t, ts, "regcluster_jobs_running"); running != 0 {
		t.Fatalf("%d jobs still hold slots", running)
	}
}

// TestQueuedJobCancellation cancels a job that is still waiting for a slot.
func TestQueuedJobCancellation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrentJobs: 1})
	m, p := slowWorkload(t)
	id := uploadMatrix(t, ts, m, "slow")

	blocker := submitJob(t, ts, submitRequest{Dataset: id, Params: p})
	p2 := p
	p2.Epsilon = 3 // distinct cache key so the second submission really queues
	queued := submitJob(t, ts, submitRequest{Dataset: id, Params: p2})

	resp, err := http.Post(ts.URL+"/jobs/"+queued.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fin := waitTerminal(t, ts, queued.ID)
	if fin.Status != StatusCancelled {
		t.Fatalf("queued job ended %s", fin.Status)
	}
	if fin.LiveNodes != 0 {
		t.Fatalf("queued job mined %d nodes", fin.LiveNodes)
	}
	resp, err = http.Post(ts.URL+"/jobs/"+blocker.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitTerminal(t, ts, blocker.ID)
}

// TestJobDeadline verifies the server-side per-job deadline path.
func TestJobDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	m, p := slowWorkload(t)
	id := uploadMatrix(t, ts, m, "slow")
	v := submitJob(t, ts, submitRequest{Dataset: id, Params: p, TimeoutMS: 30})
	fin := waitTerminal(t, ts, v.ID)
	if fin.Status != StatusFailed || !strings.Contains(fin.Error, "deadline") {
		t.Fatalf("deadline job ended %s (%q)", fin.Status, fin.Error)
	}
	if got := metricValue(t, ts, "regcluster_jobs_failed_total"); got != 1 {
		t.Fatalf("jobs_failed %d", got)
	}
}

// TestSubmitNonFiniteParamsRejected is the end-to-end regression for the
// cacheKey panic: a submission carrying non-finite parameters must be
// rejected with a 4xx — at JSON decode for out-of-range literals like 1e999,
// or by core.Params.Validate for anything that gets through — and the server
// must stay alive afterwards. Before the fix, such params passed Validate
// (NaN beats every range check) and panicked json.Marshal inside cacheKey.
func TestSubmitNonFiniteParamsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := uploadMatrix(t, ts, paperdata.RunningExample(), "table1")

	bodies := []string{
		`{"dataset":"` + id + `","params":{"MinG":3,"MinC":5,"Gamma":1e999,"Epsilon":1}}`,
		`{"dataset":"` + id + `","params":{"MinG":3,"MinC":5,"Gamma":0.1,"Epsilon":-1e999}}`,
		`{"dataset":"` + id + `","params":{"MinG":3,"MinC":5,"Gamma":0.1,"Epsilon":1,"CustomGammas":[1e999]}}`,
	}
	for i, body := range bodies {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("case %d: status %d, want 4xx", i, resp.StatusCode)
		}
	}
	// The server survived every rejection.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d after rejections", resp.StatusCode)
	}
}

// TestSubmitValidation exercises the 4xx paths of the submit handler.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxWorkersPerJob: 4})
	m := paperdata.RunningExample()
	id := uploadMatrix(t, ts, m, "table1")

	cases := []struct {
		name string
		req  submitRequest
		code int
	}{
		{"unknown dataset", submitRequest{Dataset: "nope", Params: runningParams()}, http.StatusNotFound},
		{"bad MinG", submitRequest{Dataset: id, Params: core.Params{MinG: 1, MinC: 5, Gamma: 0.1, Epsilon: 1}}, http.StatusBadRequest},
		{"bad MinC", submitRequest{Dataset: id, Params: core.Params{MinG: 3, MinC: 1, Gamma: 0.1, Epsilon: 1}}, http.StatusBadRequest},
		{"negative gamma", submitRequest{Dataset: id, Params: core.Params{MinG: 3, MinC: 5, Gamma: -0.1, Epsilon: 1}}, http.StatusBadRequest},
		{"negative epsilon", submitRequest{Dataset: id, Params: core.Params{MinG: 3, MinC: 5, Gamma: 0.1, Epsilon: -1}}, http.StatusBadRequest},
		{"too many workers", submitRequest{Dataset: id, Params: runningParams(), Workers: 100}, http.StatusBadRequest},
		{"negative timeout", submitRequest{Dataset: id, Params: runningParams(), TimeoutMS: -5}, http.StatusBadRequest},
		{"wrong CustomGammas length", submitRequest{Dataset: id,
			Params: core.Params{MinG: 3, MinC: 5, Gamma: 0.1, Epsilon: 1, CustomGammas: []float64{1, 2}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if _, code := trySubmit(t, ts, tc.req); code != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.code)
		}
	}
}

// TestServerSideClamps verifies that server budget caps apply before cache
// keying, so a clamped submission shares the entry with an explicit one.
func TestServerSideClamps(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxNodesPerJob: 10})
	m := paperdata.RunningExample()
	id := uploadMatrix(t, ts, m, "table1")

	v1 := submitJob(t, ts, submitRequest{Dataset: id, Params: runningParams()}) // unlimited → clamped to 10
	fin := waitTerminal(t, ts, v1.ID)
	if fin.Status != StatusDone {
		t.Fatalf("clamped job ended %s (%s)", fin.Status, fin.Error)
	}
	explicit := runningParams()
	explicit.MaxNodes = 10
	wantCapped, err := core.Mine(m, explicit)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Stats == nil || !fin.Stats.Truncated || *fin.Stats != wantCapped.Stats {
		t.Fatalf("server cap not applied: got %+v, want %+v", fin.Stats, wantCapped.Stats)
	}
	v2 := submitJob(t, ts, submitRequest{Dataset: id, Params: explicit})
	if !v2.Cached {
		t.Fatal("explicit MaxNodes=10 did not share the clamped cache entry")
	}
}

// TestShutdownDrains verifies Shutdown semantics: submissions are rejected,
// running jobs drain (or are cancelled at the deadline).
func TestShutdownDrains(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	m, p := slowWorkload(t)
	id := uploadMatrix(t, ts, m, "slow")
	v := submitJob(t, ts, submitRequest{Dataset: id, Params: p})

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := srv.Shutdown(ctx) // deadline forces cancellation of the slow job
	if err == nil {
		// The job may legitimately have finished before the deadline; only
		// then is a nil error acceptable.
		if jv := getJob(t, ts, v.ID); jv.Status != StatusDone {
			t.Fatalf("clean drain but job is %s", jv.Status)
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("shutdown took %v", d)
	}
	if jv := waitTerminal(t, ts, v.ID); !jv.Status.terminal() {
		t.Fatalf("job not settled after shutdown: %s", jv.Status)
	}
	if _, code := trySubmit(t, ts, submitRequest{Dataset: id, Params: p}); code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit status %d", code)
	}
}
