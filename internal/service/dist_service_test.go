package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/dist"
	"regcluster/internal/faultinject"
	"regcluster/internal/matrix"
	"regcluster/internal/synthetic"
)

// distWorkload is a multi-condition workload small enough that remote
// workers finish it in seconds; every condition becomes one lease.
func distWorkload(t *testing.T) (*matrix.Matrix, core.Params) {
	t.Helper()
	m, _, err := synthetic.Generate(synthetic.Config{Genes: 110, Conds: 12, Clusters: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return m, core.Params{MinG: 4, MinC: 4, Gamma: 0.08, Epsilon: 0.05}
}

// startDistWorkers connects n in-process dist workers to a coordinator-mode
// server and tears them down with the test: the cleanup cancels them and
// waits until every Run has returned, so none logs after the test ends.
func startDistWorkers(t *testing.T, ts *httptest.Server, n int) []*dist.Worker {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	t.Cleanup(func() { cancel(); wg.Wait() })
	workers := make([]*dist.Worker, n)
	for i := range workers {
		workers[i] = dist.NewWorker(dist.WorkerConfig{
			Coordinator: ts.URL,
			Name:        fmt.Sprintf("svc-worker-%d", i),
			Logf:        t.Logf,
		})
		wg.Add(1)
		go func(w *dist.Worker) {
			defer wg.Done()
			w.Run(ctx) //nolint:errcheck // cancelled at test end
		}(workers[i])
	}
	return workers
}

// TestCoordinatorModeByteIdenticalAcrossWorkers is the distributed acceptance
// scenario at the service layer: a job submitted to a coordinator-mode server
// with no local workers (DistLocalWorkers < 0) is mined entirely by two
// remote workers over HTTP, and the streamed result — clusters and Stats —
// byte-equals the single-node run.
func TestCoordinatorModeByteIdenticalAcrossWorkers(t *testing.T) {
	m, p := distWorkload(t)
	wantNamed, wantStats := minedReference(t, m, p)

	_, ts := newTestServer(t, Config{
		Mode: "coordinator", DistLocalWorkers: -1,
		LeaseTTL: 500 * time.Millisecond, Logf: t.Logf,
	})
	startDistWorkers(t, ts, 2)

	id := uploadMatrix(t, ts, m, "dist")
	v := submitJob(t, ts, submitRequest{Dataset: id, Params: p})
	fin := waitTerminal(t, ts, v.ID)
	if fin.Status != StatusDone {
		t.Fatalf("distributed job ended %s (%s)", fin.Status, fin.Error)
	}
	if fin.Stats == nil || *fin.Stats != wantStats {
		t.Fatalf("distributed stats %+v, want %+v", fin.Stats, wantStats)
	}
	// Remote subtrees feed the live counters as they land, so a settled
	// uninterrupted run reads its Stats there too.
	if fin.LiveNodes != int64(wantStats.Nodes) || fin.LiveClusters != int64(wantStats.Clusters) {
		t.Errorf("live_nodes %d, live_clusters %d; want the settled %d and %d",
			fin.LiveNodes, fin.LiveClusters, wantStats.Nodes, wantStats.Clusters)
	}
	streamed, _ := streamClusters(t, ts, v.ID)
	if !reflect.DeepEqual(streamed, wantNamed) {
		t.Fatalf("distributed result diverges from single-node run (%d vs %d clusters)",
			len(streamed), len(wantNamed))
	}

	if n := metricValue(t, ts, "regserver_workers_connected"); n != 2 {
		t.Errorf("workers_connected %d, want 2", n)
	}
	if n := metricValue(t, ts, "regserver_leases_completed_total"); n != int64(m.Cols()) {
		t.Errorf("leases_completed %d, want %d", n, m.Cols())
	}
	if n := metricValue(t, ts, "regserver_leases_reassigned_total"); n != 0 {
		t.Errorf("leases_reassigned %d on a healthy run", n)
	}
	if n := metricValue(t, ts, "regserver_leases_active"); n != 0 {
		t.Errorf("leases_active %d after the run settled", n)
	}
}

// TestCoordinatorModeSurvivesWorkerKill kills one of two remote workers
// mid-lease (the injected fault stops its miner and silences its heartbeats,
// exactly what SIGKILL does to a worker process). The coordinator must revoke
// the lease after the TTL, re-issue the subtree from the received watermark,
// and still finish with the byte-identical result. With a durable data-dir,
// the journal holds no audit record of the workers or leases (the log, the
// lease spans and the regserver_leases_* counters carry them), and a restart
// in single mode brings the settled job back intact.
func TestCoordinatorModeSurvivesWorkerKill(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	m, p := distWorkload(t)
	wantNamed, wantStats := minedReference(t, m, p)

	cfg := Config{
		DataDir: dir, Mode: "coordinator", DistLocalWorkers: -1,
		LeaseTTL: 150 * time.Millisecond, Logf: t.Logf,
	}
	srvA, tsA := openTestServer(t, cfg)
	startDistWorkers(t, tsA, 2)

	// The 9th subtree cluster mined anywhere kills that worker's lease.
	faultinject.Arm("dist.worker.mine", faultinject.Spec{After: 8, Times: 1})

	id := uploadMatrix(t, tsA, m, "dist-kill")
	v := submitJob(t, tsA, submitRequest{Dataset: id, Params: p})
	fin := waitTerminal(t, tsA, v.ID)
	if fin.Status != StatusDone {
		t.Fatalf("job ended %s (%s) after worker kill", fin.Status, fin.Error)
	}
	if faultinject.Fired("dist.worker.mine") == 0 {
		t.Fatal("kill fault never fired; the test exercised nothing")
	}
	if n := metricValue(t, tsA, "regserver_leases_reassigned_total"); n == 0 {
		t.Error("no lease reassignment recorded after a worker died mid-lease")
	}
	if fin.Stats == nil || *fin.Stats != wantStats {
		t.Fatalf("stats after reassignment %+v, want %+v", fin.Stats, wantStats)
	}
	streamed, _ := streamClusters(t, tsA, v.ID)
	if !reflect.DeepEqual(streamed, wantNamed) {
		t.Fatal("result after worker kill diverges from single-node run")
	}

	// Workers and leases leave no journal record.
	for _, rec := range journalRecords(t, dir) {
		if rec.Type == recWorker || rec.Type == recLease {
			t.Errorf("journal holds audit record %+v", rec)
		}
	}
	tsA.Close()
	srvA.Close()

	// Restart on the same data-dir in plain single mode: the settled job
	// comes back intact.
	_, tsB := openTestServer(t, Config{DataDir: dir, Logf: t.Logf})
	jv := getJob(t, tsB, v.ID)
	if jv.Status != StatusDone || jv.Clusters != len(wantNamed) {
		t.Fatalf("recovered job view %+v, want done with %d clusters", jv, len(wantNamed))
	}
	streamed2, _ := streamClusters(t, tsB, v.ID)
	if !reflect.DeepEqual(streamed2, wantNamed) {
		t.Fatal("recovered result diverges from the single-node run")
	}
}

// TestReplayAuditRecordsSkipped pins the backward-compatibility contract of
// the audit records older servers wrote: recWorker/recLease lines, fed in
// as raw JSON, interleaved with job records change nothing about the
// replayed job state, raise no "unknown record type" warning, and compact
// away; a replayer predating them (its switch lacks the cases) still
// decodes every line and skips them through its default branch.
func TestReplayAuditRecordsSkipped(t *testing.T) {
	auditLines := []string{
		`{"type":"worker","time":"2026-01-02T03:04:05Z","worker":"w-000001","addr":"worker-a"}`,
		`{"type":"lease","time":"2026-01-02T03:04:05Z","job":"job-000001","worker":"w-000001","lease":"lease-000001","lease_event":"lease_issued","cond":3}`,
		`{"type":"lease","time":"2026-01-02T03:04:06Z","job":"job-000001","worker":"w-000001","lease":"lease-000001","lease_event":"lease_reassigned","cond":3,"skip":5,"reason":"heartbeat ttl expired"}`,
	}
	audit := make([]journalRecord, len(auditLines))
	for i, line := range auditLines {
		if err := json.Unmarshal([]byte(line), &audit[i]); err != nil {
			t.Fatalf("audit line %s: %v", line, err)
		}
	}
	p := runningParams()
	jobRecs := []journalRecord{
		{Type: recSubmit, Job: "job-000001", Seq: 1, Dataset: "ds", Params: &p},
		{Type: recCheckpoint, Job: "job-000001",
			Ckpt:        &core.Checkpoint{Version: 1, NextCond: 1, SkipClusters: 2},
			NewClusters: namedClusters("a", "b")},
		{Type: recDone, Job: "job-000001", CacheKey: "k"},
	}
	withAudit := []journalRecord{jobRecs[0], audit[0], audit[1], jobRecs[1], audit[2], jobRecs[2]}

	var lcPlain, lcAudit logCapture
	plainJobs, _, _, _, plainSeq := replayRecords(jobRecs, lcPlain.logf)
	auditJobs, _, _, _, auditSeq := replayRecords(withAudit, lcAudit.logf)
	if !reflect.DeepEqual(plainJobs, auditJobs) || plainSeq != auditSeq {
		t.Fatalf("audit records changed replayed state:\n%+v\nvs\n%+v", auditJobs, plainJobs)
	}
	if lcAudit.contains("unknown record type") {
		t.Fatalf("audit records hit the unknown-type path: %v", lcAudit.snapshot())
	}
	for _, rec := range canonicalRecords(auditJobs, nil, nil, nil) {
		if rec.Type == recWorker || rec.Type == recLease {
			t.Fatalf("compaction kept audit record %+v", rec)
		}
	}

	// A predating replayer: json decoding ignores the fields it does not
	// know, so every audit line still parses, carries an unrecognized Type,
	// and rides the default skip branch.
	type oldRecord struct {
		Type string `json:"type"`
		Job  string `json:"job,omitempty"`
	}
	for _, line := range auditLines {
		var old oldRecord
		if err := json.Unmarshal([]byte(line), &old); err != nil {
			t.Fatalf("predating replayer cannot decode %s: %v", line, err)
		}
		switch old.Type {
		case recSubmit, recCheckpoint, recDone, recFailed, recCancelled, recInterrupted, recSweep:
			t.Fatalf("audit record %q collides with a replayable type", old.Type)
		}
	}
}

// TestHealthzReadiness covers the readiness probe satellite: 200 with
// ready=true while the server accepts work, 503 with status=draining once
// Shutdown has begun; coordinator mode additionally reports its worker pool.
func TestHealthzReadiness(t *testing.T) {
	health := func(ts *httptest.Server) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	srv, ts := newTestServer(t, Config{})
	code, body := health(ts)
	if code != http.StatusOK || body["ready"] != true || body["mode"] != "single" {
		t.Fatalf("healthz %d %+v, want 200 ready single", code, body)
	}
	if _, ok := body["workers_connected"]; ok {
		t.Fatal("single mode reports a worker pool")
	}

	coord, cts := newTestServer(t, Config{Mode: "coordinator", Logf: t.Logf})
	code, body = health(cts)
	if code != http.StatusOK || body["mode"] != "coordinator" {
		t.Fatalf("coordinator healthz %d %+v", code, body)
	}
	if _, ok := body["workers_connected"]; !ok {
		t.Fatal("coordinator healthz omits workers_connected")
	}
	if _, ok := body["leases_active"]; !ok {
		t.Fatal("coordinator healthz omits leases_active")
	}

	// Draining flips the probe to 503 so load balancers steer away.
	for _, s := range []*Server{srv, coord} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
	}
	for _, u := range []*httptest.Server{ts, cts} {
		code, body = health(u)
		if code != http.StatusServiceUnavailable || body["ready"] != false || body["status"] != "draining" {
			t.Fatalf("post-shutdown healthz %d %+v, want 503 draining", code, body)
		}
	}
}
