package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/faultinject"
	"regcluster/internal/matrix"
	"regcluster/internal/paperdata"
	"regcluster/internal/report"
	"regcluster/internal/synthetic"
)

// openTestServer boots a (usually durable) server via Open and serves it.
func openTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// recoveryWorkload is a deterministic multi-hundred-cluster run, bounded by
// MaxClusters so the uninterrupted reference is itself deterministic (capped
// runs return the exact sequential prefix and are cacheable).
func recoveryWorkload(t *testing.T) (*matrix.Matrix, core.Params) {
	t.Helper()
	m, _, err := synthetic.Generate(synthetic.Config{Genes: 220, Conds: 14, Clusters: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return m, core.Params{MinG: 3, MinC: 3, Gamma: 0.03, Epsilon: 1.5, MaxClusters: 400}
}

// minedReference mines the workload uninterrupted and returns the named form.
func minedReference(t *testing.T, m *matrix.Matrix, p core.Params) ([]report.NamedCluster, core.Stats) {
	t.Helper()
	want, err := core.Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	named := make([]report.NamedCluster, len(want.Clusters))
	for i, b := range want.Clusters {
		named[i] = report.Named(m, b)
	}
	return named, want.Stats
}

// waitClusters polls a job until it has delivered at least n clusters,
// failing if it settles first.
func waitClusters(t *testing.T, ts *httptest.Server, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v := getJob(t, ts, id)
		if v.Clusters >= n {
			return
		}
		if v.Status.terminal() {
			t.Fatalf("job settled (%s) before delivering %d clusters (has %d); slow the workload down",
				v.Status, n, v.Clusters)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job never delivered %d clusters", n)
}

// TestKillAndRestartResumesFromCheckpoint is the acceptance scenario: a job
// whose process dies mid-run (simulated by failing every journal append from
// the crash point on, so the WAL freezes exactly as a SIGKILL would leave
// it) is re-enqueued from its last checkpoint on the next boot, and the
// recovered result — journaled prefix plus resumed suffix — byte-equals the
// uninterrupted deterministic run.
func TestKillAndRestartResumesFromCheckpoint(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	m, p := recoveryWorkload(t)
	wantNamed, wantStats := minedReference(t, m, p)
	if len(wantNamed) < 50 {
		t.Fatalf("workload too small for a mid-run crash: %d clusters", len(wantNamed))
	}

	cfg := Config{DataDir: dir, CheckpointEveryClusters: 1, Logf: t.Logf}
	srvA, tsA := openTestServer(t, cfg)

	// Slow the miner down so the "crash" lands mid-enumeration.
	disarmDelay := faultinject.Arm("core.mine.subtree", faultinject.Spec{Delay: 25 * time.Millisecond})
	defer disarmDelay()

	id := uploadMatrix(t, tsA, m, "recovery")
	v := submitJob(t, tsA, submitRequest{Dataset: id, Params: p, Workers: 4})
	waitClusters(t, tsA, v.ID, 20)

	// Crash: from here on nothing reaches the WAL — the journal on disk is
	// frozen at the last completed append, exactly the state a SIGKILL
	// leaves. Then tear the process state down.
	disarmWAL := faultinject.Arm("journal.append", faultinject.Spec{Err: errors.New("simulated crash: process died")})
	resp, err := http.Post(tsA.URL+"/jobs/"+v.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitTerminal(t, tsA, v.ID)
	tsA.Close()
	srvA.Close()
	disarmWAL()
	disarmDelay()

	// Restart on the same data-dir: the job must come back, resume, and
	// finish with the uninterrupted run's exact output.
	srvB, tsB := openTestServer(t, cfg)
	jv := getJob(t, tsB, v.ID)
	if !jv.Recovered {
		t.Fatalf("job not marked recovered after restart: %+v", jv)
	}
	if jv.Clusters == 0 {
		t.Fatal("recovered job lost its journaled cluster prefix")
	}
	if recov := metricValue(t, tsB, "regserver_recoveries_total"); recov != 1 {
		t.Fatalf("recoveries_total %d, want 1", recov)
	}
	fin := waitTerminal(t, tsB, v.ID)
	if fin.Status != StatusDone {
		t.Fatalf("recovered job ended %s (%s)", fin.Status, fin.Error)
	}
	if fin.Stats == nil || *fin.Stats != wantStats {
		t.Fatalf("recovered stats %+v, want %+v", fin.Stats, wantStats)
	}
	streamed, _ := streamClusters(t, tsB, v.ID)
	gotJSON, _ := json.Marshal(streamed)
	wantJSON, _ := json.Marshal(wantNamed)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("recovered result does not byte-equal the uninterrupted run (%d vs %d clusters)",
			len(streamed), len(wantNamed))
	}

	// The recovered result was cached and persisted: resubmitting is a hit.
	v2 := submitJob(t, tsB, submitRequest{Dataset: id, Params: p})
	if !v2.Cached {
		t.Fatal("recovered result not cached")
	}
	_ = srvB
}

// TestDrainJournalsInterrupted covers the graceful-shutdown satellite: a job
// still running when the grace period expires settles as `interrupted` (not
// a dead-end cancellation), its checkpoint is journaled, and the next boot
// resumes it to the exact uninterrupted result.
func TestDrainJournalsInterrupted(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	m, p := recoveryWorkload(t)
	wantNamed, wantStats := minedReference(t, m, p)

	cfg := Config{DataDir: dir, CheckpointEveryClusters: 1, Logf: t.Logf}
	srvA, tsA := openTestServer(t, cfg)
	// A hefty per-subtree stall guarantees the job outlives the grace period.
	disarmDelay := faultinject.Arm("core.mine.subtree", faultinject.Spec{Delay: 150 * time.Millisecond})
	defer disarmDelay()

	id := uploadMatrix(t, tsA, m, "drain")
	v := submitJob(t, tsA, submitRequest{Dataset: id, Params: p, Workers: 2})
	waitClusters(t, tsA, v.ID, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srvA.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err %v, want deadline (the job should outlive the grace period)", err)
	}
	fin := waitTerminal(t, tsA, v.ID)
	if fin.Status != StatusInterrupted {
		t.Fatalf("drained job ended %s, want interrupted", fin.Status)
	}
	tsA.Close()
	srvA.Close()
	disarmDelay()

	_, tsB := openTestServer(t, cfg)
	fin2 := waitTerminal(t, tsB, v.ID)
	if fin2.Status != StatusDone || !fin2.Recovered {
		t.Fatalf("resumed job %+v", fin2)
	}
	if fin2.Stats == nil || *fin2.Stats != wantStats {
		t.Fatalf("resumed stats %+v, want %+v", fin2.Stats, wantStats)
	}
	streamed, _ := streamClusters(t, tsB, v.ID)
	if !reflect.DeepEqual(streamed, wantNamed) {
		t.Fatal("resumed result diverges from the uninterrupted run")
	}
}

// TestSettledStateSurvivesRestart: datasets, done jobs, and the result cache
// all come back after a clean restart; a resubmission is a cache hit served
// from recovered files without re-mining.
func TestSettledStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Logf: t.Logf}
	srvA, tsA := openTestServer(t, cfg)

	m := paperdata.RunningExample()
	wantNamed, wantStats := minedReference(t, m, runningParams())
	id := uploadMatrix(t, tsA, m, "table1")
	v := submitJob(t, tsA, submitRequest{Dataset: id, Params: runningParams()})
	if fin := waitTerminal(t, tsA, v.ID); fin.Status != StatusDone {
		t.Fatalf("job ended %s", fin.Status)
	}
	tsA.Close()
	srvA.Close()

	srvB, tsB := openTestServer(t, cfg)
	// Dataset is back, content-addressed as before.
	resp, err := http.Get(tsB.URL + "/datasets/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered dataset GET status %d", resp.StatusCode)
	}
	// The settled job answers with its full result.
	jv := getJob(t, tsB, v.ID)
	if jv.Status != StatusDone || jv.Clusters != len(wantNamed) {
		t.Fatalf("recovered job view %+v, want done with %d clusters", jv, len(wantNamed))
	}
	if jv.Stats == nil || *jv.Stats != wantStats {
		t.Fatalf("recovered job stats %+v", jv.Stats)
	}
	streamed, _ := streamClusters(t, tsB, v.ID)
	if !reflect.DeepEqual(streamed, wantNamed) {
		t.Fatal("recovered done job streams different clusters")
	}
	// Resubmission hits the recovered cache — no mining.
	v2 := submitJob(t, tsB, submitRequest{Dataset: id, Params: runningParams()})
	if !v2.Cached {
		t.Fatal("recovered cache missed")
	}
	if nodes := metricValue(t, tsB, "regcluster_nodes_visited_total"); nodes != 0 {
		t.Fatalf("restart re-mined %d nodes", nodes)
	}
	if srvB.cache.len() == 0 {
		t.Fatal("result cache empty after recovery")
	}
}

// TestWorkerPanicFailsJobOnly: a miner panic on any in-process route — the
// local parallel engine, the incremental re-mine, or a coordinator's local
// mining loop — fails only its job, with the panic value and a stack, and
// the server keeps serving.
func TestWorkerPanicFailsJobOnly(t *testing.T) {
	for _, route := range []string{"local", "incremental", "coordinator"} {
		t.Run(route, func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			cfg := Config{Logf: t.Logf}
			if route == "coordinator" {
				cfg.Mode = "coordinator"
			}
			_, ts := newTestServer(t, cfg)
			id, p := uploadMatrix(t, ts, paperdata.RunningExample(), "table1"), runningParams()
			if route == "incremental" {
				parentID := uploadMatrix(t, ts, incrParentMatrix(), "parent")
				p = incrParams()
				pj := submitJob(t, ts, submitRequest{Dataset: parentID, Params: p})
				if v := waitTerminal(t, ts, pj.ID); v.Status != StatusDone {
					t.Fatalf("parent job ended %s: %s", v.Status, v.Error)
				}
				child, status := appendDeltaHTTP(t, ts, parentID, "", incrDeltaMatrix())
				if status != http.StatusCreated {
					t.Fatalf("append status %d", status)
				}
				id = child.ID
			}

			disarm := faultinject.Arm("core.mine.subtree", faultinject.Spec{Panic: "injected worker panic", Times: 1})
			v := submitJob(t, ts, submitRequest{Dataset: id, Params: p, Workers: 4})
			fin := waitTerminal(t, ts, v.ID)
			disarm()
			if fin.Status != StatusFailed {
				t.Fatalf("panicked job ended %s", fin.Status)
			}
			if !strings.Contains(fin.Error, "injected worker panic") {
				t.Fatalf("panic message lost: %q", fin.Error)
			}
			if !strings.Contains(fin.Stack, "goroutine") {
				t.Fatalf("no stack captured: %q", fin.Stack)
			}
			if got := metricValue(t, ts, "regserver_panics_recovered_total"); got != 1 {
				t.Fatalf("panics_recovered %d", got)
			}

			// The server is not wounded: the same submission now succeeds.
			v2 := submitJob(t, ts, submitRequest{Dataset: id, Params: p})
			if fin2 := waitTerminal(t, ts, v2.ID); fin2.Status != StatusDone {
				t.Fatalf("post-panic job ended %s (%s)", fin2.Status, fin2.Error)
			}
			if route == "incremental" {
				// Same inputs, so the panicked job took this route too.
				if got := metricValue(t, ts, "regserver_incremental_mines_total"); got != 1 {
					t.Fatalf("incremental mines %d after the retry, want 1", got)
				}
			}
		})
	}
}

// TestTransientFailureRetries: transient errors retry with backoff until the
// run succeeds; the retry count is metered and surfaced on the job view.
func TestTransientFailureRetries(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, ts := newTestServer(t, Config{RetryBaseDelay: time.Millisecond, Logf: t.Logf})
	m := paperdata.RunningExample()
	id := uploadMatrix(t, ts, m, "table1")

	disarm := faultinject.Arm("jobs.mine",
		faultinject.Spec{Err: &faultinject.TransientError{Err: errors.New("blip")}, Times: 2})
	defer disarm()
	v := submitJob(t, ts, submitRequest{Dataset: id, Params: runningParams()})
	fin := waitTerminal(t, ts, v.ID)
	if fin.Status != StatusDone {
		t.Fatalf("retried job ended %s (%s)", fin.Status, fin.Error)
	}
	if fin.Attempts != 2 {
		t.Fatalf("attempts %d, want 2", fin.Attempts)
	}
	if got := metricValue(t, ts, "regserver_job_retries_total"); got != 2 {
		t.Fatalf("job_retries %d, want 2", got)
	}
}

// TestTransientFailureExhausts: a persistently transient failure surfaces
// after the retry budget, as failed (never an endless loop).
func TestTransientFailureExhausts(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, ts := newTestServer(t, Config{MaxJobRetries: 1, RetryBaseDelay: time.Millisecond, Logf: t.Logf})
	m := paperdata.RunningExample()
	id := uploadMatrix(t, ts, m, "table1")

	disarm := faultinject.Arm("jobs.mine",
		faultinject.Spec{Err: &faultinject.TransientError{Err: errors.New("disk flaky")}})
	defer disarm()
	v := submitJob(t, ts, submitRequest{Dataset: id, Params: runningParams()})
	fin := waitTerminal(t, ts, v.ID)
	if fin.Status != StatusFailed || !strings.Contains(fin.Error, "disk flaky") {
		t.Fatalf("exhausted job: %s (%q)", fin.Status, fin.Error)
	}
	if fin.Attempts != 1 {
		t.Fatalf("attempts %d, want 1", fin.Attempts)
	}
}

// TestStreamSubscriberDisconnect covers the streaming satellite: a client
// that reads part of the stream and vanishes kills only its own stream — the
// job runs to completion and a later subscriber replays everything.
func TestStreamSubscriberDisconnect(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, ts := newTestServer(t, Config{Logf: t.Logf})
	m, p := recoveryWorkload(t)
	wantNamed, _ := minedReference(t, m, p)
	disarmDelay := faultinject.Arm("core.mine.subtree", faultinject.Spec{Delay: 15 * time.Millisecond})
	defer disarmDelay()

	id := uploadMatrix(t, ts, m, "streamy")
	v := submitJob(t, ts, submitRequest{Dataset: id, Params: p, Workers: 4})
	waitClusters(t, ts, v.ID, 5)

	// Slow subscriber: read a handful of lines, then slam the connection.
	resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 3 && sc.Scan(); i++ {
		time.Sleep(10 * time.Millisecond) // simulate a slow reader
	}
	resp.Body.Close() // disconnect mid-stream

	// The job is unharmed and finishes with the full deterministic output.
	fin := waitTerminal(t, ts, v.ID)
	if fin.Status != StatusDone {
		t.Fatalf("job ended %s after a subscriber vanished", fin.Status)
	}
	streamed, summary := streamClusters(t, ts, v.ID)
	if !reflect.DeepEqual(streamed, wantNamed) {
		t.Fatal("replay after disconnect diverges")
	}
	if summary.Clusters != len(wantNamed) {
		t.Fatalf("summary counts %d clusters, want %d", summary.Clusters, len(wantNamed))
	}
}

// TestStreamPanicContained: a panic inside the stream write path (injected
// at the encoder site) cancels only that subscriber; the job and the server
// survive, and the panic is metered.
func TestStreamPanicContained(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, ts := newTestServer(t, Config{Logf: t.Logf})
	m, p := recoveryWorkload(t)
	wantNamed, _ := minedReference(t, m, p)
	id := uploadMatrix(t, ts, m, "streampanic")
	v := submitJob(t, ts, submitRequest{Dataset: id, Params: p})
	if fin := waitTerminal(t, ts, v.ID); fin.Status != StatusDone {
		t.Fatalf("job ended %s", fin.Status)
	}

	disarm := faultinject.Arm("stream.write", faultinject.Spec{Panic: "encoder exploded", After: 5, Times: 1})
	resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	got, readErr := countNDJSONLines(resp.Body)
	resp.Body.Close()
	disarm()
	if readErr == nil && got > len(wantNamed) {
		t.Fatalf("read %d lines from a panicked stream of %d clusters", got, len(wantNamed))
	}
	if fired := faultinject.Fired("stream.write"); fired != 1 {
		t.Fatalf("stream fault fired %d times", fired)
	}
	if panics := metricValue(t, ts, "regserver_panics_recovered_total"); panics != 1 {
		t.Fatalf("panics_recovered %d, want 1", panics)
	}
	// The same stream replays fully once the fault is gone.
	streamed, _ := streamClusters(t, ts, v.ID)
	if !reflect.DeepEqual(streamed, wantNamed) {
		t.Fatal("post-panic replay diverges")
	}
}

// countNDJSONLines drains a reader, counting lines; the read error (if any)
// is returned rather than fatal — a mid-stream panic may cut the body off.
func countNDJSONLines(r interface{ Read([]byte) (int, error) }) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	n := 0
	for sc.Scan() {
		n++
	}
	return n, sc.Err()
}

// TestCloseStopsJobsBeforeJournal: Close without a prior Shutdown must stop
// every job before it closes the journal. The job's result write is delayed,
// so when the job is visibly done its durable writes are still pending;
// Close must wait for them, and nothing may reach the journal afterwards.
func TestCloseStopsJobsBeforeJournal(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	var (
		logMu sync.Mutex
		logs  []string
	)
	dir := t.TempDir()
	srv, ts := openTestServer(t, Config{DataDir: dir, Logf: func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}})
	id := uploadMatrix(t, ts, paperdata.RunningExample(), "closing")
	const delay = 300 * time.Millisecond
	faultinject.Arm("persist.result", faultinject.Spec{Delay: delay, After: math.MaxInt32})
	j := submitJob(t, ts, submitRequest{Dataset: id, Params: core.Params{MinG: 3, MinC: 5, Gamma: 0.15, Epsilon: 0.1}})
	if v := waitTerminal(t, ts, j.ID); v.Status != StatusDone {
		t.Fatalf("job ended %s: %s", v.Status, v.Error)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The done record follows the delayed result write, so finding it
	// proves Close waited for the settlement.
	journal := filepath.Join(dir, journalFileName)
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	settled := false
	for _, line := range strings.Split(string(before), "\n") {
		settled = settled || strings.Contains(line, `"type":"done"`) && strings.Contains(line, `"job":"`+j.ID+`"`)
	}
	if !settled {
		t.Fatalf("journal lacks the job's terminal record at Close:\n%s", before)
	}
	time.Sleep(delay)
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("journal changed after Close returned:\n%s", after[len(before):])
	}
	logMu.Lock()
	defer logMu.Unlock()
	for _, l := range logs {
		if strings.Contains(l, "journal") {
			t.Fatalf("journal write failed after Close: %s", l)
		}
	}
}

// TestV1CheckpointRestartsFromScratch: a journal written before checkpoints
// carried per-subtree Stats holds version-1 snapshots, whose one aggregate
// prefix cannot seed them. Resume refuses such a snapshot, so the job mines
// again from scratch: it settles byte-identical to a cold mine, and with the
// per-subtree Stats a child dataset's job splices from.
func TestV1CheckpointRestartsFromScratch(t *testing.T) {
	dir := t.TempDir()
	m, p := incrParentMatrix(), incrParams()
	cold, err := core.Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	wantNamed := make([]report.NamedCluster, len(cold.Clusters))
	for i, b := range cold.Clusters {
		wantNamed[i] = report.Named(m, b)
	}
	srvA, tsA := openTestServer(t, Config{DataDir: dir})
	id := uploadMatrix(t, tsA, m, "v1")
	tsA.Close()
	srvA.Close()

	const job = "job-000001"
	submit, err := json.Marshal(journalRecord{Type: recSubmit, Job: job, Seq: 1, Dataset: id, Params: &p, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The version-1 record of a snapshot after two subtrees, as older
	// servers wrote it: an aggregate prefix and the chain last delivered.
	prefix := cold.Subtrees[0]
	prefix.Add(cold.Subtrees[1])
	v1, err := json.Marshal(map[string]any{"type": recCheckpoint, "job": job,
		"ckpt":         map[string]any{"v": 1, "next_cond": 2, "skip_clusters": 0, "prefix": prefix, "last_chain": cold.Clusters[0].Chain},
		"new_clusters": wantNamed[:prefix.Clusters]})
	if err != nil {
		t.Fatal(err)
	}
	writeJournalLines(t, dir, string(submit), string(v1))

	var lc logCapture
	srvB, tsB := openTestServer(t, Config{DataDir: dir, Logf: lc.logf})
	fin := waitTerminal(t, tsB, job)
	if fin.Status != StatusDone || !fin.Recovered {
		t.Fatalf("recovered job %+v", fin)
	}
	if !lc.contains("checkpoint unusable (core: checkpoint version 1, want 2); restarting from scratch") {
		t.Fatalf("version-1 checkpoint not refused: %v", lc.snapshot())
	}
	streamed, _ := streamClusters(t, tsB, job)
	if !reflect.DeepEqual(streamed, wantNamed) || fin.Stats == nil || *fin.Stats != cold.Stats {
		t.Fatalf("re-mined job (%+v, %+v) differs from a cold mine (%+v, %+v)", streamed, fin.Stats, wantNamed, cold.Stats)
	}
	res, ok := srvB.cache.get(cacheKey(id, p))
	if !ok || !reflect.DeepEqual(res.subtrees, cold.Subtrees) {
		t.Fatalf("settled result carries per-subtree stats %+v, want %+v", res.subtrees, cold.Subtrees)
	}
}

// TestReplayIgnoresInterruptedSnapshot: older servers appended an
// interrupted record at shutdown carrying the job's in-memory snapshot,
// which can cover clusters whose checkpoint append failed. Replay skips the
// record, so the job resumes from its last checkpoint record with the
// clusters that record journaled, instead of finding the snapshot ahead of
// the journal and restarting from scratch.
func TestReplayIgnoresInterruptedSnapshot(t *testing.T) {
	dir := t.TempDir()
	m, p := recoveryWorkload(t)
	wantNamed, wantStats := minedReference(t, m, p)
	var snaps []core.Checkpoint
	if _, err := core.MineWith(context.Background(), m, p, core.Options{Workers: 2, Visit: func(*core.Bicluster) bool { return true },
		Checkpoint: core.CheckpointConfig{EveryClusters: 1, OnCheckpoint: func(ck core.Checkpoint) { snaps = append(snaps, ck) }}}); err != nil {
		t.Fatal(err)
	}
	at := func(delivered int) *core.Checkpoint {
		for i := range snaps {
			if snaps[i].Delivered() == delivered {
				return &snaps[i]
			}
		}
		t.Fatalf("no snapshot at %d clusters", delivered)
		return nil
	}
	srvA, tsA := openTestServer(t, Config{DataDir: dir})
	id := uploadMatrix(t, tsA, m, "interrupted")
	tsA.Close()
	srvA.Close()

	const job = "job-000001"
	var lines []string
	for _, rec := range []journalRecord{
		{Type: recSubmit, Job: job, Seq: 1, Dataset: id, Params: &p, Workers: 2},
		checkpointRecord(job, at(2), wantNamed[:2], at(2).Subtrees),
		{Type: recInterrupted, Job: job, Ckpt: at(3)},
	} {
		raw, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(raw))
	}
	writeJournalLines(t, dir, lines...)

	var lc logCapture
	_, tsB := openTestServer(t, Config{DataDir: dir, Logf: lc.logf})
	fin := waitTerminal(t, tsB, job)
	if !lc.contains("resuming job " + job + " from checkpoint (2 clusters already delivered)") {
		t.Fatalf("job did not resume with its 2 journaled clusters: %v", lc.snapshot())
	}
	if fin.Status != StatusDone || fin.Stats == nil || *fin.Stats != wantStats {
		t.Fatalf("resumed job %+v, want done with stats %+v", fin, wantStats)
	}
	if streamed, _ := streamClusters(t, tsB, job); !reflect.DeepEqual(streamed, wantNamed) {
		t.Fatal("resumed result diverges from the uninterrupted run")
	}
}
