package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/faultinject"
	"regcluster/internal/matrix"
	"regcluster/internal/report"
)

// incrParentMatrix is a handcrafted parent whose dirty set under
// incrDeltaMatrix is known exactly: condition values per gene are
// (0, 2, 3, 0) and the appended condition sits at 0.9, so with absolute γ=2
// (regulation is strict: |Δ| > γ) only c2 (|0.9-3| > 2) and the appended c4
// root dirty subtrees while c0/c1/c3 splice from the parent result.
func incrParentMatrix() *matrix.Matrix {
	m := matrix.NewWithNames(
		[]string{"g0", "g1", "g2"},
		[]string{"c0", "c1", "c2", "c3"})
	rows := [][]float64{
		{0, 2, 3, 0},
		{0, 2, 3, 0},
		{0.5, 2.5, 3.5, 0.5}, // shifted copy: a shifting-pattern co-member
	}
	for i, row := range rows {
		copy(m.Row(i), row)
	}
	return m
}

func incrDeltaMatrix() *matrix.Matrix {
	d := matrix.NewWithNames([]string{"g0", "g1", "g2"}, []string{"c4"})
	d.Set(0, 0, 0.9)
	d.Set(1, 0, 0.9)
	d.Set(2, 0, 1.4)
	return d
}

func incrParams() core.Params {
	return core.Params{MinG: 2, MinC: 2, Gamma: 2, AbsoluteGamma: true, Epsilon: 1}
}

// appendDeltaHTTP posts a delta TSV to /datasets/{id}/append and returns the
// decoded dataset view plus the HTTP status.
func appendDeltaHTTP(t *testing.T, ts *httptest.Server, parentID, query string, delta *matrix.Matrix) (datasetView, int) {
	t.Helper()
	var buf bytes.Buffer
	if err := delta.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/datasets/"+parentID+"/append"+query, "text/tab-separated-values", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v datasetView
	json.NewDecoder(resp.Body).Decode(&v)
	return v, resp.StatusCode
}

// TestAppendDeltaEndpoint covers the upload surface: a conditions append
// creates a new content-addressed version with lineage recorded, re-appending
// the same delta converges on it, and the error paths answer with the right
// statuses.
func TestAppendDeltaEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	parent := incrParentMatrix()
	parentID := uploadMatrix(t, ts, parent, "parent")

	child, status := appendDeltaHTTP(t, ts, parentID, "?name=grown", incrDeltaMatrix())
	if status != http.StatusCreated {
		t.Fatalf("append status %d, want 201", status)
	}
	if child.ID == parentID {
		t.Fatal("append returned the parent dataset")
	}
	if child.Genes != 3 || child.Conditions != 5 {
		t.Fatalf("child dims %dx%d, want 3x5", child.Genes, child.Conditions)
	}
	want := &DeltaInfo{Parent: parentID, Axis: DeltaAxisConditions, OldConds: 4, OldGenes: 3}
	if !reflect.DeepEqual(child.Delta, want) {
		t.Fatalf("child lineage %+v, want %+v", child.Delta, want)
	}
	if got := metricValue(t, ts, "regserver_dataset_appends_total"); got != 1 {
		t.Fatalf("appends metric %d, want 1", got)
	}

	// Re-appending the identical delta converges on the same version.
	again, status := appendDeltaHTTP(t, ts, parentID, "", incrDeltaMatrix())
	if status != http.StatusOK || again.ID != child.ID {
		t.Fatalf("re-append: status %d id %s, want 200 %s", status, again.ID, child.ID)
	}
	if got := metricValue(t, ts, "regserver_dataset_appends_total"); got != 1 {
		t.Fatalf("appends metric after re-append %d, want 1", got)
	}

	// The grown matrix is content-addressed exactly like a direct upload.
	grown, err := matrix.AppendConditions(parent, incrDeltaMatrix())
	if err != nil {
		t.Fatal(err)
	}
	if direct := uploadMatrix(t, ts, grown, "direct"); direct != child.ID {
		t.Fatalf("direct upload of the grown matrix got id %s, want %s", direct, child.ID)
	}

	// A gene-axis append records the other lineage kind.
	gdelta := matrix.NewWithNames([]string{"g9"}, []string{"c0", "c1", "c2", "c3"})
	gchild, status := appendDeltaHTTP(t, ts, parentID, "?axis=genes", gdelta)
	if status != http.StatusCreated {
		t.Fatalf("gene append status %d", status)
	}
	if gchild.Delta == nil || gchild.Delta.Axis != DeltaAxisGenes || gchild.Delta.OldGenes != 3 {
		t.Fatalf("gene append lineage %+v", gchild.Delta)
	}

	// Error paths: unknown parent, unknown axis, malformed delta.
	if _, status := appendDeltaHTTP(t, ts, "no-such-dataset", "", incrDeltaMatrix()); status != http.StatusNotFound {
		t.Fatalf("unknown parent: status %d, want 404", status)
	}
	if _, status := appendDeltaHTTP(t, ts, parentID, "?axis=sideways", incrDeltaMatrix()); status != http.StatusBadRequest {
		t.Fatalf("unknown axis: status %d, want 400", status)
	}
	bad := matrix.NewWithNames([]string{"g0", "g1"}, []string{"c9"}) // wrong gene axis
	if _, status := appendDeltaHTTP(t, ts, parentID, "", bad); status != http.StatusBadRequest {
		t.Fatalf("mismatched delta: status %d, want 400", status)
	}
}

// TestIncrementalJobEndToEnd drives the whole reuse pipeline over HTTP: mine
// the parent, append a delta, re-mine under identical params — the job must
// take the incremental path (models repaired, clean subtrees spliced) and its
// cluster stream plus Stats must be byte-identical to a cold mine of the
// grown matrix. Then the diff endpoint summarizes the two results. It runs
// on a single-mode server and on two coordinator-mode ones: one mining on a
// local worker, one whose dirty subtrees only remote workers can mine.
func TestIncrementalJobEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mode   string
		local  int // Config.DistLocalWorkers
		remote int // dist workers joining over HTTP
	}{
		{"single", "single", 0, 0},
		{"coordinator_local_worker", "coordinator", 1, 0},
		{"coordinator_remote_workers", "coordinator", -1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Mode: tc.mode, DistLocalWorkers: tc.local, LeaseTTL: 500 * time.Millisecond, Logf: t.Logf})
			if tc.remote > 0 {
				startDistWorkers(t, ts, tc.remote)
			}
			p := incrParams()
			parent := incrParentMatrix()
			parentID := uploadMatrix(t, ts, parent, "parent")

			pj := submitJob(t, ts, submitRequest{Dataset: parentID, Params: p, Workers: 2})
			if v := waitTerminal(t, ts, pj.ID); v.Status != StatusDone {
				t.Fatalf("parent job ended %s: %s", v.Status, v.Error)
			}
			parentClusters, _ := streamClusters(t, ts, pj.ID)
			if len(parentClusters) == 0 {
				t.Fatal("parent mine found no clusters; the fixture is supposed to produce some")
			}

			child, status := appendDeltaHTTP(t, ts, parentID, "", incrDeltaMatrix())
			if status != http.StatusCreated {
				t.Fatalf("append status %d", status)
			}
			cj := submitJob(t, ts, submitRequest{Dataset: child.ID, Params: p, Workers: 2})
			cv := waitTerminal(t, ts, cj.ID)
			if cv.Status != StatusDone {
				t.Fatalf("child job ended %s: %s", cv.Status, cv.Error)
			}

			if cv.Incremental == nil {
				t.Fatal("child job carries no incremental info; the reuse path never ran")
			}
			if !cv.Incremental.Incremental {
				t.Fatalf("child job fell back to a cold mine: %q", cv.Incremental.Fallback)
			}
			// Dirty set under the fixture: c2 and the appended c4.
			if cv.Incremental.SubtreesReused != 3 || cv.Incremental.SubtreesMined != 2 {
				t.Fatalf("subtrees reused/mined = %d/%d, want 3/2",
					cv.Incremental.SubtreesReused, cv.Incremental.SubtreesMined)
			}

			// Byte-identity: the streamed clusters and settled Stats must equal a
			// cold mine of the grown matrix.
			grown, err := matrix.AppendConditions(parent, incrDeltaMatrix())
			if err != nil {
				t.Fatal(err)
			}
			cold, err := core.MineWith(context.Background(), grown, p, core.Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			got, _ := streamClusters(t, ts, cj.ID)
			wantClusters := make([]report.NamedCluster, len(cold.Clusters))
			for i, b := range cold.Clusters {
				wantClusters[i] = report.Named(grown, b)
			}
			if !reflect.DeepEqual(got, wantClusters) {
				t.Fatalf("incremental cluster stream differs from cold mine:\n got %+v\nwant %+v", got, wantClusters)
			}
			if cv.Stats == nil || *cv.Stats != cold.Stats {
				t.Fatalf("incremental stats %+v differ from cold %+v", cv.Stats, cold.Stats)
			}

			// Metrics: one append, one incremental mine, per-gene repairs, subtree
			// counters matching the job view.
			for name, want := range map[string]int64{
				"regserver_dataset_appends_total":             1,
				"regserver_incremental_mines_total":           1,
				"regserver_incremental_fallbacks_total":       0,
				"regserver_incremental_subtrees_reused_total": 3,
				"regserver_incremental_subtrees_mined_total":  2,
				"regserver_model_repairs_total":               3, // one per gene
			} {
				if got := metricValue(t, ts, name); got != want {
					t.Fatalf("metric %s = %d, want %d", name, got, want)
				}
			}

			// Diff surface: child vs parent under the same params.
			resp, err := http.Get(ts.URL + "/datasets/" + child.ID + "/diff/" + parentID)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("diff status %d", resp.StatusCode)
			}
			var diff DiffDocument
			if err := json.NewDecoder(resp.Body).Decode(&diff); err != nil {
				t.Fatal(err)
			}
			if diff.Schema != DiffSchemaID {
				t.Fatalf("diff schema %q", diff.Schema)
			}
			if diff.Dataset != child.ID || diff.Parent != parentID || diff.Job != cj.ID {
				t.Fatalf("diff identity %s/%s job %s", diff.Dataset, diff.Parent, diff.Job)
			}
			// The diff must account for every cluster on both sides exactly once.
			if n := diff.Unchanged + len(diff.Grown) + len(diff.Added); n != len(got) {
				t.Fatalf("diff covers %d child clusters, stream has %d", n, len(got))
			}
			if n := diff.Unchanged + len(diff.Grown) + len(diff.Removed); n != len(parentClusters) {
				t.Fatalf("diff covers %d parent clusters, parent has %d", n, len(parentClusters))
			}
			for _, g := range diff.Grown {
				if !reflect.DeepEqual(g.Before.Chain, g.After.Chain) || g.Before.Direction != g.After.Direction {
					t.Fatalf("grown entry pairs different chains: %+v", g)
				}
				if reflect.DeepEqual(g.Before.Members, g.After.Members) {
					t.Fatalf("grown entry with identical members: %+v", g)
				}
			}

		})
	}
}

// TestSettleOrdersPublishBeforeFlip: a job's stream ends once the job is
// terminal, and by then everything settle keeps in memory is published, even
// while the durable writes lag behind (persist.result delayed): a diff sent
// right after the summary line answers 200, and the tenant's usage already
// counts the job.
func TestSettleOrdersPublishBeforeFlip(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	srv, ts := openTestServer(t, Config{DataDir: t.TempDir(), Logf: t.Logf})
	p := incrParams()
	parentID := uploadMatrix(t, ts, incrParentMatrix(), "parent")
	pj := submitJob(t, ts, submitRequest{Dataset: parentID, Params: p})
	if v := waitTerminal(t, ts, pj.ID); v.Status != StatusDone {
		t.Fatalf("parent job ended %s: %s", v.Status, v.Error)
	}
	child, status := appendDeltaHTTP(t, ts, parentID, "", incrDeltaMatrix())
	if status != http.StatusCreated {
		t.Fatalf("append status %d", status)
	}

	// A pass-through delay on every result write: the fault is never due.
	faultinject.Arm("persist.result", faultinject.Spec{Delay: 200 * time.Millisecond, After: math.MaxInt32})
	cj := submitJob(t, ts, submitRequest{Dataset: child.ID, Params: p})
	if _, summary := streamClusters(t, ts, cj.ID); summary.Status != StatusDone {
		t.Fatalf("child stream summary %+v", summary)
	}
	resp, err := http.Get(ts.URL + "/datasets/" + child.ID + "/diff/" + parentID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diff right after the stream ended: status %d", resp.StatusCode)
	}
	u, _ := getTenantUsage(t, ts, AnonymousTenant)
	if u.Usage.Completed != 2 {
		t.Fatalf("usage right after the stream ended counts %d completed jobs, want 2", u.Usage.Completed)
	}
	// Let the delayed durable writes finish before the server closes.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDiffEndpointErrors pins the 404 surface of the diff endpoint.
func TestDiffEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	parentID := uploadMatrix(t, ts, incrParentMatrix(), "parent")
	child, _ := appendDeltaHTTP(t, ts, parentID, "", incrDeltaMatrix())

	get := func(child, parent string) int {
		resp, err := http.Get(ts.URL + "/datasets/" + child + "/diff/" + parent)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if s := get("nope", parentID); s != http.StatusNotFound {
		t.Fatalf("unknown child: %d", s)
	}
	if s := get(child.ID, "nope"); s != http.StatusNotFound {
		t.Fatalf("unknown parent: %d", s)
	}
	// Both datasets exist but the child was never mined.
	if s := get(child.ID, parentID); s != http.StatusNotFound {
		t.Fatalf("unmined child: %d", s)
	}
	// Child mined, parent not mined under those params.
	cj := submitJob(t, ts, submitRequest{Dataset: child.ID, Params: incrParams()})
	waitTerminal(t, ts, cj.ID)
	if s := get(child.ID, parentID); s != http.StatusNotFound {
		t.Fatalf("unmined parent: %d", s)
	}
}

// TestDeltaLineageSurvivesRestart proves the recDelta journal path end to
// end: an appended dataset's lineage is journaled, restored onto the
// reloaded dataset at boot, kept (first, in child-ID order) by compaction,
// and compacted away once the child dataset is deleted.
func TestDeltaLineageSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	parentID := uploadMatrix(t, ts, incrParentMatrix(), "parent")
	child, status := appendDeltaHTTP(t, ts, parentID, "", incrDeltaMatrix())
	if status != http.StatusCreated {
		t.Fatalf("append status %d", status)
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ds, ok := s2.registry.get(child.ID)
	if !ok {
		t.Fatal("child dataset not restored")
	}
	want := &DeltaInfo{Parent: parentID, Axis: DeltaAxisConditions, OldConds: 4, OldGenes: 3}
	if !reflect.DeepEqual(ds.Delta, want) {
		t.Fatalf("restored lineage %+v, want %+v", ds.Delta, want)
	}
	// Compaction kept exactly one delta record, ahead of any job records.
	recs := journalRecords(t, dir)
	if len(recs) == 0 || recs[0].Type != recDelta || recs[0].Dataset != child.ID {
		t.Fatalf("compacted journal does not lead with the delta record: %+v", recs)
	}
	if countType(recs, recDelta) != 1 {
		t.Fatalf("compacted journal holds %d delta records, want 1", countType(recs, recDelta))
	}

	// Deleting the child drops its lineage at the next compaction.
	ts2 := httptest.NewServer(s2.Handler())
	req, _ := http.NewRequest(http.MethodDelete, ts2.URL+"/datasets/"+child.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete child: %v status %v", err, resp.StatusCode)
	}
	ts2.Close()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if n := countType(journalRecords(t, dir), recDelta); n != 0 {
		t.Fatalf("delta record for a deleted dataset survived compaction (%d left)", n)
	}
}

// TestRestoredParentResultSeedsSplice: per-subtree Stats persist with a
// settled result, so a child job submitted after a reboot splices from the
// parent result restored from disk — 3 subtrees reused, 2 mined — and still
// equals a cold mine. A result file written before they were persisted
// restores without them, and the child mines cold, naming the fallback. A
// parent job that crashed past condition 0 and resumed from its journaled
// checkpoint after the reboot seeds the splice like a cold one.
func TestRestoredParentResultSeedsSplice(t *testing.T) {
	p := incrParams()
	grown, err := matrix.AppendConditions(incrParentMatrix(), incrDeltaMatrix())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := core.Mine(grown, p)
	if err != nil {
		t.Fatal(err)
	}
	wantClusters := make([]report.NamedCluster, len(cold.Clusters))
	for i, b := range cold.Clusters {
		wantClusters[i] = report.Named(grown, b)
	}
	for _, tc := range []struct {
		name     string
		legacy   bool // strip the subtrees from the parent's result file
		resumed  bool // crash the parent job after its checkpoint at condition 2
		reused   int
		fallback string
	}{
		{"persisted_subtrees", false, false, 3, ""},
		{"legacy_result_file", true, false, 0, "parent result has no per-subtree stats"},
		{"resumed_parent", false, true, 3, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(Config{DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			parentID := uploadMatrix(t, ts, incrParentMatrix(), "parent")
			if tc.resumed {
				// The journal freezes after the submit record and the
				// checkpoints at conditions 1 and 2, and the result never
				// reaches disk: the state a SIGKILL there leaves.
				t.Cleanup(faultinject.Reset)
				faultinject.Arm("journal.append", faultinject.Spec{Err: errors.New("simulated crash"), After: 3})
				faultinject.Arm("persist.result", faultinject.Spec{Err: errors.New("simulated crash")})
			}
			parentJob := submitJob(t, ts, submitRequest{Dataset: parentID, Params: p, Workers: 2}).ID
			if v := waitTerminal(t, ts, parentJob); v.Status != StatusDone {
				t.Fatalf("parent job ended %s: %s", v.Status, v.Error)
			}
			faultinject.Reset()
			child, status := appendDeltaHTTP(t, ts, parentID, "", incrDeltaMatrix())
			if status != http.StatusCreated {
				t.Fatalf("append status %d", status)
			}
			ts.Close()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.legacy {
				path := s.store.resultPath(cacheKey(parentID, p))
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				var rf map[string]json.RawMessage
				if err := json.Unmarshal(raw, &rf); err != nil {
					t.Fatal(err)
				}
				if _, ok := rf["subtrees"]; !ok {
					t.Fatal("result file holds no subtrees to strip")
				}
				delete(rf, "subtrees")
				if raw, err = json.Marshal(rf); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			if tc.resumed {
				var last *core.Checkpoint
				for _, rec := range journalRecords(t, dir) {
					if rec.Type == recCheckpoint && rec.Job == parentJob {
						last = rec.Ckpt
					}
					if rec.Job == parentJob && rec.Type == recDone {
						t.Fatal("the parent job's done record reached the journal")
					}
				}
				if last == nil || last.NextCond != 2 {
					t.Fatalf("last journaled checkpoint %+v, want one at condition 2", last)
				}
			}

			var lc logCapture
			_, ts2 := openTestServer(t, Config{DataDir: dir, Logf: lc.logf})
			if tc.resumed {
				pv := waitTerminal(t, ts2, parentJob)
				if pv.Status != StatusDone || !pv.Recovered {
					t.Fatalf("resumed parent job %+v", pv)
				}
				if !lc.contains("resuming job " + parentJob + " from checkpoint (1 clusters already delivered)") {
					t.Fatalf("parent job did not resume from its checkpoint: %v", lc.snapshot())
				}
			}
			cv := waitTerminal(t, ts2, submitJob(t, ts2, submitRequest{Dataset: child.ID, Params: p, Workers: 2}).ID)
			if cv.Status != StatusDone {
				t.Fatalf("child job ended %s: %s", cv.Status, cv.Error)
			}
			info := cv.Incremental
			if info == nil {
				t.Fatal("child job carries no incremental info: the restored parent result was not offered")
			}
			if info.SubtreesReused != tc.reused || info.Fallback != tc.fallback ||
				(tc.reused > 0 && (!info.Incremental || info.SubtreesMined != 2)) {
				t.Fatalf("incremental info %+v, want %d reused and fallback %q", info, tc.reused, tc.fallback)
			}
			got, _ := streamClusters(t, ts2, cv.ID)
			if !reflect.DeepEqual(got, wantClusters) {
				t.Fatalf("child stream differs from a cold mine:\n got %+v\nwant %+v", got, wantClusters)
			}
			if cv.Stats == nil || *cv.Stats != cold.Stats {
				t.Fatalf("child stats %+v differ from cold %+v", cv.Stats, cold.Stats)
			}
		})
	}
}

func journalRecords(t *testing.T, dir string) []journalRecord {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, journalFileName))
	if err != nil {
		t.Fatal(err)
	}
	var out []journalRecord
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if line == "" {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

func countType(recs []journalRecord, typ string) int {
	n := 0
	for _, r := range recs {
		if r.Type == typ {
			n++
		}
	}
	return n
}

// TestReplayDeltaRecords pins the replay semantics of recDelta: last record
// per child wins, malformed records are skipped with a warning, job replay is
// undisturbed, and canonical compaction emits lineage first in child-ID
// order. A predating replayer sees the same lines through its default
// unknown-type branch — the final sub-test decodes a delta line into the
// pre-delta record shape to prove nothing in the encoding trips it.
func TestReplayDeltaRecords(t *testing.T) {
	var lc logCapture
	d1 := DeltaInfo{Parent: "p1", Axis: DeltaAxisConditions, OldConds: 4, OldGenes: 3}
	d2 := DeltaInfo{Parent: "p1", Axis: DeltaAxisConditions, OldConds: 5, OldGenes: 3}
	p := runningParams()
	recs := []journalRecord{
		{Type: recDelta, Dataset: "child-b", Delta: &d1},
		{Type: recSubmit, Job: "job-000001", Seq: 1, Dataset: "child-b", Params: &p},
		{Type: recDelta, Dataset: "child-a", Delta: &d1},
		{Type: recDelta}, // malformed: no dataset, no lineage
		{Type: recDelta, Dataset: "child-b", Delta: &d2}, // supersedes the first
		{Type: recDone, Job: "job-000001"},
	}
	jobs, _, deltas, _, _ := replayRecords(recs, lc.logf)
	if len(jobs) != 1 || jobs[0].terminal == nil {
		t.Fatalf("job replay disturbed by delta records: %+v", jobs)
	}
	if len(deltas) != 2 || !reflect.DeepEqual(deltas["child-b"], &d2) || !reflect.DeepEqual(deltas["child-a"], &d1) {
		t.Fatalf("replayed deltas %+v", deltas)
	}
	if !lc.contains("malformed delta record") {
		t.Fatalf("malformed delta not warned about: %v", lc.snapshot())
	}

	out := canonicalRecords(jobs, nil, deltas, nil)
	if len(out) != 4 || out[0].Type != recDelta || out[0].Dataset != "child-a" ||
		out[1].Type != recDelta || out[1].Dataset != "child-b" {
		t.Fatalf("canonical records %+v: lineage must lead in child-ID order", out)
	}

	// Forward compatibility: the serialized delta record decodes cleanly into
	// the pre-delta record shape (unknown JSON fields are ignored), where its
	// type matches no case and falls through to the skip branch replayRecords
	// uses for unknown types.
	raw, err := json.Marshal(journalRecord{Type: recDelta, Dataset: "child-a", Delta: &d1})
	if err != nil {
		t.Fatal(err)
	}
	var legacy struct {
		Type    string `json:"type"`
		Job     string `json:"job"`
		Dataset string `json:"dataset"`
	}
	if err := json.Unmarshal(raw, &legacy); err != nil {
		t.Fatalf("pre-delta readers cannot decode a delta line: %v", err)
	}
	if legacy.Type != "delta" || legacy.Job != "" {
		t.Fatalf("decoded legacy view %+v", legacy)
	}
}
