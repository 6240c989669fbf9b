package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"regcluster/internal/core"
	"regcluster/internal/paperdata"
	"regcluster/internal/report"
)

// logCapture collects Logf lines for assertions, safe for concurrent use.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCapture) logf(format string, args ...any) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
}

func (lc *logCapture) contains(substr string) bool {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	for _, l := range lc.lines {
		if strings.Contains(l, substr) {
			return true
		}
	}
	return false
}

func (lc *logCapture) snapshot() []string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return append([]string(nil), lc.lines...)
}

func writeJournalLines(t *testing.T, dir string, lines ...string) string {
	t.Helper()
	path := filepath.Join(dir, journalFileName)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func submitLine(t *testing.T, job string, seq int, dataset string) string {
	t.Helper()
	p := runningParams()
	raw, err := json.Marshal(journalRecord{Type: recSubmit, Job: job, Seq: seq, Dataset: dataset, Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestReplayTornFinalRecord simulates the torn write a crash mid-append
// leaves behind: the final, truncated line is dropped with a warning and
// every record before it replays.
func TestReplayTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	var lc logCapture
	path := writeJournalLines(t, dir,
		submitLine(t, "job-000001", 1, "ds1"),
		submitLine(t, "job-000002", 2, "ds1"),
		`{"type":"done","job":"job-00`) // torn mid-append
	recs := replayJournalFile(path, lc.logf)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
	if !lc.contains("torn final record") {
		t.Fatalf("torn record not warned about: %v", lc.lines)
	}
}

// TestReplayUnknownRecordType: a record type from a newer server is skipped
// with a warning; everything else still replays (forward compatibility).
func TestReplayUnknownRecordType(t *testing.T) {
	dir := t.TempDir()
	var lc logCapture
	path := writeJournalLines(t, dir,
		submitLine(t, "job-000001", 1, "ds1"),
		`{"type":"lease_renewed","job":"job-000001","holder":"node-7"}`,
		`{"type":"failed","job":"job-000001","error":"boom"}`)
	recs := replayJournalFile(path, lc.logf)
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	jobs, _, _, _, maxSeq := replayRecords(recs, lc.logf)
	if len(jobs) != 1 || maxSeq != 1 {
		t.Fatalf("replay state: %d jobs, seq %d", len(jobs), maxSeq)
	}
	if !lc.contains("unknown record type") {
		t.Fatalf("unknown type not warned about: %v", lc.lines)
	}
	if jobs[0].terminal == nil || jobs[0].terminal.Type != recFailed {
		t.Fatal("records after the unknown type were lost")
	}
}

// TestReplayMidFileCorruption: an undecodable record that is NOT the final
// line means real corruption; replay keeps the prefix and stops there.
func TestReplayMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	var lc logCapture
	path := writeJournalLines(t, dir,
		submitLine(t, "job-000001", 1, "ds1"),
		`%%% not json at all %%%`,
		submitLine(t, "job-000002", 2, "ds1"))
	recs := replayJournalFile(path, lc.logf)
	if len(recs) != 1 {
		t.Fatalf("replayed %d records, want 1 (prefix before corruption)", len(recs))
	}
	if !lc.contains("replay stops here") {
		t.Fatalf("corruption not warned about: %v", lc.lines)
	}
}

// namedClusters builds distinguishable NamedCluster stand-ins for replay
// tests; only the first chain entry matters to the assertions.
func namedClusters(tags ...string) []report.NamedCluster {
	out := make([]report.NamedCluster, len(tags))
	for i, tag := range tags {
		out[i] = report.NamedCluster{Chain: []string{tag}, Direction: report.DirectionRising}
	}
	return out
}

func clusterTags(cs []report.NamedCluster) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Chain[0]
	}
	return out
}

// TestReplayRecordsReconcilesOverlap: when a checkpoint append failed and a
// later one re-journaled the overlapping clusters, replay must not duplicate
// them — the snapshot watermark decides.
func TestReplayRecordsReconcilesOverlap(t *testing.T) {
	var lc logCapture
	p := runningParams()
	recs := []journalRecord{
		{Type: recSubmit, Job: "job-000001", Seq: 1, Dataset: "ds", Params: &p},
		{Type: recCheckpoint, Job: "job-000001",
			Ckpt:        &core.Checkpoint{Version: 1, NextCond: 1, SkipClusters: 2},
			NewClusters: namedClusters("a", "b")},
		// The next append failed; this one re-journals b and c.
		{Type: recCheckpoint, Job: "job-000001",
			Ckpt:        &core.Checkpoint{Version: 1, NextCond: 1, SkipClusters: 3},
			NewClusters: namedClusters("b", "c")},
	}
	jobs, _, _, _, _ := replayRecords(recs, lc.logf)
	if len(jobs) != 1 {
		t.Fatalf("%d jobs", len(jobs))
	}
	got := clusterTags(jobs[0].clusters)
	if strings.Join(got, ",") != "a,b,c" {
		t.Fatalf("reconciled clusters %v, want [a b c]", got)
	}
}

// TestBootCorruptDataDir: a data-dir full of garbage must degrade to a clean
// boot with logged warnings — never a refused start.
func TestBootCorruptDataDir(t *testing.T) {
	dir := t.TempDir()
	var lc logCapture
	// Garbage journal, garbage dataset, a truncated dataset file, stale tmp
	// litter.
	writeJournalLines(t, dir, `{"type":`, `garbage`)
	trunc := paperdata.RunningExample()
	full := trunc.AppendCanonical([]byte(datasetFormat + "{}\n"))
	for _, f := range []struct{ sub, name, body string }{
		{datasetsDirName, "deadbeef.tsv", "not\ta\tmatrix"},
		{datasetsDirName, trunc.Hash() + datasetExt, string(full[:len(full)/2])},
		{datasetsDirName, tmpPrefix + "123", "partial"},
		{resultsDirName, "badresult.json", "{corrupt"},
	} {
		if err := os.MkdirAll(filepath.Join(dir, f.sub), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.sub, f.name), []byte(f.body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(Config{DataDir: dir, Logf: lc.logf})
	if err != nil {
		t.Fatalf("corrupt data-dir refused to boot: %v", err)
	}
	defer s.Close()
	if n := s.registry.size(); n != 0 {
		t.Fatalf("%d datasets from garbage", n)
	}
	if n := s.cache.len(); n != 0 {
		t.Fatalf("%d cache entries from garbage", n)
	}
	if len(s.jobs.list()) != 0 {
		t.Fatal("jobs materialized from a corrupt journal")
	}
	if len(lc.lines) == 0 {
		t.Fatal("corruption swallowed silently; want logged warnings")
	}
	// The stale tmp file was swept.
	if _, err := os.Stat(filepath.Join(dir, datasetsDirName, tmpPrefix+"123")); !os.IsNotExist(err) {
		t.Fatal("stale tmp file survived boot")
	}
}

// TestBootEmptyAndFreshDataDir: an empty (or not-yet-existing) data-dir is a
// clean boot, and the directory layout is created.
func TestBootEmptyAndFreshDataDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "never-existed")
	var lc logCapture
	s, err := Open(Config{DataDir: dir, Logf: lc.logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, sub := range []string{datasetsDirName, resultsDirName} {
		if fi, err := os.Stat(filepath.Join(dir, sub)); err != nil || !fi.IsDir() {
			t.Fatalf("layout dir %s missing: %v", sub, err)
		}
	}
	if s.wal == nil {
		t.Fatal("durable server booted without a journal")
	}
}

// TestJournalCompaction: boot rewrites the replayed journal canonically —
// one submit plus one terminal or merged-checkpoint record per job — so the
// WAL does not grow without bound across restarts.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	var lc logCapture
	mk := func(rec journalRecord) string {
		raw, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	writeJournalLines(t, dir,
		submitLine(t, "job-000001", 1, "ds1"),
		mk(journalRecord{Type: recCheckpoint, Job: "job-000001",
			Ckpt: &core.Checkpoint{Version: 1, NextCond: 1, SkipClusters: 1}, NewClusters: namedClusters("a")}),
		mk(journalRecord{Type: recCheckpoint, Job: "job-000001",
			Ckpt: &core.Checkpoint{Version: 1, NextCond: 2, SkipClusters: 2}, NewClusters: namedClusters("b")}),
		mk(journalRecord{Type: recCancelled, Job: "job-000001"}),
		submitLine(t, "job-000002", 2, "ds2"))

	s, err := Open(Config{DataDir: dir, Logf: lc.logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	raw, err := os.ReadFile(filepath.Join(dir, journalFileName))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	// job-000001 compacts to submit+cancelled; job-000002's dataset is gone,
	// so it settles as failed at boot and appends its own terminal record.
	var types []string
	for _, l := range lines {
		var rec journalRecord
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("compacted journal line %q: %v", l, err)
		}
		types = append(types, rec.Type+":"+rec.Job)
	}
	want := []string{
		"submit:job-000001", "cancelled:job-000001",
		"submit:job-000002", "failed:job-000002",
	}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("compacted journal %v, want %v", types, want)
	}
	// Sequence numbering continues past the replayed jobs.
	s.jobs.mu.Lock()
	seq := s.jobs.seq
	s.jobs.mu.Unlock()
	if seq != 2 {
		t.Fatalf("restored seq %d, want 2", seq)
	}
}
