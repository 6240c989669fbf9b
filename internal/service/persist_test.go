package service

import (
	"bytes"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/matrix"
)

// The legacy fixture under testdata/legacy-datadir was written by a server
// that persisted datasets as <id>.tsv plus an <id>.json sidecar: a three-gene
// parent uploaded as "parent", a child grown from it by a one-condition
// append delta whose one missing cell was imputed ("child", recorded by a
// recDelta journal record), and one done job on the parent with its result
// file and journal records.
const (
	fixtureParent = "8010acd89424b8b0c03af2fed3f0e07776fe5e9327283a496dc9f915d5e09e8f"
	fixtureChild  = "1e28e522606a5dd52d331aa3e1140d26cce20d6e342a9e4cd32a8de3bc52804a"
	fixtureJob    = "job-000001"
)

// copyFixture copies testdata/<name> into a fresh directory: boot rewrites a
// data-dir, and the fixture must stay as it was written.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	src := filepath.Join("testdata", name)
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func datasetFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, datasetsDirName))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// checkFixtureRestored asserts what every boot of the fixture must restore:
// both dataset IDs with their metadata, the child's lineage, and the settled
// job, which a resubmission then finds in the result cache without mining.
func checkFixtureRestored(t *testing.T, s *Server) {
	t.Helper()
	parent, ok := s.registry.get(fixtureParent)
	if !ok {
		t.Fatalf("parent %s not restored", shortID(fixtureParent))
	}
	child, ok := s.registry.get(fixtureChild)
	if !ok {
		t.Fatalf("child %s not restored", shortID(fixtureChild))
	}
	if s.registry.size() != 2 {
		t.Fatalf("%d datasets restored, want 2", s.registry.size())
	}
	if parent.Name != "parent" || parent.ImputedCells != 0 || parent.Genes != 3 || parent.Conditions != 4 {
		t.Fatalf("parent restored as %+v", parent)
	}
	if child.Name != "child" || child.ImputedCells != 1 || child.Genes != 3 || child.Conditions != 5 {
		t.Fatalf("child restored as %+v", child)
	}
	if parent.UploadedAt.IsZero() || !parent.UploadedAt.Before(child.UploadedAt) {
		t.Fatalf("upload times %v, %v not restored", parent.UploadedAt, child.UploadedAt)
	}
	for _, ds := range []*Dataset{parent, child} {
		if got := ds.Matrix().Hash(); got != ds.ID {
			t.Fatalf("dataset %s holds a matrix hashing to %s", shortID(ds.ID), shortID(got))
		}
	}
	want := &DeltaInfo{Parent: fixtureParent, Axis: DeltaAxisConditions, OldConds: 4, OldGenes: 3}
	if !reflect.DeepEqual(child.Delta, want) {
		t.Fatalf("child lineage %+v, want %+v", child.Delta, want)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	settled := getJob(t, ts, fixtureJob)
	if settled.Status != StatusDone || settled.Clusters != 2 {
		t.Fatalf("settled job restored as %+v", settled)
	}
	wantClusters, _ := streamClusters(t, ts, fixtureJob)
	v := submitJob(t, ts, submitRequest{Dataset: fixtureParent, Params: incrParams(), Workers: 1})
	if !v.Cached {
		t.Fatal("resubmission of the settled job's params was not served from the cache")
	}
	fin := waitTerminal(t, ts, v.ID)
	if fin.Status != StatusDone || fin.Clusters != 2 {
		t.Fatalf("cached job view %+v", fin)
	}
	got, _ := streamClusters(t, ts, v.ID)
	if !reflect.DeepEqual(got, wantClusters) {
		t.Fatalf("cached stream %+v, want %+v", got, wantClusters)
	}
	if n := metricValue(t, ts, "regcluster_nodes_visited_total"); n != 0 {
		t.Fatalf("boot and cached resubmission mined %d nodes", n)
	}
	// The restored result is the one a cold mine of the restored matrix gives.
	res, err := core.Mine(parent.Matrix(), incrParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != len(got) || *fin.Stats != res.Stats {
		t.Fatalf("restored result (%d clusters, %+v) differs from a cold mine (%d, %+v)",
			len(got), *fin.Stats, len(res.Clusters), res.Stats)
	}
}

// TestLegacyDataDirBoots boots a data-dir written before datasets were stored
// as one canonical file: the same IDs, metadata and lineage come back, the
// cached result is served without mining, and each legacy pair is rewritten
// once as <id>.dataset, which the next boot reads instead.
func TestLegacyDataDirBoots(t *testing.T) {
	dir := copyFixture(t, "legacy-datadir")
	var lc logCapture
	s, err := Open(Config{DataDir: dir, Logf: lc.logf})
	if err != nil {
		t.Fatal(err)
	}
	checkFixtureRestored(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wantFiles := []string{fixtureChild + datasetExt, fixtureParent + datasetExt}
	if got := datasetFiles(t, dir); !reflect.DeepEqual(got, wantFiles) {
		t.Fatalf("datasets/ after the upgrade holds %v, want %v", got, wantFiles)
	}
	for _, id := range []string{fixtureParent, fixtureChild} {
		raw, err := os.ReadFile(filepath.Join(dir, datasetsDirName, id+datasetExt))
		if err != nil {
			t.Fatal(err)
		}
		_, canon, _ := bytes.Cut(bytes.TrimPrefix(raw, []byte(datasetFormat)), []byte{'\n'})
		if matrix.HashCanonical(canon) != id {
			t.Fatalf("upgraded file of %s does not hash to its name", shortID(id))
		}
	}

	// An upgrade a crash interrupted leaves a legacy pair beside the new
	// file; the next boot loads the new file and removes the pair.
	for _, ext := range []string{legacyTSVExt, legacyMetaExt} {
		name := fixtureParent + ext
		raw, err := os.ReadFile(filepath.Join("testdata", "legacy-datadir", datasetsDirName, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, datasetsDirName, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var lc2 logCapture
	s2, err := Open(Config{DataDir: dir, Logf: lc2.logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkFixtureRestored(t, s2)
	if got := datasetFiles(t, dir); !reflect.DeepEqual(got, wantFiles) {
		t.Fatalf("datasets/ after the second boot holds %v, want %v", got, wantFiles)
	}
	if lc2.contains("unusable") || lc2.contains("corrupt") {
		t.Fatalf("second boot warned about its datasets: %v", lc2.lines)
	}
}

// TestDatasetFileRoundTrip: a dataset written by saveDataset boots back with
// the same matrix and metadata, and damage anywhere in its matrix part keeps
// it out of the registry while damage to the metadata line only resets the
// metadata.
func TestDatasetFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var lc logCapture
	st, err := openStore(dir, lc.logf)
	if err != nil {
		t.Fatal(err)
	}
	m := incrParentMatrix()
	ds := newDataset(m, m.Hash(), "round trip", 2, time.Date(2024, 5, 6, 7, 8, 9, 0, time.UTC))
	if err := st.saveDataset(ds); err != nil {
		t.Fatal(err)
	}
	got := st.loadDatasets()
	if len(got) != 1 || got[0].ID != ds.ID || !got[0].Matrix().Equal(m) ||
		got[0].Name != ds.Name || got[0].ImputedCells != 2 || !got[0].UploadedAt.Equal(ds.UploadedAt) {
		t.Fatalf("reloaded %+v, want %+v", got, ds)
	}

	path := st.datasetPath(ds.ID, datasetExt)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-3] ^= 1 // a cell bit
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := st.loadDatasets(); len(got) != 0 {
		t.Fatal("a dataset file with a flipped cell bit loaded")
	}

	damaged := bytes.Replace(good, []byte(`{"name"`), []byte(`{garbage`), 1)
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	got = st.loadDatasets()
	if len(got) != 1 || got[0].ID != ds.ID || got[0].Name != "dataset-"+shortID(ds.ID) {
		t.Fatalf("metadata damage: reloaded %+v", got)
	}
	if !lc.contains("metadata corrupt") {
		t.Fatalf("metadata damage not warned about: %v", lc.lines)
	}
}
