package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/faultinject"
	"regcluster/internal/matrix"
	"regcluster/internal/report"
)

// Durable layout under Config.DataDir:
//
//	datasets/<id>.dataset  one registered matrix plus its upload metadata
//	results/<key>.json     one settled result per cache key (clusters + stats)
//	journal.wal            append-only job journal (see journal.go)
//
// A dataset file holds three parts, written with one atomic write:
//
//	regcluster.dataset/v1\n                          format line
//	{"name":…,"uploaded_at":…,"imputed_cells":…}\n  metadata, one JSON line
//	canonical matrix encoding                        matrix.AppendCanonical
//
// The canonical part is exactly the byte stream matrix.Hash digests, so the
// file is self-verifying against its content-addressed name: boot runs one
// SHA-256 over that part and decodes it (no TSV parse, no second hash) only
// when the digest is <id>. Data-dirs written before this format hold each
// dataset as datasets/<id>.tsv (WriteTSV) plus a datasets/<id>.json metadata
// sidecar. Boot still reads such a pair: it parses the TSV, checks that the
// matrix hashes to <id>, rewrites the dataset as <id>.dataset and removes the
// pair, so every legacy dataset is upgraded once and keeps its ID.
//
// Every file is written atomically: the bytes go to a tmp file in the target
// directory, are fsynced, and the tmp is renamed over the destination (with a
// directory fsync), so a crash can never leave a half-written dataset or
// result — only a stale tmp file, which boot sweeps away.
const (
	datasetsDirName = "datasets"
	resultsDirName  = "results"
	journalFileName = "journal.wal"
	tmpPrefix       = ".tmp-"
)

// store is the durable side of one Server: dataset and result files under a
// data directory. All methods are safe for concurrent use (atomic writes
// never collide: tmp names are unique and renames are atomic).
type store struct {
	dir  string
	logf func(format string, args ...any)
}

func openStore(dir string, logf func(string, ...any)) (*store, error) {
	for _, d := range []string{dir, filepath.Join(dir, datasetsDirName), filepath.Join(dir, resultsDirName)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("service: create data dir: %w", err)
		}
	}
	s := &store{dir: dir, logf: logf}
	s.sweepTmp()
	return s, nil
}

func (s *store) journalPath() string { return filepath.Join(s.dir, journalFileName) }

// sweepTmp removes tmp files a crash may have left behind mid-write.
func (s *store) sweepTmp() {
	for _, sub := range []string{s.dir, filepath.Join(s.dir, datasetsDirName), filepath.Join(s.dir, resultsDirName)} {
		entries, err := os.ReadDir(sub)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), tmpPrefix) {
				os.Remove(filepath.Join(sub, e.Name()))
			}
		}
	}
}

// writeFileAtomic durably replaces path with data: tmp file in the same
// directory, write, fsync, rename, fsync directory.
func writeFileAtomic(path string, data []byte) error {
	if err := faultinject.Hook("persist.write"); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tmpPrefix+"*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a preceding rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// datasetMeta is the metadata line of a dataset file (and the whole of a
// legacy <id>.json sidecar).
type datasetMeta struct {
	Name         string    `json:"name"`
	UploadedAt   time.Time `json:"uploaded_at"`
	ImputedCells int       `json:"imputed_cells"`
}

// datasetFormat opens every dataset file.
const datasetFormat = "regcluster.dataset/v1\n"

// Dataset file extensions: the current format, and the legacy TSV + JSON
// pair boot upgrades.
const (
	datasetExt    = ".dataset"
	legacyTSVExt  = ".tsv"
	legacyMetaExt = ".json"
)

func (s *store) datasetPath(id, ext string) string {
	return filepath.Join(s.dir, datasetsDirName, id+ext)
}

// saveDataset persists a registered dataset as one file: format line,
// metadata, canonical matrix encoding.
func (s *store) saveDataset(ds *Dataset) error {
	if err := faultinject.Hook("persist.dataset"); err != nil {
		return err
	}
	meta, err := json.Marshal(datasetMeta{Name: ds.Name, UploadedAt: ds.UploadedAt, ImputedCells: ds.ImputedCells})
	if err != nil {
		return err
	}
	buf := append(append([]byte(datasetFormat), meta...), '\n')
	return writeFileAtomic(s.datasetPath(ds.ID, datasetExt), ds.Matrix().AppendCanonical(buf))
}

func (s *store) deleteDataset(id string) {
	os.Remove(s.datasetPath(id, datasetExt))
	s.deleteLegacyDataset(id)
}

func (s *store) deleteLegacyDataset(id string) {
	os.Remove(s.datasetPath(id, legacyTSVExt))
	os.Remove(s.datasetPath(id, legacyMetaExt))
}

// decodeDataset verifies the contents of datasets/<id>.dataset against id
// and rebuilds the dataset. Only the metadata line may be damaged without
// losing the dataset: its fields then take their defaults, as a missing
// legacy sidecar's do.
func (s *store) decodeDataset(id string, raw []byte) (*Dataset, error) {
	rest, ok := bytes.CutPrefix(raw, []byte(datasetFormat))
	if !ok {
		return nil, fmt.Errorf("not a %q file", strings.TrimSpace(datasetFormat))
	}
	line, canon, ok := bytes.Cut(rest, []byte{'\n'})
	if !ok {
		return nil, fmt.Errorf("truncated metadata")
	}
	if got := matrix.HashCanonical(canon); got != id {
		return nil, fmt.Errorf("matrix hashes to %s", shortID(got))
	}
	m, err := matrix.DecodeCanonical(canon)
	if err != nil {
		return nil, err
	}
	meta := s.datasetMeta(id, line)
	return newDataset(m, id, meta.Name, meta.ImputedCells, meta.UploadedAt), nil
}

// datasetMeta decodes a metadata line, falling back to defaults (with a
// warning) when it is missing or corrupt.
func (s *store) datasetMeta(id string, raw []byte) datasetMeta {
	meta := datasetMeta{Name: "dataset-" + shortID(id), UploadedAt: time.Now().UTC()}
	if raw != nil {
		if err := json.Unmarshal(raw, &meta); err != nil {
			s.logf("service: dataset %s metadata corrupt (%v); using defaults", id, err)
		}
	}
	return meta
}

// loadLegacyDataset reads a dataset in the TSV + JSON form, verifying the
// parsed matrix against id.
func (s *store) loadLegacyDataset(id string) (*Dataset, error) {
	m, err := matrix.ReadTSVFile(s.datasetPath(id, legacyTSVExt))
	if err != nil {
		return nil, err
	}
	m.FillNaN() // persisted matrices are already imputed; normalize anyway
	if got := m.Hash(); got != id {
		return nil, fmt.Errorf("matrix hashes to %s", shortID(got))
	}
	raw, err := os.ReadFile(s.datasetPath(id, legacyMetaExt))
	if err != nil {
		raw = nil
	}
	meta := s.datasetMeta(id, raw)
	return newDataset(m, id, meta.Name, meta.ImputedCells, meta.UploadedAt), nil
}

// loadDatasets reads every persisted dataset, verifying each file against its
// content-addressed name; corrupt or mismatched files are skipped with a
// warning, never fatal — recovery prefers a partial registry over no boot.
// Legacy TSV + JSON pairs are upgraded to the current format as they load; a
// pair whose dataset already loaded from a current file is what an upgrade
// interrupted by a crash leaves behind, and is removed.
func (s *store) loadDatasets() []*Dataset {
	dir := filepath.Join(s.dir, datasetsDirName)
	entries, err := os.ReadDir(dir)
	if err != nil {
		s.logf("service: read %s: %v; booting with an empty registry", dir, err)
		return nil
	}
	var out []*Dataset
	loaded := make(map[string]bool)
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), datasetExt)
		if !ok || strings.HasPrefix(id, tmpPrefix) {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil {
			var ds *Dataset
			if ds, err = s.decodeDataset(id, raw); err == nil {
				out = append(out, ds)
				loaded[id] = true
				continue
			}
		}
		s.logf("service: dataset file %s unusable (%v); skipping", shortID(id), err)
	}
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), legacyTSVExt)
		if !ok || strings.HasPrefix(id, tmpPrefix) {
			continue
		}
		if loaded[id] {
			s.deleteLegacyDataset(id)
			continue
		}
		ds, err := s.loadLegacyDataset(id)
		if err != nil {
			s.logf("service: legacy dataset %s unusable (%v); skipping", shortID(id), err)
			continue
		}
		if err := s.saveDataset(ds); err != nil {
			s.logf("service: dataset %s: upgrade to %s failed (%v); keeping the TSV", shortID(id), datasetExt, err)
		} else {
			s.deleteLegacyDataset(id)
		}
		out = append(out, ds)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].UploadedAt.Equal(out[j].UploadedAt) {
			return out[i].UploadedAt.Before(out[j].UploadedAt)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// resultFile is the persisted form of one cached mining outcome. Subtrees,
// the run's per-subtree Stats, let a result restored at boot seed a child
// dataset's splice; files written before they were persisted load without
// them, and their children mine cold.
type resultFile struct {
	Clusters []report.NamedCluster `json:"clusters"`
	Stats    core.Stats            `json:"stats"`
	Subtrees []core.Stats          `json:"subtrees,omitempty"`
}

func (s *store) resultPath(key string) string {
	return filepath.Join(s.dir, resultsDirName, key+".json")
}

// saveResult persists one settled result under its cache key.
func (s *store) saveResult(key string, res cachedResult) error {
	if err := faultinject.Hook("persist.result"); err != nil {
		return err
	}
	clusters := res.clusters
	if clusters == nil {
		clusters = []report.NamedCluster{}
	}
	data, err := json.Marshal(resultFile{Clusters: clusters, Stats: res.stats, Subtrees: res.subtrees})
	if err != nil {
		return err
	}
	return writeFileAtomic(s.resultPath(key), data)
}

func (s *store) deleteResult(key string) { os.Remove(s.resultPath(key)) }

// storedResult is one recovered cache entry.
type storedResult struct {
	key string
	res cachedResult
}

// loadResults restores persisted results oldest-first (so re-inserting them
// in order rebuilds a sensible LRU recency). When more results exist than the
// cache admits, the oldest overflow files are deleted.
func (s *store) loadResults(max int) []storedResult {
	dir := filepath.Join(s.dir, resultsDirName)
	entries, err := os.ReadDir(dir)
	if err != nil {
		s.logf("service: read %s: %v; booting with an empty cache", dir, err)
		return nil
	}
	type fileInfo struct {
		key string
		mod time.Time
	}
	var files []fileInfo
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, tmpPrefix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, fileInfo{key: strings.TrimSuffix(name, ".json"), mod: info.ModTime()})
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mod.Equal(files[j].mod) {
			return files[i].mod.Before(files[j].mod)
		}
		return files[i].key < files[j].key
	})
	if max > 0 && len(files) > max {
		for _, f := range files[:len(files)-max] {
			s.deleteResult(f.key)
		}
		files = files[len(files)-max:]
	}
	var out []storedResult
	for _, f := range files {
		raw, err := os.ReadFile(s.resultPath(f.key))
		if err != nil {
			s.logf("service: result %s unreadable (%v); skipping", f.key, err)
			continue
		}
		var rf resultFile
		if err := json.Unmarshal(raw, &rf); err != nil {
			s.logf("service: result %s corrupt (%v); deleting", f.key, err)
			s.deleteResult(f.key)
			continue
		}
		out = append(out, storedResult{key: f.key, res: cachedResult{clusters: rf.Clusters, stats: rf.Stats, subtrees: rf.Subtrees}})
	}
	return out
}
