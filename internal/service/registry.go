package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"regcluster/internal/matrix"
)

// RowStat is the per-gene profile summary of a registered dataset: the
// Equation 4 inputs (range) plus the usual moments, computed once, on the
// first read of the dataset's detail, so that parameter-exploration clients
// never rescan the matrix and uploads that are only mined never pay for it.
type RowStat struct {
	Gene  string  `json:"gene"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Range float64 `json:"range"`
	Mean  float64 `json:"mean"`
	Std   float64 `json:"std"`
}

// Dataset is one registered expression matrix, content-addressed by
// matrix.Hash so that re-uploading identical data is idempotent.
type Dataset struct {
	// ID is the canonical content hash of the (imputed) matrix.
	ID string `json:"id"`
	// Name is the caller-supplied label of the first upload.
	Name       string `json:"name"`
	Genes      int    `json:"genes"`
	Conditions int    `json:"conditions"`
	// ImputedCells counts NaN cells replaced by the row mean at upload
	// (the miners require a complete matrix).
	ImputedCells int       `json:"imputed_cells"`
	UploadedAt   time.Time `json:"uploaded_at"`
	// Delta records how this dataset was derived from another via an append
	// delta (nil for direct uploads). Lineage is what makes the incremental
	// re-mine path eligible: the miner needs to know which prefix of this
	// matrix is the parent.
	Delta *DeltaInfo `json:"delta,omitempty"`

	mat          *matrix.Matrix
	rowStatsOnce sync.Once
	rowStats     []RowStat
}

// Delta axes: which dimension an append grew.
const (
	DeltaAxisConditions = "conditions"
	DeltaAxisGenes      = "genes"
)

// DeltaInfo is the lineage of a dataset produced by an append delta: the
// parent's content hash, the grown axis, and the parent's dimensions (the
// prefix sizes — appended entries always land after the old ones).
type DeltaInfo struct {
	Parent   string `json:"parent"`
	Axis     string `json:"axis"`
	OldConds int    `json:"old_conds"`
	OldGenes int    `json:"old_genes"`
}

// Matrix returns the dataset's matrix. The matrix is immutable once
// registered; callers must not modify it.
func (d *Dataset) Matrix() *matrix.Matrix { return d.mat }

// RowStats returns the per-gene summaries, computing them on the first call.
func (d *Dataset) RowStats() []RowStat {
	d.rowStatsOnce.Do(func() {
		if d.mat != nil {
			d.rowStats = computeRowStats(d.mat)
		}
	})
	return d.rowStats
}

// registrySource adapts the registry to the coordinator's replication
// interface: workers fetch datasets by the same content hash the registry
// keys on, so placement needs no extra bookkeeping.
type registrySource struct{ r *registry }

func (rs registrySource) Dataset(id string) (*matrix.Matrix, bool) {
	ds, ok := rs.r.get(id)
	if !ok {
		return nil, false
	}
	return ds.Matrix(), true
}

// registry is the in-memory dataset store: content-addressed, bounded, safe
// for concurrent use.
type registry struct {
	mu   sync.RWMutex
	max  int
	byID map[string]*Dataset
}

func newRegistry(maxDatasets int) *registry {
	return &registry{max: maxDatasets, byID: make(map[string]*Dataset)}
}

// add parses a TSV expression matrix, imputes missing cells, and registers
// it under its content hash. Re-uploading an identical matrix returns the
// existing dataset (created = false) and never counts against the capacity
// bound.
func (r *registry) add(name string, tsv io.Reader) (ds *Dataset, created bool, err error) {
	m, err := matrix.ReadTSV(tsv)
	if err != nil {
		return nil, false, err
	}
	imputed := m.FillNaN()
	id := m.Hash()

	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.byID[id]; ok {
		return existing, false, nil
	}
	if r.max > 0 && len(r.byID) >= r.max {
		return nil, false, fmt.Errorf("service: dataset registry full (%d datasets); delete one first", len(r.byID))
	}
	ds = newDataset(m, id, name, imputed, time.Now().UTC())
	r.byID[ds.ID] = ds
	return ds, true, nil
}

// appendDelta parses a delta TSV and registers the parent's matrix grown by
// it along the given axis, recording the lineage. The child is
// content-addressed like any dataset: appending the same delta twice (or
// uploading the full grown matrix directly) converges on one entry. When the
// grown matrix already exists the existing dataset is returned unchanged
// (created = false) — in particular a direct upload keeps its lineage-free
// identity, and re-appends keep the lineage recorded first.
func (r *registry) appendDelta(parentID, axis, name string, tsv io.Reader) (ds *Dataset, created bool, err error) {
	parent, ok := r.get(parentID)
	if !ok {
		return nil, false, fmt.Errorf("service: unknown dataset %q", parentID)
	}
	delta, err := matrix.ReadTSV(tsv)
	if err != nil {
		return nil, false, err
	}
	imputed := delta.FillNaN()
	var grown *matrix.Matrix
	switch axis {
	case DeltaAxisConditions:
		grown, err = matrix.AppendConditions(parent.mat, delta)
	case DeltaAxisGenes:
		grown, err = matrix.AppendGenes(parent.mat, delta)
	default:
		return nil, false, fmt.Errorf("service: unknown append axis %q (want %s or %s)",
			axis, DeltaAxisConditions, DeltaAxisGenes)
	}
	if err != nil {
		return nil, false, err
	}
	id := grown.Hash()

	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.byID[id]; ok {
		return existing, false, nil
	}
	if r.max > 0 && len(r.byID) >= r.max {
		return nil, false, fmt.Errorf("service: dataset registry full (%d datasets); delete one first", len(r.byID))
	}
	if name == "" {
		name = parent.Name + "+delta"
	}
	ds = newDataset(grown, id, name, parent.ImputedCells+imputed, time.Now().UTC())
	ds.Delta = &DeltaInfo{Parent: parentID, Axis: axis,
		OldConds: parent.mat.Cols(), OldGenes: parent.mat.Rows()}
	r.byID[ds.ID] = ds
	return ds, true, nil
}

// newDataset builds the registry entry of an already-imputed matrix whose
// content hash the caller computed (id == m.Hash()); the upload path and
// boot-time recovery share it so a restored dataset is indistinguishable from
// a freshly uploaded one (same defaulted name, same lazily computed row
// stats).
func newDataset(m *matrix.Matrix, id, name string, imputed int, uploadedAt time.Time) *Dataset {
	if name == "" {
		name = "dataset-" + id[:12]
	}
	return &Dataset{
		ID: id, Name: name,
		Genes: m.Rows(), Conditions: m.Cols(),
		ImputedCells: imputed,
		UploadedAt:   uploadedAt,
		mat:          m,
	}
}

// restore re-registers a dataset recovered from disk at boot, before the
// server accepts traffic. Recovery never drops data over a capacity bound:
// a data-dir holding more datasets than the configured limit still boots
// complete (the bound keeps applying to new uploads).
func (r *registry) restore(ds *Dataset) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byID[ds.ID]; !ok {
		r.byID[ds.ID] = ds
	}
}

// get returns the dataset with the given content hash.
func (r *registry) get(id string) (*Dataset, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ds, ok := r.byID[id]
	return ds, ok
}

// remove deletes a dataset; already-submitted jobs keep their matrix
// reference and are unaffected.
func (r *registry) remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byID[id]; !ok {
		return false
	}
	delete(r.byID, id)
	return true
}

// list returns all datasets, oldest upload first (ties broken by ID so the
// order is deterministic).
func (r *registry) list() []*Dataset {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Dataset, 0, len(r.byID))
	for _, ds := range r.byID {
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

// size returns the number of registered datasets.
func (r *registry) size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byID)
}

func computeRowStats(m *matrix.Matrix) []RowStat {
	out := make([]RowStat, m.Rows())
	for i := range out {
		out[i] = RowStat{
			Gene:  m.RowName(i),
			Min:   m.RowMin(i),
			Max:   m.RowMax(i),
			Range: m.RowRange(i),
			Mean:  m.RowMean(i),
			Std:   m.RowStd(i),
		}
	}
	return out
}
