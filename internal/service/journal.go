package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/faultinject"
	"regcluster/internal/report"
)

// Journal record types. The journal is an append-only NDJSON log: one
// journalRecord per line, fsynced per append, replayed in order at boot to
// rebuild the job table. Unknown types are skipped on replay (a journal
// written by a newer server boots on an older one), and a torn final line —
// the only damage an append-crash can cause — is dropped with a warning.
const (
	recSubmit     = "submit"     // a job was accepted (cache hit or not)
	recCheckpoint = "checkpoint" // miner snapshot + clusters and subtree Stats settled since the previous record
	recDone       = "done"       // job finished; result persisted under CacheKey
	recFailed     = "failed"     // job ended in an error
	recCancelled  = "cancelled"  // job cancelled by the caller
	// recInterrupted is the shutdown marker older servers appended with the
	// job's in-memory snapshot; replay skips it (see replayRecords).
	recInterrupted = "interrupted"
	// recSweep binds already-submitted point jobs into one sweep. It is
	// appended after the last point's submit record, so a crash mid-sweep
	// leaves at worst a set of ordinary jobs (each individually resumable);
	// a journal holding the record restores the sweep view intact. Older
	// servers skip it as an unknown type.
	recSweep = "sweep"
	// recWorker / recLease are the coordinator-mode audit records (worker
	// joins, lease transitions) that older servers appended. Nothing writes
	// them any more; replay still skips them, so old journals boot, and
	// compaction drops them.
	recWorker = "worker"
	recLease  = "lease"
	// recShed is the terminal record of a queued job the overload shedder
	// evicted: replay settles it as cancelled-by-shed and never resurrects it.
	// recUsage carries one tenant's CUMULATIVE usage snapshot, appended at
	// every settlement; replay keeps the last record per tenant and compaction
	// rewrites exactly one. Both are skipped as unknown types by servers that
	// predate them.
	recShed  = "shed"
	recUsage = "usage"
	// recDelta records a dataset produced by an append delta: the child's
	// content hash plus its lineage (parent hash, grown axis, prefix sizes).
	// Replay re-attaches the lineage to the restored dataset so incremental
	// re-mining survives restarts; compaction keeps one record per dataset
	// still present. Servers predating it skip it as an unknown type.
	recDelta = "delta"
)

// journalRecord is one line of the job journal. Fields are a union over the
// record types; unused ones are omitted from the encoding.
type journalRecord struct {
	Type string    `json:"type"`
	Time time.Time `json:"time"`
	Seq  int       `json:"seq,omitempty"`
	Job  string    `json:"job,omitempty"`

	// submit
	Dataset   string       `json:"dataset,omitempty"`
	Params    *core.Params `json:"params,omitempty"`
	Workers   int          `json:"workers,omitempty"`
	TimeoutMS int64        `json:"timeout_ms,omitempty"`

	// checkpoint: the miner snapshot plus every cluster delivered and every
	// subtree's Stats settled since the last journaled record, so replay
	// reconstructs exactly the prefix the snapshot covers.
	Ckpt        *core.Checkpoint      `json:"ckpt,omitempty"`
	NewClusters []report.NamedCluster `json:"new_clusters,omitempty"`
	NewSubtrees []core.Stats          `json:"new_subtrees,omitempty"`

	// terminal records
	Stats    *core.Stats `json:"stats,omitempty"`
	CacheKey string      `json:"cache_key,omitempty"`
	Cached   bool        `json:"cached,omitempty"`
	Error    string      `json:"error,omitempty"`

	// sweep: the sweep ID and its point jobs, in grid order.
	Sweep     string   `json:"sweep,omitempty"`
	PointJobs []string `json:"point_jobs,omitempty"`

	// tenancy: Tenant owns the record's job (submit) or usage snapshot
	// (recUsage); Usage is the cumulative per-tenant ledger at append time.
	Tenant string       `json:"tenant,omitempty"`
	Usage  *TenantUsage `json:"usage,omitempty"`

	// delta: lineage of an appended dataset (recDelta); Dataset above carries
	// the child's content hash.
	Delta *DeltaInfo `json:"delta,omitempty"`
}

// checkpointRecord journals snapshot ck of job with the clusters and
// subtree Stats earlier records lack; the snapshot's own Subtrees stay out,
// so a record grows by what it settled, not by the run so far.
func checkpointRecord(job string, ck *core.Checkpoint, clusters []report.NamedCluster, subtrees []core.Stats) journalRecord {
	return journalRecord{Type: recCheckpoint, Job: job, NewClusters: clusters, NewSubtrees: subtrees,
		Ckpt: &core.Checkpoint{Version: ck.Version, NextCond: ck.NextCond, SkipClusters: ck.SkipClusters}}
}

// journal is the append side of the WAL. Appends are serialized and fsynced
// before returning, so a record that OnCheckpoint observed as written is
// durable — the checkpoint callback runs synchronously on the mining emitter,
// which is what makes "journaled watermark never runs ahead of delivery"
// hold.
type journal struct {
	mu sync.Mutex
	f  *os.File
}

func openJournal(path string) (*journal, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: open journal: %w", err)
	}
	return &journal{f: f}, nil
}

func (w *journal) append(rec journalRecord) error {
	if err := faultinject.Hook("journal.append"); err != nil {
		return err
	}
	rec.Time = time.Now().UTC()
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(data); err != nil {
		return err
	}
	if err := faultinject.Hook("journal.sync"); err != nil {
		return err
	}
	return w.f.Sync()
}

func (w *journal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// replayJournalFile reads every replayable record of a journal. Replay is
// tolerant by design: a missing file is an empty journal, and an undecodable
// line stops replay at that point with a warning — for the final line that is
// the expected torn-append signature of a crash; anything earlier means
// corruption, and the records before it are still the best available state.
func replayJournalFile(path string, logf func(string, ...any)) []journalRecord {
	raw, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			logf("service: read journal %s: %v; booting without it", path, err)
		}
		return nil
	}
	var out []journalRecord
	lines := bytes.Split(raw, []byte{'\n'})
	for i, line := range lines {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			if i == len(lines)-1 || allEmpty(lines[i+1:]) {
				logf("service: journal %s: dropping torn final record (%v)", path, err)
			} else {
				logf("service: journal %s: undecodable record at line %d (%v); replay stops here", path, i+1, err)
			}
			break
		}
		out = append(out, rec)
	}
	return out
}

func allEmpty(lines [][]byte) bool {
	for _, l := range lines {
		if len(bytes.TrimSpace(l)) != 0 {
			return false
		}
	}
	return true
}

// compactJournal atomically replaces the journal with the given records —
// boot rewrites the replayed state in canonical form so the file does not
// grow without bound across restarts.
func (s *store) compactJournal(recs []journalRecord) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return writeFileAtomic(s.journalPath(), buf.Bytes())
}
