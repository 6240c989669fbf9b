package service

import (
	"sort"
	"time"

	"regcluster/internal/core"
	"regcluster/internal/report"
)

// Boot-time crash recovery. The sequence (run by Open before the server
// accepts traffic):
//
//  1. load persisted datasets into the registry (each file verified against
//     its content-addressed name; corrupt files are skipped with a warning);
//  2. load persisted results into the LRU cache, oldest first;
//  3. replay the job journal into per-job states: submit parameters, the
//     cluster prefix delivered before the crash, the last checkpoint, and
//     the terminal record if one was written;
//  4. compact the journal — the replayed state is rewritten in canonical
//     form (submit + final checkpoint or terminal per job) so the WAL does
//     not grow without bound across restarts;
//  5. rebuild the job table: settled jobs become read-only shells, and jobs
//     the crash interrupted are re-enqueued from their checkpoints.
//
// Recovery is tolerant end to end: a missing, empty, or corrupt data-dir
// degrades to a clean boot with logged warnings, never a refusal to start.

// replayedJob is the journal-derived state of one job; ckpt.Subtrees shares
// subtrees.
type replayedJob struct {
	submit   journalRecord
	clusters []report.NamedCluster
	subtrees []core.Stats
	ckpt     *core.Checkpoint
	terminal *journalRecord
}

// replayRecords folds journal records into per-job states, returning the
// states in submission order, the sweep-binding records in append order, the
// last cumulative usage snapshot per tenant, and the highest journaled
// sequence number. Unknown record types are skipped (forward compatibility: a
// journal written by a newer server still boots here), as are records for
// jobs whose submit record was lost.
func replayRecords(recs []journalRecord, logf func(string, ...any)) (ordered []*replayedJob, sweeps []journalRecord, deltas map[string]*DeltaInfo, usage map[string]TenantUsage, maxSeq int) {
	byID := make(map[string]*replayedJob)
	for _, rec := range recs {
		switch rec.Type {
		case recDelta:
			// Dataset lineage: the last record per child wins (appends are
			// idempotent on content hashes, so duplicates agree anyway).
			if rec.Dataset == "" || rec.Delta == nil {
				logf("service: journal: malformed delta record; skipping")
				continue
			}
			if deltas == nil {
				deltas = make(map[string]*DeltaInfo)
			}
			d := *rec.Delta
			deltas[rec.Dataset] = &d
		case recSubmit:
			if rec.Job == "" || rec.Params == nil || rec.Dataset == "" {
				logf("service: journal: malformed submit record for %q; skipping", rec.Job)
				continue
			}
			j := &replayedJob{submit: rec}
			byID[rec.Job] = j
			ordered = append(ordered, j)
			if rec.Seq > maxSeq {
				maxSeq = rec.Seq
			}
		case recCheckpoint:
			j, ok := byID[rec.Job]
			if !ok {
				logf("service: journal: checkpoint for unknown job %q; skipping", rec.Job)
				continue
			}
			if rec.Ckpt == nil {
				logf("service: journal: checkpoint record for %q carries no snapshot; skipping", rec.Job)
				continue
			}
			// A re-journaled overlap (an earlier append failed mid-run) is
			// reconciled against the snapshot's watermarks: keep the prefix
			// this record does not cover, then append what it carries. A gap
			// in the Stats (older servers journaled none) leaves them short
			// of NextCond; the clusters still splice, and resume refuses it.
			if at := rec.Ckpt.NextCond - len(rec.NewSubtrees); at >= 0 && at <= len(j.subtrees) {
				j.subtrees = append(j.subtrees[:at], rec.NewSubtrees...)
			}
			ck := *rec.Ckpt
			ck.Subtrees = j.subtrees
			j.ckpt = &ck
			before := max(ck.Delivered()-len(rec.NewClusters), 0)
			if before < len(j.clusters) {
				j.clusters = j.clusters[:before]
			}
			j.clusters = append(j.clusters, rec.NewClusters...)
		case recDone, recFailed, recCancelled, recShed:
			j, ok := byID[rec.Job]
			if !ok {
				logf("service: journal: %s for unknown job %q; skipping", rec.Type, rec.Job)
				continue
			}
			r := rec
			j.terminal = &r
		case recSweep:
			sweeps = append(sweeps, rec)
		case recUsage:
			// Usage snapshots are cumulative, so the last record per tenant is
			// the whole ledger; earlier ones are superseded and compact away.
			if rec.Tenant == "" || rec.Usage == nil {
				logf("service: journal: malformed usage record; skipping")
				continue
			}
			if usage == nil {
				usage = make(map[string]TenantUsage)
			}
			usage[rec.Tenant] = *rec.Usage
		case recWorker, recLease, recInterrupted:
			// Records older servers wrote with no replayable state: the
			// coordinator-mode audit trail, and the shutdown marker, whose
			// snapshot can cover clusters the journal lacks. Every job
			// resumes from its checkpoint records; compaction drops these.
		default:
			logf("service: journal: unknown record type %q; skipping (newer server?)", rec.Type)
		}
	}
	return ordered, sweeps, deltas, usage, maxSeq
}

// canonicalRecords renders the replayed state back into a minimal journal
// for compaction: submit + terminal for settled jobs, submit + one merged
// checkpoint (full cluster prefix) for jobs about to be resumed, then the
// sweep bindings (which only reference jobs, so they compact verbatim and
// stay after every point's submit record), then one cumulative usage record
// per tenant (stable ID order).
func canonicalRecords(jobs []*replayedJob, sweeps []journalRecord, deltas map[string]*DeltaInfo, usage map[string]TenantUsage) []journalRecord {
	var out []journalRecord
	// Lineage records lead (stable child-ID order): they reference no jobs,
	// and replay attaches them to datasets before any job resumes.
	dsIDs := make([]string, 0, len(deltas))
	for id := range deltas {
		dsIDs = append(dsIDs, id)
	}
	sort.Strings(dsIDs)
	for _, id := range dsIDs {
		d := *deltas[id]
		out = append(out, journalRecord{Type: recDelta, Dataset: id, Delta: &d})
	}
	for _, j := range jobs {
		out = append(out, j.submit)
		switch {
		case j.terminal != nil:
			out = append(out, *j.terminal)
		case j.ckpt != nil:
			rec := checkpointRecord(j.submit.Job, j.ckpt, j.clusters, j.subtrees)
			rec.Time = j.submit.Time
			out = append(out, rec)
		}
	}
	out = append(out, sweeps...)
	ids := make([]string, 0, len(usage))
	for id := range usage {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		u := usage[id]
		out = append(out, journalRecord{Type: recUsage, Tenant: id, Usage: &u})
	}
	return out
}

// bootRecover runs the recovery sequence against s.store. It returns an
// error only for a journal that exists but cannot be rewritten (a data-dir
// that accepts no writes is not durable, and pretending otherwise would
// break the service's promise); every data-corruption case degrades to a
// warning.
func (s *Server) bootRecover() error {
	for _, ds := range s.store.loadDatasets() {
		s.registry.restore(ds)
	}
	for _, r := range s.store.loadResults(s.cfg.CacheEntries) {
		s.cache.put(r.key, r.res)
	}

	recs := replayJournalFile(s.store.journalPath(), s.logf)
	jobs, sweeps, deltas, usage, maxSeq := replayRecords(recs, s.logf)
	// Lineage re-attaches to the restored datasets; records for datasets no
	// longer on disk (deleted, or lost to corruption) compact away.
	for id, d := range deltas {
		ds, ok := s.registry.get(id)
		if !ok {
			delete(deltas, id)
			continue
		}
		if ds.Delta == nil {
			ds.Delta = d
		}
	}
	s.jobs.mu.Lock()
	if maxSeq > s.jobs.seq {
		s.jobs.seq = maxSeq
	}
	s.jobs.mu.Unlock()
	// Replayed usage ledgers attach to their tenants before any settlement can
	// append a fresh snapshot; a tenant deleted from the config folds into the
	// anonymous ledger so no journaled totals vanish. Exact matches restore
	// first so a folded ledger merges on top instead of being overwritten.
	for id, u := range usage {
		if tn, ok := s.jobs.tenants.get(id); ok {
			tn.restoreUsage(u)
		}
	}
	for id, u := range usage {
		if _, ok := s.jobs.tenants.get(id); !ok {
			s.jobs.tenants.anonymous.account(u)
		}
	}

	if err := s.store.compactJournal(canonicalRecords(jobs, sweeps, deltas, usage)); err != nil {
		return err
	}
	wal, err := openJournal(s.store.journalPath())
	if err != nil {
		return err
	}
	s.wal = wal
	s.jobs.wal = wal

	for _, rj := range jobs {
		if rj.terminal != nil {
			s.restoreSettled(rj)
		} else {
			s.resumeInterrupted(rj)
		}
	}
	// Sweeps restore after their point jobs so the views bind to live state.
	for _, rec := range sweeps {
		s.restoreSweep(rec)
	}
	return nil
}

// jobShell rebuilds the common immutable part of a replayed job.
func (s *Server) jobShell(rj *replayedJob) *Job {
	sub := rj.submit
	ds, ok := s.registry.get(sub.Dataset)
	if !ok {
		// The dataset file was lost or corrupt; keep an ID-only stand-in so
		// views still render. Pending jobs against it fail in the caller.
		ds = &Dataset{ID: sub.Dataset, Name: "lost-" + shortID(sub.Dataset)}
	}
	var p core.Params
	if sub.Params != nil {
		p = *sub.Params
	}
	return &Job{
		ID:      sub.Job,
		Dataset: ds,
		Params:  p,
		Workers: sub.Workers,
		Timeout: time.Duration(sub.TimeoutMS) * time.Millisecond,
		tn:      s.jobs.tenants.getOrAnonymous(sub.Tenant),
		created: sub.Time,
		changed: make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// restoreSettled installs the read-only shell of a job that had settled
// before the restart. Done jobs re-attach their clusters from the restored
// result cache when the entry survived.
func (s *Server) restoreSettled(rj *replayedJob) {
	j := s.jobShell(rj)
	term := rj.terminal
	j.finished = term.Time
	j.started = term.Time
	j.stats = core.Stats{}
	if term.Stats != nil {
		j.stats = *term.Stats
	}
	switch term.Type {
	case recDone:
		j.status = StatusDone
		j.cached = term.Cached
		if res, ok := s.cache.get(term.CacheKey); ok {
			j.clusters = res.clusters
		} else if term.CacheKey != "" {
			s.logf("service: job %s: settled result %s not recovered; clusters unavailable", j.ID, shortID(term.CacheKey))
		}
	case recFailed:
		j.status = StatusFailed
		j.err = term.Error
	case recCancelled:
		j.status = StatusCancelled
		j.err = "cancelled"
	case recShed:
		j.status = StatusCancelled
		j.err = "shed by overload"
		j.shed = true
	}
	s.jobs.restoreTerminal(j)
}

// resumeInterrupted re-enqueues a job the previous process never settled —
// a shutdown interrupted it, or a crash — so its journal holds no terminal
// record. The job resumes from its last checkpoint with the journaled
// cluster prefix and subtree Stats already in place; with no usable
// checkpoint it restarts from scratch.
func (s *Server) resumeInterrupted(rj *replayedJob) {
	j := s.jobShell(rj)
	if _, ok := s.registry.get(rj.submit.Dataset); !ok {
		j.status = StatusFailed
		j.err = "dataset " + rj.submit.Dataset + " not recovered after restart"
		j.finished = time.Now().UTC()
		s.jobs.restoreTerminal(j)
		s.jobs.metrics.JobsFailed.Add(1)
		// Journal the failure so the next boot does not re-fail it forever.
		s.jobs.journalAppend(journalRecord{Type: recFailed, Job: j.ID, Error: j.err})
		return
	}
	j.status = StatusQueued
	j.recovered = true
	if rj.ckpt != nil {
		if err := rj.ckpt.Validate(j.Dataset.Matrix().Cols()); err != nil {
			s.logf("service: job %s: checkpoint unusable (%v); restarting from scratch", j.ID, err)
		} else if len(rj.clusters) != rj.ckpt.Delivered() {
			// Lost checkpoint appends left a gap between the journaled
			// cluster prefix and the snapshot's watermark; resuming would
			// stream a hole. Mining is deterministic, so re-mining from
			// scratch costs time but never correctness.
			s.logf("service: job %s: journal holds %d clusters but the checkpoint covers %d; restarting from scratch",
				j.ID, len(rj.clusters), rj.ckpt.Delivered())
		} else {
			ck := *rj.ckpt
			j.lastCkpt = &ck
			j.clusters = append([]report.NamedCluster(nil), rj.clusters...)
			j.journaled, j.journaledSubtrees = len(j.clusters), len(ck.Subtrees)
		}
	}
	s.logf("service: resuming job %s from checkpoint (%d clusters already delivered)", j.ID, len(j.clusters))
	s.jobs.recover(j)
}

// shortID truncates a content hash for log lines.
func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
