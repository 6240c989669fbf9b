package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"regcluster/internal/faultinject"
	"regcluster/internal/matrix"
)

// resumableRun drives MineWith with Resume and Checkpoint, collecting
// clusters and snapshots; stopAfter > 0 stops the visitor after that many
// deliveries (simulating an interruption).
func resumableRun(t *testing.T, m *matrix.Matrix, p Params, workers int, resume *Checkpoint, every, stopAfter int) ([]*Bicluster, []Checkpoint, Stats, error) {
	t.Helper()
	got, snaps, res, err := resumableResult(t, m, p, workers, resume, every, stopAfter)
	if err != nil {
		return got, snaps, Stats{}, err
	}
	return got, snaps, res.Stats, nil
}

// resumableResult is resumableRun returning the whole Result, per-subtree
// Stats included.
func resumableResult(t *testing.T, m *matrix.Matrix, p Params, workers int, resume *Checkpoint, every, stopAfter int) ([]*Bicluster, []Checkpoint, *Result, error) {
	t.Helper()
	var got []*Bicluster
	var snaps []Checkpoint
	res, err := MineWith(context.Background(), m, p, Options{Workers: workers, Visit: func(b *Bicluster) bool {
		got = append(got, b)
		return stopAfter <= 0 || len(got) < stopAfter
	}, Resume: resume, Checkpoint: CheckpointConfig{EveryClusters: every, OnCheckpoint: func(ck Checkpoint) {
		snaps = append(snaps, ck)
	}}})
	return got, snaps, res, err
}

// TestResumableMatchesSequential: the resumable entry point without a resume
// snapshot must reproduce the sequential run exactly, at any worker count and
// checkpoint cadence, while emitting internally consistent snapshots.
func TestResumableMatchesSequential(t *testing.T) {
	m := randomMatrix(60, 10, 4)
	p := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.4}
	seq, err := Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Clusters) < 8 {
		t.Fatalf("workload too small: %d clusters", len(seq.Clusters))
	}
	for _, workers := range equivalenceWorkers {
		for _, every := range []int{1, 3, 1000} {
			got, snaps, stats, err := resumableRun(t, m, p, workers, nil, every, 0)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRun(t, "resumable", seq, got, stats)
			if len(snaps) == 0 {
				t.Fatal("no snapshots emitted")
			}
			prevDelivered := -1
			for i, ck := range snaps {
				if err := ck.Validate(m.Cols()); err != nil {
					t.Fatalf("snapshot %d invalid: %v", i, err)
				}
				if d := ck.Delivered(); d < prevDelivered {
					t.Fatalf("snapshot %d watermark went backwards: %d after %d", i, d, prevDelivered)
				} else {
					prevDelivered = d
				}
				for _, st := range ck.Subtrees {
					if st.Truncated {
						t.Fatalf("snapshot %d records a truncated subtree", i)
					}
				}
			}
			// The final boundary snapshot covers the whole run.
			last := snaps[len(snaps)-1]
			if last.NextCond != m.Cols() || last.Delivered() != len(seq.Clusters) {
				t.Fatalf("final snapshot %+v does not cover the run (%d clusters)", last, len(seq.Clusters))
			}
			if !reflect.DeepEqual(last.Subtrees, seq.Subtrees) {
				t.Fatalf("final snapshot subtrees %+v, want %+v", last.Subtrees, seq.Subtrees)
			}
		}
	}
}

// TestResumeFromEverySnapshot is the recovery core property: resuming from
// ANY snapshot of a run delivers exactly the remaining sequential clusters,
// and the resumed run's Stats and per-subtree Stats equal the uninterrupted
// run's.
func TestResumeFromEverySnapshot(t *testing.T) {
	m := randomMatrix(60, 10, 4)
	p := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.4}
	seq, err := Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot after every delivery for maximal coverage.
	_, snaps, _, err := resumableRun(t, m, p, 2, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, ck := range snaps {
		ck := ck
		for _, workers := range equivalenceWorkers {
			got, _, res, err := resumableResult(t, m, p, workers, &ck, 1000, 0)
			if err != nil {
				t.Fatalf("resume from snapshot %d: %v", i, err)
			}
			stats := res.Stats
			wantSuffix := seq.Clusters[ck.Delivered():]
			if len(got) != len(wantSuffix) {
				t.Fatalf("snapshot %d workers %d: resumed %d clusters, want %d",
					i, workers, len(got), len(wantSuffix))
			}
			for k := range got {
				if got[k].Key() != wantSuffix[k].Key() {
					t.Fatalf("snapshot %d: resumed cluster %d diverged", i, k)
				}
			}
			if !reflect.DeepEqual(stats, seq.Stats) {
				t.Fatalf("snapshot %d workers %d: resumed stats %+v, want %+v",
					i, workers, stats, seq.Stats)
			}
			if !reflect.DeepEqual(res.Subtrees, seq.Subtrees) {
				t.Fatalf("snapshot %d (NextCond %d) workers %d: resumed per-subtree stats %+v, want %+v",
					i, ck.NextCond, workers, res.Subtrees, seq.Subtrees)
			}
		}
	}
}

// TestResumeAfterInterruption models the crash path end to end: a run is
// interrupted mid-flight (visitor stop), recovery restarts from the last
// snapshot, and prefix + resumed suffix reassemble the full sequential run.
func TestResumeAfterInterruption(t *testing.T) {
	m := randomMatrix(60, 10, 4)
	p := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.4}
	seq, err := Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, stopAfter := range []int{1, 3, len(seq.Clusters) / 2, len(seq.Clusters) - 1} {
		for _, every := range []int{1, 2} {
			got, snaps, _, err := resumableRun(t, m, p, 4, nil, every, stopAfter)
			if err != nil {
				t.Fatal(err)
			}
			// The crash loses everything after the last snapshot; the
			// journaled prefix is the snapshot's watermark.
			var resume *Checkpoint
			delivered := 0
			if len(snaps) > 0 {
				resume = &snaps[len(snaps)-1]
				delivered = resume.Delivered()
			}
			if delivered > len(got) {
				t.Fatalf("snapshot watermark %d beyond the %d delivered clusters", delivered, len(got))
			}
			suffix, _, stats, err := resumableRun(t, m, p, 2, resume, 1000, 0)
			if err != nil {
				t.Fatal(err)
			}
			total := append(append([]*Bicluster(nil), got[:delivered]...), suffix...)
			assertSameRun(t, "prefix+resumed suffix", seq, total, stats)
		}
	}
}

// TestResumeWithNodeCap: resumption composes with a global MaxNodes budget —
// the resumed continuation truncates at exactly the sequential stop point.
func TestResumeWithNodeCap(t *testing.T) {
	m := randomMatrix(60, 10, 2)
	base := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.4}
	full, err := Mine(m, base)
	if err != nil {
		t.Fatal(err)
	}
	p := base
	p.MaxNodes = full.Stats.Nodes / 2
	seq, err := Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Clusters) < 3 {
		t.Skipf("capped run too small: %d clusters", len(seq.Clusters))
	}
	stopAfter := len(seq.Clusters) / 2
	got, snaps, _, err := resumableRun(t, m, p, 4, nil, 1, stopAfter)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots before the interruption")
	}
	resume := snaps[len(snaps)-1]
	suffix, _, stats, err := resumableRun(t, m, p, 2, &resume, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := append(append([]*Bicluster(nil), got[:resume.Delivered()]...), suffix...)
	assertSameRun(t, "capped resume", seq, total, stats)
	if !stats.Truncated {
		t.Fatal("capped resumed run not marked Truncated")
	}
}

// TestResumePastEnd: a snapshot taken after the last subtree settled resumes
// into an immediately complete run delivering nothing new.
func TestResumePastEnd(t *testing.T) {
	m := randomMatrix(40, 8, 6)
	p := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.4}
	seq, err := Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	resume := &Checkpoint{Version: CheckpointVersion, NextCond: m.Cols(), Subtrees: seq.Subtrees}
	got, _, stats, err := resumableRun(t, m, p, 2, resume, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("resume past end delivered %d clusters", len(got))
	}
	if !reflect.DeepEqual(stats, seq.Stats) {
		t.Fatalf("stats %+v, want %+v", stats, seq.Stats)
	}
}

func TestCheckpointValidate(t *testing.T) {
	cases := []struct {
		name string
		ck   Checkpoint
		ok   bool
	}{
		{"valid", Checkpoint{Version: 2, NextCond: 3, Subtrees: make([]Stats, 3)}, true},
		{"wrong version", Checkpoint{Version: 1}, false},
		{"negative cond", Checkpoint{Version: 2, NextCond: -1}, false},
		{"cond past end", Checkpoint{Version: 2, NextCond: 11, Subtrees: make([]Stats, 11)}, false},
		{"end with skip", Checkpoint{Version: 2, NextCond: 10, SkipClusters: 1, Subtrees: make([]Stats, 10)}, false},
		{"negative skip", Checkpoint{Version: 2, SkipClusters: -1}, false},
		{"negative subtree", Checkpoint{Version: 2, NextCond: 1, Subtrees: []Stats{{Nodes: -1}}}, false},
		{"subtrees short of NextCond", Checkpoint{Version: 2, NextCond: 3, Subtrees: make([]Stats, 2)}, false},
		{"truncated subtree", Checkpoint{Version: 2, NextCond: 1, Subtrees: []Stats{{Truncated: true}}}, false},
	}
	for _, tc := range cases {
		if err := tc.ck.Validate(10); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	m := randomMatrix(20, 6, 1)
	bad := &Checkpoint{Version: 99}
	if _, err := statsOf(MineWith(context.Background(), m, Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.4}, Options{Workers: 2, Visit: func(*Bicluster) bool { return true }, Resume: bad})); err == nil {
		t.Fatal("invalid checkpoint accepted")
	}
}

// TestWorkerPanicContained: a panic on a mining worker goroutine must surface
// as a *PanicError from the API — never crash the process or deadlock the
// emitter — and the pool must stay usable for the next run.
func TestWorkerPanicContained(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	m := randomMatrix(60, 10, 4)
	p := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.4}
	seq, err := Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		disarm := faultinject.Arm("core.mine.subtree",
			faultinject.Spec{Panic: "boom on subtree 3", After: 3, Times: 1})
		_, _, _, err := resumableRun(t, m, p, workers, nil, 0, 0)
		disarm()
		var perr *PanicError
		if !errors.As(err, &perr) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if !strings.Contains(perr.Error(), "boom on subtree 3") {
			t.Fatalf("panic error lost the value: %v", perr)
		}
		if len(perr.Stack) == 0 {
			t.Fatal("panic error carries no stack")
		}
		// The same inputs succeed once the fault is disarmed.
		got, _, stats, err := resumableRun(t, m, p, workers, nil, 0, 0)
		if err != nil {
			t.Fatalf("post-panic run failed: %v", err)
		}
		assertSameRun(t, "post-panic", seq, got, stats)
	}
}
