package core

import (
	"context"
	"testing"

	"regcluster/internal/obs"
)

// collectNodes flattens a span forest depth-first.
func collectNodes(nodes []*obs.Node) []*obs.Node {
	var out []*obs.Node
	for _, n := range nodes {
		out = append(out, n)
		out = append(out, collectNodes(n.Children)...)
	}
	return out
}

func tracedMine(t *testing.T, workers int, maxNodes int) (*obs.Node, Stats) {
	t.Helper()
	m := randomMatrix(40, 8, 7)
	p := Params{MinG: 2, MinC: 2, Gamma: 0.1, MaxNodes: maxNodes}
	tr := obs.New()
	root := tr.Start("mine")
	var ob Observer
	ob.SetSpan(root)
	st, err := statsOf(MineWith(context.Background(), m, p, Options{Workers: workers, Visit: func(*Bicluster) bool { return true }, Observer: &ob}))
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	root.End()
	tree := tr.Tree()
	if len(tree) != 1 {
		t.Fatalf("got %d roots, want 1", len(tree))
	}
	return tree[0], st
}

// TestTracedMineSpanTree checks the span taxonomy of an observed run: the
// attached parent span gains an rwave.build child (with per-chunk children)
// and one subtree span per starting condition whose nodes counters sum to
// the run's Stats.
func TestTracedMineSpanTree(t *testing.T) {
	for _, workers := range []int{1, 4} {
		root, st := tracedMine(t, workers, 0)
		all := collectNodes([]*obs.Node{root})
		byName := map[string][]*obs.Node{}
		for _, n := range all {
			byName[n.Name] = append(byName[n.Name], n)
			if !n.Done {
				t.Fatalf("workers=%d: span %q left open", workers, n.Name)
			}
		}
		if len(byName["rwave.build"]) != 1 {
			t.Fatalf("workers=%d: got %d rwave.build spans, want 1", workers, len(byName["rwave.build"]))
		}
		if len(byName["rwave.chunk"]) == 0 {
			t.Fatalf("workers=%d: no rwave.chunk spans", workers)
		}
		subs := byName["subtree"]
		if len(subs) != 8 {
			t.Fatalf("workers=%d: got %d subtree spans, want 8", workers, len(subs))
		}
		conds := map[string]bool{}
		var nodes, clusters int64
		for _, s := range subs {
			conds[s.Attrs["cond"]] = true
			nodes += s.Counters["nodes"]
			clusters += s.Counters["clusters"]
		}
		if len(conds) != 8 {
			t.Fatalf("workers=%d: subtree conds not distinct: %v", workers, conds)
		}
		if nodes != int64(st.Nodes) || clusters != int64(st.Clusters) {
			t.Fatalf("workers=%d: subtree counters %d/%d != stats %d/%d",
				workers, nodes, clusters, st.Nodes, st.Clusters)
		}
	}
}

// TestTracedMineBudgetTrip checks that a truncated run records a budget trip
// on the parent span (workers=1 hits the sequential branch; workers>1 hits
// the emitter's truncate path, which also runs a reconciliation rerun).
func TestTracedMineBudgetTrip(t *testing.T) {
	for _, workers := range []int{1, 4} {
		root, st := tracedMine(t, workers, 20)
		if !st.Truncated {
			t.Fatalf("workers=%d: run not truncated at MaxNodes=20", workers)
		}
		trips := root.Counters["budget_trips"]
		for _, n := range collectNodes(root.Children) {
			trips += n.Counters["budget_trips"]
		}
		if trips == 0 {
			t.Fatalf("workers=%d: no budget_trips counter recorded", workers)
		}
		if workers > 1 {
			reruns := 0
			for _, n := range collectNodes([]*obs.Node{root}) {
				if n.Name == "rerun" {
					reruns++
				}
			}
			if reruns == 0 {
				t.Fatal("parallel truncated run recorded no rerun span")
			}
		}
	}
}

// TestNoopObserverAddsNoAllocs pins the acceptance criterion of the tracing
// layer: mining through an Observer with no span attached allocates exactly
// as much as mining without one, so the disabled path keeps the
// zero-allocation hot-path guarantee.
func TestNoopObserverAddsNoAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	m := randomMatrix(30, 6, 11)
	p := Params{MinG: 2, MinC: 2, Gamma: 0.1}
	visit := func(*Bicluster) bool { return true }
	ctx := context.Background()
	plain := testing.AllocsPerRun(10, func() {
		if _, err := statsOf(MineWith(ctx, m, p, Options{Workers: 1, Visit: visit})); err != nil {
			t.Fatal(err)
		}
	})
	var ob Observer
	observed := testing.AllocsPerRun(10, func() {
		if _, err := statsOf(MineWith(ctx, m, p, Options{Workers: 1, Visit: visit, Observer: &ob})); err != nil {
			t.Fatal(err)
		}
	})
	// Identical work; allow a whisper of slack for runtime-internal noise.
	if observed > plain+1 {
		t.Fatalf("span-less Observer added allocations: %.1f with vs %.1f without", observed, plain)
	}
}

// BenchmarkMineNoopTracer measures the mining path through a span-less
// Observer — the configuration every production caller gets with tracing
// off. Compare allocs/op against BenchmarkMineParallel/sequential to see
// the (intended: zero) cost of the instrumentation points.
func BenchmarkMineNoopTracer(b *testing.B) {
	m := randomMatrix(60, 10, 3)
	p := Params{MinG: 3, MinC: 3, Gamma: 0.1}
	visit := func(*Bicluster) bool { return true }
	ctx := context.Background()
	var ob Observer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := statsOf(MineWith(ctx, m, p, Options{Workers: 1, Visit: visit, Observer: &ob})); err != nil {
			b.Fatal(err)
		}
	}
}
