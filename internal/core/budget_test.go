package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"regcluster/internal/matrix"
)

// TestStatsAddCoversAllFields sets every Stats field to a sentinel by
// reflection and asserts Add carries each one over: adding a counter to
// Stats without extending Add fails here instead of silently dropping the
// counter from parallel merges.
func TestStatsAddCoversAllFields(t *testing.T) {
	var sentinel Stats
	v := reflect.ValueOf(&sentinel).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(1)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("Stats field %s has unhandled kind %s — extend Stats.Add and this test",
				v.Type().Field(i).Name, f.Kind())
		}
	}
	var sum Stats
	sum.Add(sentinel)
	if !reflect.DeepEqual(sum, sentinel) {
		t.Fatalf("Stats.Add dropped fields:\n  got  %+v\n  want %+v", sum, sentinel)
	}
	sum.Add(sentinel)
	v = reflect.ValueOf(sum)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Int && f.Int() != 2 {
			t.Errorf("Stats.Add did not accumulate field %s: %d after two adds",
				v.Type().Field(i).Name, f.Int())
		}
	}
	if !sum.Truncated {
		t.Error("Stats.Add lost Truncated")
	}
}

func TestBudgetNodeCap(t *testing.T) {
	b := prechargedBudget(3, 0, 0, 0)
	for i := 0; i < 3; i++ {
		if !b.chargeNode() {
			t.Fatalf("node %d rejected under cap 3", i+1)
		}
	}
	if b.chargeNode() {
		t.Fatal("node 4 accepted under cap 3")
	}
	if !b.stopped() {
		t.Fatal("budget not stopped after node cap trip")
	}
}

func TestBudgetClusterCap(t *testing.T) {
	b := prechargedBudget(0, 2, 0, 0)
	if !b.chargeCluster() {
		t.Fatal("cluster 1 should be admitted and not be the last")
	}
	if b.chargeCluster() {
		t.Fatal("cluster 2 should be the last admitted under cap 2")
	}
	if !b.stopped() {
		t.Fatal("budget not stopped after cluster cap trip")
	}
}

func TestBudgetPrecharge(t *testing.T) {
	// Pre-charging makes the budget behave as the continuation of a settled
	// prefix: with 5 of 6 nodes spent, exactly one more node is admitted.
	b := prechargedBudget(6, 0, 5, 0)
	if !b.chargeNode() {
		t.Fatal("node 6 rejected")
	}
	if b.chargeNode() {
		t.Fatal("node 7 accepted past cap 6")
	}
}

func TestBudgetUncappedChargesNothing(t *testing.T) {
	b := prechargedBudget(0, 0, 0, 0)
	for i := 0; i < 100; i++ {
		if !b.chargeNode() || !b.chargeCluster() {
			t.Fatal("uncapped budget rejected a charge")
		}
	}
	if b.nodes.Load() != 0 || b.clusters.Load() != 0 {
		t.Error("uncapped budget touched its counters on the hot path")
	}
	if b.stopped() {
		t.Error("uncapped budget reports stopped")
	}
}

// TestMatchCandidateZeroBaseline exercises the Equation 7 guard directly
// with a degenerate chain whose baseline step is exactly zero: the member's
// H score would be ±Inf and must be dropped and counted, not sorted.
func TestMatchCandidateZeroBaseline(t *testing.T) {
	// Gene 0: conditions c0 and c1 share the value, c2 is higher. With an
	// absolute γ = 0 the model still orders c2 above both.
	m := matrix.FromRows([][]float64{{0, 0, 1}})
	p := Params{MinG: 2, MinC: 2, Gamma: 0, AbsoluteGamma: true, Epsilon: 1}
	models, err := prepare(m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	mn := newMiner(m, p, models, newBudget(p, nil))
	mn.sc.ensure(m.Rows(), m.Cols())
	// Chain (c0, c1) has baseline 0 for gene 0; candidate c2 is a regulation
	// successor of c1, so without the guard H = 1/0 = +Inf.
	mn.pushChain(0)
	mn.pushChain(1)
	ext := mn.matchCandidate([]member{{gene: 0, up: true}}, 1, 2, mn.sc.frame(2))
	if len(ext) != 0 {
		t.Fatalf("zero-baseline member not dropped: %+v", ext)
	}
	if mn.stats.NonFiniteH != 1 {
		t.Errorf("NonFiniteH = %d, want 1", mn.stats.NonFiniteH)
	}
}

// TestMineDenormalBaselineNoInf builds a mineable matrix where γ = 0 admits
// a denormal baseline step, so the Equation 7 quotient overflows to +Inf
// without the guard. The run must stay finite-H, count the drops, and keep
// every output validating against Definition 3.2.
func TestMineDenormalBaselineNoInf(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	rows := [][]float64{
		{0, tiny, 1e308, 2e308 / 2},
		{0, tiny, 1e308, 2e308 / 2},
		{0, tiny, 1e308, 2e308 / 2},
	}
	m := matrix.FromRows(rows)
	p := Params{MinG: 2, MinC: 3, Gamma: 0, AbsoluteGamma: true, Epsilon: 10}
	res, err := Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NonFiniteH == 0 {
		t.Error("denormal baseline produced no NonFiniteH drops — guard untested")
	}
	for _, b := range res.Clusters {
		if err := CheckBicluster(m, p, b); err != nil {
			t.Errorf("output fails Definition 3.2: %v", err)
		}
	}
	// The guard must behave identically under parallel mining.
	for _, workers := range equivalenceWorkers {
		par, err := MineWith(context.Background(), m, p, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		assertSameRun(t, "parallel denormal", res, par.Clusters, par.Stats)
	}
}

// TestQuotaPoolReserveRelease covers the admission-control pool: bounded
// reservation, exact-capacity fill, rejection past capacity, and release
// making room again.
func TestQuotaPoolReserveRelease(t *testing.T) {
	q := NewQuotaPool(100)
	if !q.TryReserve(60) || !q.TryReserve(40) {
		t.Fatal("reservations within capacity rejected")
	}
	if q.InUse() != 100 {
		t.Fatalf("InUse %d, want 100", q.InUse())
	}
	if q.TryReserve(1) {
		t.Fatal("reservation past capacity granted")
	}
	q.Release(40)
	if !q.TryReserve(40) {
		t.Fatal("released capacity not reusable")
	}
	if q.Capacity() != 100 {
		t.Fatalf("Capacity %d, want 100", q.Capacity())
	}
}

// TestQuotaPoolUnlimitedAndNil: capacity <= 0 means unlimited (nothing is
// accounted), and every method is nil-safe so callers skip the nil checks.
func TestQuotaPoolUnlimitedAndNil(t *testing.T) {
	q := NewQuotaPool(0)
	if !q.TryReserve(1 << 40) {
		t.Fatal("unlimited pool rejected a reservation")
	}
	if q.InUse() != 0 {
		t.Fatalf("unlimited pool accounted %d", q.InUse())
	}
	var nilQ *QuotaPool
	if !nilQ.TryReserve(5) {
		t.Fatal("nil pool rejected a reservation")
	}
	nilQ.Release(5)
	if nilQ.InUse() != 0 || nilQ.Capacity() != 0 {
		t.Fatal("nil pool reports non-zero state")
	}
	// Non-positive n always succeeds and reserves nothing.
	full := NewQuotaPool(1)
	if !full.TryReserve(0) || !full.TryReserve(-3) || full.InUse() != 0 {
		t.Fatal("non-positive reservation was accounted")
	}
}

// TestQuotaPoolOverReleaseClamps: a double release degrades accounting toward
// zero, never opens the pool wider than its capacity.
func TestQuotaPoolOverReleaseClamps(t *testing.T) {
	q := NewQuotaPool(10)
	if !q.TryReserve(5) {
		t.Fatal("reserve failed")
	}
	q.Release(9) // over-release
	if q.InUse() != 0 {
		t.Fatalf("InUse %d after over-release, want 0", q.InUse())
	}
	if !q.TryReserve(10) {
		t.Fatal("pool did not recover full capacity")
	}
	if q.TryReserve(1) {
		t.Fatal("over-release opened the pool past its capacity")
	}
}

// TestQuotaPoolConcurrent hammers one pool from many goroutines; the invariant
// is that in-use never exceeds capacity and fully balances back to zero.
func TestQuotaPoolConcurrent(t *testing.T) {
	const (
		capacity = 64
		workers  = 8
		rounds   = 2000
	)
	q := NewQuotaPool(capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				n := int64(rng.Intn(16) + 1)
				if q.TryReserve(n) {
					if used := q.InUse(); used > capacity {
						t.Errorf("in-use %d exceeds capacity %d", used, capacity)
					}
					q.Release(n)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if q.InUse() != 0 {
		t.Fatalf("pool did not balance: %d still in use", q.InUse())
	}
}
