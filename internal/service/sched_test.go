package service

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// schedTenant builds a bare tenant for scheduler unit tests.
func schedTenant(id string, weight, priority int) *tenant {
	return &tenant{id: id, weight: weight, priority: priority}
}

// granted reports whether the entry has been granted a slot (non-blocking).
func granted(e *schedEntry) bool {
	select {
	case <-e.grant:
		return true
	default:
		return false
	}
}

// shedded reports whether the entry was evicted by the overload shedder.
func shedded(e *schedEntry) bool {
	select {
	case <-e.shed:
		return true
	default:
		return false
	}
}

// enqueueN admits n jobs for tn, returning their entries.
func enqueueN(t *testing.T, s *scheduler, tn *tenant, n int) []*schedEntry {
	t.Helper()
	out := make([]*schedEntry, 0, n)
	for i := 0; i < n; i++ {
		e, err := s.enqueue(&Job{ID: fmt.Sprintf("%s-%d", tn.id, i), tn: tn}, false)
		if err != nil {
			t.Fatalf("enqueue for %s: %v", tn.id, err)
		}
		out = append(out, e)
	}
	return out
}

// admitOne admits one job for tn, returning the admission error.
func admitOne(s *scheduler, tn *tenant, forced bool) error {
	_, err := s.enqueue(&Job{ID: tn.id + "-extra", tn: tn}, forced)
	return err
}

// TestSchedulerWeightedFairness: with one slot and two backlogged tenants of
// weights 2 and 1, stride scheduling grants the heavy tenant twice the slots
// of the light one while both stay backlogged.
func TestSchedulerWeightedFairness(t *testing.T) {
	s := newScheduler(1, 0, NewMetrics())
	heavy := schedTenant("heavy", 2, PriorityNormal)
	light := schedTenant("light", 1, PriorityNormal)

	// Occupy the slot so everything below queues.
	be := enqueueN(t, s, schedTenant("blocker", 1, PriorityNormal), 1)[0]
	if !granted(be) {
		t.Fatal("first entry did not take the free slot")
	}

	hs := enqueueN(t, s, heavy, 6)
	ls := enqueueN(t, s, light, 6)

	// Drain: release the current holder, observe who got the slot next.
	seen := make(map[*schedEntry]bool)
	var order []string
	release := func(holder *Job) *Job {
		s.release(holder)
		for _, e := range append(append([]*schedEntry{}, hs...), ls...) {
			if granted(e) && !seen[e] {
				seen[e] = true
				order = append(order, e.job.tn.id)
				return e.job
			}
		}
		t.Fatalf("release granted nobody (order so far %v)", order)
		return nil
	}
	holder := be.job
	for i := 0; i < 12; i++ {
		holder = release(holder)
	}
	heavyCount := 0
	for _, id := range order[:9] {
		if id == "heavy" {
			heavyCount++
		}
	}
	// Over the first 9 grants both tenants are still backlogged, so the 2:1
	// weights must show exactly 6:3.
	if heavyCount != 6 {
		t.Fatalf("heavy got %d of the first 9 grants, want 6 (order %v)", heavyCount, order)
	}
}

// TestSchedulerPriorityClasses: queued high-priority entries always outrank
// normal and low ones, regardless of stride passes or arrival order.
func TestSchedulerPriorityClasses(t *testing.T) {
	s := newScheduler(1, 0, NewMetrics())
	lowT := schedTenant("low", 10, PriorityLow)
	normT := schedTenant("norm", 10, PriorityNormal)
	highT := schedTenant("high", 1, PriorityHigh)

	be := enqueueN(t, s, schedTenant("blocker", 1, PriorityNormal), 1)[0]
	le := enqueueN(t, s, lowT, 2)
	ne := enqueueN(t, s, normT, 2)
	he := enqueueN(t, s, highT, 1)

	s.release(be.job)
	if !granted(he[0]) {
		t.Fatal("high-priority entry not granted first")
	}
	s.release(he[0].job)
	if !granted(ne[0]) || granted(le[0]) {
		t.Fatal("normal class not granted before low")
	}
	s.release(ne[0].job)
	if !granted(ne[1]) {
		t.Fatal("second normal entry skipped")
	}
	s.release(ne[1].job)
	if !granted(le[0]) {
		t.Fatal("low entry starved after higher classes drained")
	}
}

// TestSchedulerShedWatermark drives the shed state machine end to end: at the
// watermark admission refuses sheddable work outright; work that slips past
// admission (forced entries) activates the shedder, which evicts the
// newest lowest-class entry; higher-class arrivals displace queued low work;
// draining to the low watermark ends shedding.
func TestSchedulerShedWatermark(t *testing.T) {
	s := newScheduler(1, 2, NewMetrics()) // shedHigh=2, shedLow=1
	low := schedTenant("batch", 1, PriorityLow)
	high := schedTenant("inter", 1, PriorityHigh)

	be := enqueueN(t, s, schedTenant("blocker", 1, PriorityNormal), 1)[0]
	ls := enqueueN(t, s, low, 2) // queued: 2 == watermark, no shed yet
	if shedded(ls[0]) || shedded(ls[1]) {
		t.Fatal("shed below the watermark")
	}

	// At the watermark, admission rejects sheddable work instead of queueing
	// it only to evict it.
	err := admitOne(s, low, false)
	if err == nil {
		t.Fatal("sheddable work admitted at the watermark")
	}
	if adm, ok := err.(*admissionError); !ok || adm.status != 429 || adm.retryAfter <= 0 {
		t.Fatalf("watermark rejection %v, want 429 with Retry-After", err)
	}

	// A forced entry (boot-time recovery bypasses admission) crosses the
	// watermark: the shedder activates and evicts the NEWEST entry of the
	// lowest class — the one that just arrived — keeping the oldest work.
	e3, err := s.enqueue(&Job{ID: "batch-late", tn: low}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !shedded(e3) {
		t.Fatal("entry crossing the watermark was not shed")
	}
	if shedded(ls[0]) || shedded(ls[1]) {
		t.Fatal("older entries shed before the newest")
	}
	if !s.saturationSnapshot().shedding {
		t.Fatal("scheduler not in shedding state")
	}
	if got := s.metrics.JobsShed.Load(); got != 1 {
		t.Fatalf("JobsShed %d, want 1", got)
	}

	// While shedding, low-priority admission stays refused...
	if err := admitOne(s, low, false); err == nil {
		t.Fatal("sheddable work admitted while shedding")
	}
	// ...but a high-priority entry is admitted, and — the queue being over
	// the watermark again — its arrival displaces the newest queued low entry.
	hs := enqueueN(t, s, high, 1)
	if !shedded(ls[1]) {
		t.Fatal("high-priority arrival did not displace the newest low entry")
	}

	// Granting the high entry drains the queue to shedLow: shedding ends and
	// low-priority admission reopens.
	s.release(be.job)
	if !granted(hs[0]) {
		t.Fatal("high entry not granted on release")
	}
	if s.saturationSnapshot().shedding {
		t.Fatal("shedding did not end at the low watermark")
	}
	if err := admitOne(s, low, false); err != nil {
		t.Fatalf("admission still refusing after shedding ended: %v", err)
	}
}

// TestSchedulerReserveBounds covers the per-tenant queue and concurrency
// bounds enforced at admission, where the queue entry is the reservation.
func TestSchedulerReserveBounds(t *testing.T) {
	s := newScheduler(1, 0, NewMetrics())
	tn := schedTenant("q", 1, PriorityNormal)
	tn.maxQueued = 3
	tn.maxActive = 3

	// Occupy the slot so the tenant's entries queue.
	be := enqueueN(t, s, schedTenant("blocker", 1, PriorityNormal), 1)[0]
	es := enqueueN(t, s, tn, 3)
	if err := admitOne(s, tn, false); err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("queue bound not enforced: %v", err)
	}
	// Granting one entry frees queue space, but the grant still counts
	// against maxActive (queued + running).
	s.release(be.job)
	if !granted(es[0]) {
		t.Fatal("entry not granted when the slot freed")
	}
	if err := admitOne(s, tn, false); err == nil || !strings.Contains(err.Error(), "quota") {
		t.Fatalf("maxActive bound not enforced (1 running + 2 queued): %v", err)
	}
	// Forced entries (boot recovery) bypass every bound.
	if err := admitOne(s, tn, true); err != nil {
		t.Fatalf("forced entry rejected: %v", err)
	}
}

// TestSchedulerCancelWhileQueued: entries withdrawn by context cancellation —
// racing against concurrent grants and releases — leave no slot leaked and no
// queue residue. Meaningful under -race.
func TestSchedulerCancelWhileQueued(t *testing.T) {
	s := newScheduler(2, 0, NewMetrics())
	tn := schedTenant("c", 1, PriorityNormal)

	const n = 40
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		j := &Job{ID: fmt.Sprintf("c-%d", i), tn: tn}
		e, err := s.enqueue(j, false)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			if i%2 == 0 {
				cancel() // half the entries cancel as fast as possible
			} else {
				defer cancel()
			}
			if err := s.acquire(ctx, e); err == nil {
				time.Sleep(time.Millisecond)
				s.release(j)
			}
		}(i)
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for {
		sat := s.saturationSnapshot()
		if sat.queued == 0 && s.runningSlots() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scheduler did not drain: %+v inUse=%d", sat, s.runningSlots())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSchedulerSubmitDuringShedRace hammers admission/shed/cancel from three
// priority classes at once — forced entries keep pushing the queue
// over the watermark, so evictions race against grants, withdrawals, and
// releases. Every entry must resolve and the scheduler must drain to zero.
// Meaningful under -race.
func TestSchedulerSubmitDuringShedRace(t *testing.T) {
	s := newScheduler(2, 3, NewMetrics())
	tenants := []*tenant{
		schedTenant("batch", 1, PriorityLow),
		schedTenant("std", 2, PriorityNormal),
		schedTenant("vip", 1, PriorityHigh),
	}
	const perTenant = 30
	var wg sync.WaitGroup
	for _, tn := range tenants {
		tn := tn
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				forced := i%3 == 0 // some work bypasses admission and must be shed
				j := &Job{ID: fmt.Sprintf("%s-%d", tn.id, i), tn: tn}
				e, err := s.enqueue(j, forced)
				if err != nil {
					continue // honest 429 path
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
				err = s.acquire(ctx, e)
				cancel()
				if err == nil {
					s.release(j)
				}
			}
		}()
	}
	wg.Wait()
	sat := s.saturationSnapshot()
	if sat.queued != 0 || s.runningSlots() != 0 {
		t.Fatalf("residue after race: queued=%d inUse=%d", sat.queued, s.runningSlots())
	}
	if sat.shedding {
		t.Fatal("shedding flag stuck after the queue drained")
	}
}

// TestRetryAfterDerivation: with drain history, Retry-After ≈ depth/rate;
// without it, the per-entry fallback applies; both clamp to [1s, 120s].
func TestRetryAfterDerivation(t *testing.T) {
	s := newScheduler(2, 0, NewMetrics())
	base := time.Unix(1000, 0)
	now := base
	s.now = func() time.Time { return now }

	// No history: fallback = depth * 2s / slots, clamped at 120s.
	if got := s.retryAfter(4); got != 4*time.Second {
		t.Fatalf("fallback Retry-After %v, want 4s", got)
	}
	if got := s.retryAfter(1000); got != 120*time.Second {
		t.Fatalf("uncapped Retry-After %v", got)
	}

	// Ten completions over 9 seconds → ~1.1 jobs/sec → depth 8 ≈ 7s.
	for i := 0; i < 10; i++ {
		now = base.Add(time.Duration(i) * time.Second)
		s.drain.note(now)
	}
	now = base.Add(9 * time.Second)
	got := s.retryAfter(8)
	if got < 6*time.Second || got > 10*time.Second {
		t.Fatalf("derived Retry-After %v, want ≈7s", got)
	}
	// Sub-second estimates clamp up to 1s so clients never busy-loop.
	if got := s.retryAfter(1); got < time.Second {
		t.Fatalf("Retry-After %v below the 1s floor", got)
	}
}

// TestSchedulerIdleTenantPassResync: a tenant that sat idle while others
// accumulated pass must not bank scheduling credit — on re-activation its
// pass jumps to the active minimum, so the two tenants alternate instead of
// the newcomer monopolizing the slot.
func TestSchedulerIdleTenantPassResync(t *testing.T) {
	s := newScheduler(1, 0, NewMetrics())
	a := schedTenant("a", 1, PriorityNormal)
	b := schedTenant("b", 1, PriorityNormal)

	be := enqueueN(t, s, schedTenant("blocker", 1, PriorityNormal), 1)[0]
	as := enqueueN(t, s, a, 4)
	holder := be.job
	for _, e := range as {
		s.release(holder)
		if !granted(e) {
			t.Fatal("backlogged tenant not granted")
		}
		holder = e.job
	}
	// Tenant a has advanced its pass by four grants; b enqueues fresh.
	// Without re-sync b's pass of zero would win four grants in a row.
	bs := enqueueN(t, s, b, 2)
	as2 := enqueueN(t, s, a, 2)
	s.release(holder)
	var first, second *schedEntry
	switch {
	case granted(bs[0]):
		first, second = bs[0], as2[0]
	case granted(as2[0]):
		first, second = as2[0], bs[0]
	default:
		t.Fatal("nobody granted after release")
	}
	s.release(first.job)
	if !granted(second) {
		t.Fatal("pass re-sync failed: one tenant monopolized the slot")
	}
}
