package core

import (
	"context"
	"runtime/debug"
	"sort"
	"sync"

	"regcluster/internal/faultinject"
	"regcluster/internal/matrix"
	"regcluster/internal/obs"
	"regcluster/internal/rwave"
)

// The in-process parallel engine. Level-1 subtrees (starting conditions) are
// independent — a representative chain lives entirely in the subtree of its
// first condition — so they are mined through one queue of roots,
// largest-estimated-subtree first to keep the (highly skewed) load balanced,
// each into its own reordering buffer. The caller's goroutine drains the
// buffers in starting-condition order into a SubtreeMerger, which alone
// decides what the run returns: the output is therefore Mine's — clusters,
// order and Stats, truncated runs included — for any worker count.
//
// The engine keeps what the merger cannot do: the queue and its local worker
// pool, the budget shared by every worker (it stops capped runs early; the
// merger then reconciles the exact sequential stop point), panic
// containment, and subtree spans.
//
// A buffer can also be filled from outside the pool, through one step,
// deliver: an incremental run (Options.Parent) delivers each clean
// subtree's recorded partial before it starts and queues only the dirty
// roots, and a caller the queue is shared with (Options.Share) delivers the
// clusters of the roots it takes as its remote workers ship them. A resumed
// run (Options.Resume) folds the subtrees its checkpoint settled as recorded
// Stats and queues its head as a put-back root: a buffer that already holds
// the clusters delivered before the snapshot, which its producer skips. The
// merger cannot tell the kinds apart, so a visitor stop inside a spliced,
// remote or resumed subtree settles exactly as it would on a cold local run.

// mineParallel runs the engine for MineWith: workers local goroutines (none
// is allowed only when o.Share takes the roots instead) over the run's
// shared model set. spliced, when non-nil, holds a recorded partial for
// every subtree that is not to be mined (nil entries are mined). It returns
// the run's Stats and, unless the run truncated, each subtree's isolated
// Stats. The shared budget counts only this run's mining: it stops capped
// runs early, and the merger's accounting against the resumed prefix is
// exact without it.
func mineParallel(ctx context.Context, m *matrix.Matrix, p Params, set *rwave.Set, workers int, visit Visitor, o Options, sp *obs.Span, spliced []*SubtreePartial) (Stats, []Stats, error) {
	g, err := newMerger(ctx, m, p, set, visit, o.Resume, o.Checkpoint)
	if err != nil {
		return Stats{}, nil, err
	}
	g.sp = sp
	if g.done { // the checkpoint already covers the whole run
		return g.result()
	}
	e := &engine{m: m, p: p, set: set, bud: newBudget(p, ctx), obs: o.Observer, sp: sp,
		subs: make([]*subtree, m.Cols()), abort: make(chan struct{})}
	g.halt = func() error {
		e.stopWorkers()
		return e.failure()
	}
	for c := range e.subs {
		e.subs[c] = newSubtree()
	}
	// The resumed head's buffer holds what the run delivered before its
	// snapshot; the merger reads on from there.
	e.subs[g.next].items = make([]SubtreeCluster, g.taken)
	for _, part := range spliced {
		if part != nil && part.Cond >= g.next {
			// Like every producer, a partial skips what its buffer holds.
			held := e.subs[part.Cond].buffered()
			batch := part.Clusters[min(held, len(part.Clusters)):]
			e.deliver(part.Cond, held+len(batch), batch, &part.Stats)
		}
	}
	// Earlier subtrees settled before the resume snapshot; spliced ones are
	// already finished.
	e.q = &SubtreeQueue{e: e, taken: make([]bool, m.Cols()), shared: o.Share != nil, wake: make(chan struct{}, 1)}
	for _, c := range subtreeOrder(m, p, set) {
		if c >= g.next && (spliced == nil || spliced[c] == nil) {
			e.q.roots = append(e.q.roots, c)
		}
	}
	var unshare func()
	if o.Share != nil {
		unshare = o.Share(e.q)
	}
	if workers > 0 {
		// The feeder hands out one root at a time, so a worker between
		// subtrees blocks and the emitter gets a CPU to deliver clusters. A
		// pre-filled buffered queue never blocks them: at 2 workers on 2
		// CPUs it delayed the first cluster of a 600×30 mine from about 4 to
		// 6.6 ms.
		feed := make(chan int)
		for w := 0; w < workers; w++ {
			e.wg.Add(1)
			go e.worker(feed)
		}
		go func() {
			for c, ok := e.q.next(); ok; c, ok = e.q.next() {
				feed <- c
			}
			close(feed)
		}()
	}
	err = e.emit(g)
	e.stopWorkers()
	if unshare != nil {
		unshare()
	}
	if err != nil {
		return Stats{}, nil, err
	}
	return g.result()
}

// engine runs one parallel mining session: a worker pool mining level-1
// subtrees from the run's queue against a shared budget, and an emitter (the
// calling goroutine, see emit) that feeds their reordering buffers to the
// run's merger.
type engine struct {
	m    *matrix.Matrix
	p    Params
	set  *rwave.Set // the run's shared model set (see resolveModels)
	bud  *budget
	obs  *Observer
	sp   *obs.Span // optional trace parent for subtree spans; nil = off
	subs []*subtree
	q    *SubtreeQueue
	wg   sync.WaitGroup

	// First error that ends the run whatever the merger settles: a worker
	// panic, recovered on the worker goroutine, or a taker's Fail. abort
	// closes with it, so an emitter waiting on a remote subtree wakes.
	errMu sync.Mutex
	err   error
	abort chan struct{}
}

func (e *engine) worker(feed <-chan int) {
	defer e.wg.Done()
	for c := range feed {
		e.mineSubtree(c)
	}
}

// mineSubtree mines one level-1 subtree on a worker goroutine. A panic inside
// the miner is contained here, never crossing the goroutine: it is recorded
// as the run's PanicError, every sibling stops via the shared budget, and the
// subtree is finished-incomplete so the emitter cannot block on it.
func (e *engine) mineSubtree(c int) {
	sub := e.subs[c]
	defer func() {
		if r := recover(); r != nil {
			e.fail(&PanicError{Value: r, Stack: debug.Stack()})
			sub.finish(Stats{}, false)
		}
	}()
	_ = faultinject.Hook("core.mine.subtree") // panic/delay injection for containment tests
	if e.bud.stopped() {
		sub.finish(Stats{}, false)
		return
	}
	ssp := e.sp.Start("subtree")
	mn := newMiner(e.m, e.p, e.set, e.bud)
	mn.sink = sub.push
	if skip := sub.buffered(); skip > 0 {
		// A root put back — by a taker, or as a resumed run's head: its
		// buffer already holds the first skip clusters, which this run
		// suppresses as a merger rerun does.
		mn.sink = func(b *Bicluster, node int) bool {
			if skip > 0 {
				skip--
				return true
			}
			return sub.push(b, node)
		}
	}
	mn.obs = e.obs
	mn.runFrom(c)
	if ssp != nil {
		ssp.SetInt("cond", int64(c))
		ssp.Add("nodes", int64(mn.stats.Nodes))
		ssp.Add("clusters", int64(mn.stats.Clusters))
		if mn.stop {
			ssp.SetAttr("interrupted", "true")
		}
		ssp.End()
	}
	// The subtree is complete exactly when the miner ran it to the end:
	// any stop (own cap trip or a sibling's cancellation) leaves it
	// schedule-dependent and the merger re-mines it if needed.
	sub.finish(mn.stats, !mn.stop)
}

// deliver appends a batch mined outside the worker pool to subtree c's
// buffer — a recorded partial of a parent run, or a taker's shipment — and
// finishes the subtree when final carries its isolated Stats. watermark is
// the buffered count the batch must bring the buffer to, so a batch that
// does not extend it exactly is refused. The work is credited to the live
// counters as if it had just been mined here, so an uninterrupted run still
// ends with them equal to its Stats.
func (e *engine) deliver(c, watermark int, batch []SubtreeCluster, final *Stats) bool {
	if !e.subs[c].extend(watermark, batch, final) {
		return false
	}
	if e.obs != nil {
		e.obs.clusters.Add(int64(len(batch)))
		if final != nil {
			e.obs.nodes.Add(int64(final.Nodes))
		}
	}
	return true
}

// fail records the first error that ends the run and stops every miner.
func (e *engine) fail(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
		close(e.abort)
	}
	e.errMu.Unlock()
	e.bud.cancel()
}

// failure returns the error that ends the run regardless of what the merger
// settled: the context interrupting mining, or the one fail recorded.
func (e *engine) failure() error {
	if err := e.bud.contextErr(); err != nil {
		return err
	}
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.err
}

// stopWorkers ends the local mining: the budget stops the workers at their
// next node, the queue hands out nothing more, and the call returns once
// every worker has.
func (e *engine) stopWorkers() {
	e.bud.cancel()
	e.q.close()
	e.wg.Wait()
}

// emit hands the merger, in starting-condition order, each buffered cluster
// of the head subtree as soon as its producer finds it, then the finished
// subtree. Producers fill the buffers in an arbitrary, schedule-dependent
// interleaving; only the merger's accounting decides what the run returns.
// The error is the engine's own failure (see failure); the merger's outcome
// is read from it afterwards.
func (e *engine) emit(g *SubtreeMerger) error {
	for !g.done {
		sub := e.subs[g.next]
		for closed := false; !closed && !g.done; {
			// The merger has consumed exactly the first g.taken clusters.
			var items []SubtreeCluster
			items, closed = sub.take(g.taken)
			for _, sc := range items {
				if g.offerCluster(sc) {
					break
				}
			}
			if !closed && !g.done {
				if err := e.wait(sub); err != nil {
					return err
				}
			}
		}
		if g.done {
			break
		}
		st, complete := sub.final()
		if err := e.failure(); err != nil {
			return err
		}
		g.finishHead(st, complete)
	}
	return nil
}

// wait blocks until sub's producer has pushed or finished since the last
// take, or the run fails: a worker panic, a taker's Fail, or the context
// ending. A local worker always finishes its subtree; the other two matter
// when a remote taker holds the head.
func (e *engine) wait(sub *subtree) error {
	select {
	case <-sub.note:
		return nil
	case <-e.abort:
	case <-e.bud.done:
		e.bud.stopped() // records the context's interruption
	}
	return e.failure()
}

// SubtreeQueue is a parallel run's queue of level-1 roots still to mine, in
// dispatch order. The engine's feeder hands them to the local workers one at
// a time; Options.Share opens the queue to a caller that mines roots
// elsewhere, as a distributed coordinator does through its remote workers.
// Such a taker streams the clusters of each root it takes into the run's
// buffer for that root, where the merger reads them exactly as it reads a
// local worker's. The methods are safe for concurrent use; a taker stops
// calling them once the run has called the function Share returned.
type SubtreeQueue struct {
	e      *engine
	mu     sync.Mutex
	roots  []int         // queued roots, next first
	taken  []bool        // roots held by a taker through Take
	shared bool          // a taker may put roots back after the queue empties
	closed bool          // the run is stopping: nothing more is handed out
	wake   chan struct{} // capacity 1: a root came back, or the queue closed
}

// Take removes the next queued root and returns it with the number of its
// clusters already buffered — shipped by an earlier taker, or delivered
// before a resumed run's snapshot — which the taker must not deliver again.
// ok is false when no root is queued.
func (q *SubtreeQueue) Take() (cond, buffered int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if cond, ok = q.pop(); !ok {
		return 0, 0, false
	}
	q.taken[cond] = true
	return cond, q.e.subs[cond].buffered(), true
}

// Append adds a batch of the taken root cond's clusters, in its DFS order,
// and reports whether it was accepted. watermark is the number buffered
// once the batch is, so a batch that does not extend what is buffered
// exactly — replayed, reordered, or from a confused taker — is refused. The
// last batch carries final, the subtree's isolated Stats from
// MineSubtreeFunc, and hands the root back to the run; an incomplete final
// (Truncated) is refused.
func (q *SubtreeQueue) Append(cond, watermark int, batch []SubtreeCluster, final *Stats) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if cond < 0 || cond >= len(q.taken) || !q.taken[cond] || (final != nil && final.Truncated) {
		return false
	}
	if !q.e.deliver(cond, watermark, batch, final) {
		return false
	}
	q.taken[cond] = final == nil
	return true
}

// Requeue puts the taken root cond back at the front of the queue; what its
// buffer holds stays, and its next taker starts after it. Once the run is
// stopping the root finishes incomplete instead, and the merger re-mines
// its remainder if it still needs it.
func (q *SubtreeQueue) Requeue(cond int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if cond < 0 || cond >= len(q.taken) || !q.taken[cond] {
		return
	}
	q.taken[cond] = false
	if q.closed {
		q.e.subs[cond].finish(Stats{}, false)
		return
	}
	q.roots = append([]int{cond}, q.roots...)
	q.signal()
}

// Fail ends the run with err: MineWith returns it.
func (q *SubtreeQueue) Fail(err error) { q.e.fail(err) }

// next pops the root the feeder hands to a local worker. It waits while a
// shared queue is empty, since a taker may still put a root back; false
// means no root will come.
func (q *SubtreeQueue) next() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.roots) == 0 && q.shared && !q.closed {
		q.mu.Unlock()
		<-q.wake
		q.mu.Lock()
	}
	return q.pop()
}

// pop removes the next queued root; the caller holds q.mu.
func (q *SubtreeQueue) pop() (int, bool) {
	if len(q.roots) == 0 {
		return 0, false
	}
	c := q.roots[0]
	q.roots = q.roots[1:]
	return c, true
}

// close stops the hand-out: every root still queued finishes incomplete, so
// the merger re-mines it when its turn comes, as does a root put back later.
func (q *SubtreeQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	for _, c := range q.roots {
		q.e.subs[c].finish(Stats{}, false)
	}
	q.roots = nil
	q.signal()
}

func (q *SubtreeQueue) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// subtree is the reordering buffer of one level-1 subtree: its producer — a
// local worker, or a delivery from outside the pool — adds clusters as they
// are found, each tagged with its subtree-local node ordinal, and the
// in-order emitter drains the buffer once every earlier subtree has been
// settled.
type subtree struct {
	mu       sync.Mutex
	items    []SubtreeCluster
	stats    Stats
	complete bool          // the producer mined the subtree to its end
	closed   bool          // no more pushes will arrive
	note     chan struct{} // capacity-1 wakeup for the emitter
}

func newSubtree() *subtree {
	return &subtree{note: make(chan struct{}, 1)}
}

// push is the worker-side miner sink.
func (s *subtree) push(b *Bicluster, node int) bool {
	s.mu.Lock()
	s.items = append(s.items, SubtreeCluster{Cluster: b, Node: node})
	s.mu.Unlock()
	s.wake()
	return true
}

// extend appends a batch delivered from outside the worker pool when it
// brings the buffer to exactly watermark clusters, finishing the subtree
// complete when final is set (see engine.deliver).
func (s *subtree) extend(watermark int, batch []SubtreeCluster, final *Stats) bool {
	s.mu.Lock()
	if s.closed || len(s.items)+len(batch) != watermark {
		s.mu.Unlock()
		return false
	}
	s.items = append(s.items, batch...)
	if final != nil {
		s.stats, s.complete, s.closed = *final, true, true
	}
	s.mu.Unlock()
	s.wake()
	return true
}

// buffered returns the number of clusters the buffer holds.
func (s *subtree) buffered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}

func (s *subtree) finish(stats Stats, complete bool) {
	s.mu.Lock()
	s.stats = stats
	s.complete = complete
	s.closed = true
	s.mu.Unlock()
	s.wake()
}

func (s *subtree) wake() {
	select {
	case s.note <- struct{}{}:
	default:
	}
}

// take returns the buffered clusters from index `from` on, plus the closed
// flag. Close happens under the same lock as the final push, so a take that
// observes closed has observed every cluster. The returned slice aliases the
// buffer: the producer only ever appends past its end, never rewrites it.
func (s *subtree) take(from int) ([]SubtreeCluster, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.items[from:], s.closed
}

func (s *subtree) final() (Stats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats, s.complete
}

// subtreeOrder returns the starting conditions sorted by decreasing subtree
// size estimate — the number of initial (gene, direction) members pruning
// (2) admits, the same count runFrom materializes. Level-1 subtree sizes are
// highly skewed, so dispatching the largest first keeps the pool busy to the
// end instead of leaving one worker grinding a giant subtree after the queue
// drains. Ties keep ascending condition order, so dispatch is deterministic.
func subtreeOrder(m *matrix.Matrix, p Params, set *rwave.Set) []int {
	nConds := m.Cols()
	tab := set.Tables()
	minC := rootChainBound(p)
	size := make([]int, nConds)
	for c := range size {
		size[c] = geneSet(tab.UpLen(c, minC)).count() + geneSet(tab.DownLen(c, minC)).count()
	}
	order := make([]int, nConds)
	for c := range order {
		order[c] = c
	}
	sort.SliceStable(order, func(a, b int) bool { return size[order[a]] > size[order[b]] })
	return order
}
