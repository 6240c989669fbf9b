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
// first condition — so a worker pool mines them through a work queue,
// largest-estimated-subtree first to keep the (highly skewed) load balanced,
// each into its own reordering buffer. The caller's goroutine drains the
// buffers in starting-condition order into a SubtreeMerger, which alone
// decides what the run returns: the output is therefore Mine's — clusters,
// order and Stats, truncated runs included — for any worker count.
//
// The engine keeps what the merger cannot do: the pool, the budget shared by
// every worker (it stops capped runs early; the merger then reconciles the
// exact sequential stop point), panic containment, and subtree spans.
//
// An incremental run (Options.Parent) is the same run with some buffers
// filled before it starts: each clean subtree's buffer holds the parent's
// recorded partial, finished, and only the dirty roots are queued. The
// merger cannot tell the two kinds apart, so a visitor stop inside a
// spliced subtree settles exactly as it would on a cold run.

// mineParallel runs the engine for MineWith: workers >= 1 goroutines over
// the run's shared model set. spliced, when non-nil, holds a recorded
// partial for every subtree that is not to be mined (nil entries are
// mined). It returns the run's Stats and, for a run that covered every
// subtree from condition 0 untruncated, each subtree's isolated Stats.
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
		subs: make([]*subtree, m.Cols())}
	if r := o.Resume; r != nil {
		// Pre-charge the shared budget with the settled prefix so MaxNodes/
		// MaxClusters keep bounding the RUN, not the continuation.
		e.bud.nodes.Store(int64(r.Prefix.Nodes))
		e.bud.clusters.Store(int64(r.Prefix.Clusters))
	}
	g.halt = func() error {
		e.stopWorkers()
		return e.failure()
	}
	for c := range e.subs {
		e.subs[c] = newSubtree()
	}
	for _, part := range spliced {
		if part != nil {
			e.splice(part)
		}
	}
	queue := make(chan int)
	for w := 0; w < workers; w++ {
		e.wg.Add(1)
		go e.worker(queue)
	}
	// The feeder hands out one root at a time, so a worker between subtrees
	// blocks and the emitter gets a CPU to deliver clusters. A pre-filled
	// buffered queue never blocks them: at 2 workers on 2 CPUs it delayed
	// the first cluster of a 600×30 mine from about 4 to 6.6 ms.
	start := g.next
	go func() {
		for _, c := range subtreeOrder(m, p, set) {
			// Earlier subtrees settled before the resume snapshot; spliced
			// ones are already finished.
			if c >= start && (spliced == nil || spliced[c] == nil) {
				queue <- c
			}
		}
		close(queue)
	}()
	err = e.emit(g)
	e.stopWorkers()
	if err != nil {
		return Stats{}, nil, err
	}
	return g.result()
}

// engine runs one parallel mining session: a worker pool mining level-1
// subtrees against a shared budget, and an emitter (the calling goroutine,
// see emit) that feeds their reordering buffers to the run's merger.
type engine struct {
	m    *matrix.Matrix
	p    Params
	set  *rwave.Set // the run's shared model set (see resolveModels)
	bud  *budget
	obs  *Observer
	sp   *obs.Span // optional trace parent for subtree spans; nil = off
	subs []*subtree
	wg   sync.WaitGroup

	// First worker panic of the run, recovered on the worker goroutine and
	// returned as the run's error.
	panicMu  sync.Mutex
	panicErr *PanicError
}

func (e *engine) worker(queue <-chan int) {
	defer e.wg.Done()
	for c := range queue {
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
			e.notePanic(r)
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

// splice fills a subtree's buffer with a recorded partial and finishes it,
// crediting the partial's work to the live counters as if it had just been
// mined, so an uninterrupted run still ends with them equal to its Stats.
func (e *engine) splice(part *SubtreePartial) {
	sub := e.subs[part.Cond]
	sub.items = part.Clusters
	sub.finish(part.Stats, true)
	if e.obs != nil {
		e.obs.nodes.Add(int64(part.Stats.Nodes))
		e.obs.clusters.Add(int64(part.Stats.Clusters))
	}
}

// notePanic records the first worker panic (with the panicking goroutine's
// stack) and cancels the whole run.
func (e *engine) notePanic(r any) {
	e.panicMu.Lock()
	if e.panicErr == nil {
		e.panicErr = &PanicError{Value: r, Stack: debug.Stack()}
	}
	e.panicMu.Unlock()
	e.bud.cancel()
}

// failure returns the error that ends the run regardless of what the merger
// settled: the context interrupting mining, or a contained worker panic.
func (e *engine) failure() error {
	if err := e.bud.contextErr(); err != nil {
		return err
	}
	e.panicMu.Lock()
	defer e.panicMu.Unlock()
	if e.panicErr != nil {
		return e.panicErr
	}
	return nil
}

func (e *engine) stopWorkers() {
	e.bud.cancel()
	e.wg.Wait()
}

// emit hands the merger, in starting-condition order, each buffered cluster
// of the head subtree as soon as its worker finds it, then the finished
// subtree. Workers fill the buffers in an arbitrary, schedule-dependent
// interleaving; only the merger's accounting decides what the run returns.
// The error is the engine's own failure (see failure); the merger's outcome
// is read from it afterwards.
func (e *engine) emit(g *SubtreeMerger) error {
	for !g.done {
		sub := e.subs[g.next]
		read := 0
		for closed := false; !closed && !g.done; {
			var items []SubtreeCluster
			items, closed = sub.take(read)
			for _, sc := range items {
				read++
				if g.offerCluster(sc) {
					break
				}
			}
			if !closed && !g.done {
				sub.wait()
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

// subtree is the reordering buffer of one level-1 subtree: the mining worker
// pushes clusters as it finds them, each tagged with its subtree-local node
// ordinal, and the in-order emitter drains the buffer once every earlier
// subtree has been settled.
type subtree struct {
	mu       sync.Mutex
	items    []SubtreeCluster
	stats    Stats
	complete bool          // runFrom finished without interruption
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
// buffer: the worker only ever appends past its end, never rewrites it.
func (s *subtree) take(from int) ([]SubtreeCluster, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.items[from:], s.closed
}

// wait blocks until a push or finish has happened since the last take.
func (s *subtree) wait() { <-s.note }

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
