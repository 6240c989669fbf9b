package service

import (
	"container/list"
	"fmt"
	"sync"

	"regcluster/internal/rwave"
)

// modelCache is the shared-RWave-build cache: a strict LRU from core.ModelKey
// to an immutable prebuilt model set, plus single-flight build sharing. The
// RWave^γ index depends only on (dataset, γ-scheme) — Lemma 3.1 — so every
// job and sweep point that agrees on those reuses one build; ε/MinG/MinC/cap
// variations all hit.
//
// Accounting: a lookup that finds a cached entry OR joins an in-flight build
// counts as a hit (a build was avoided); only the lookup that actually starts
// a build counts as a miss. "misses == distinct γ groups built" is the
// invariant the sweep smoke test asserts.
//
// The cache deliberately mirrors resultCache: entry-count bound, LRU
// promotion on hit, and an onEvict hook observing every LRU eviction (the
// models are memory-only, so the default hook just counts; tests attach their
// own).
type modelCache struct {
	metrics *Metrics

	mu       sync.Mutex
	max      int
	ll       *list.List // front = most recently used; values are *modelItem
	items    map[string]*list.Element
	inflight map[string]*modelBuild
	// onEvict, when set, observes every LRU eviction — symmetric with
	// resultCache.onEvict.
	onEvict func(key string)
}

type modelItem struct {
	key    string
	models *rwave.Set
}

// modelBuild is one in-flight construction; waiters block on done and then
// read models/err (published before the close, so the channel ordering makes
// the reads safe).
type modelBuild struct {
	done   chan struct{}
	models *rwave.Set
	err    error
}

// newModelCache returns a cache bounded to maxEntries. maxEntries <= 0
// disables retention — concurrent duplicate builds are still coalesced, but
// nothing survives the last waiter.
func newModelCache(maxEntries int, metrics *Metrics) *modelCache {
	return &modelCache{
		metrics:  metrics,
		max:      maxEntries,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*modelBuild),
	}
}

// getOrBuild returns the model set for key, building it via build() at most
// once across all concurrent callers. A failed or panicking build is
// propagated to every waiter as an error and cached nowhere, so a later
// caller retries.
func (c *modelCache) getOrBuild(key string, build func() (*rwave.Set, error)) (*rwave.Set, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		models := el.Value.(*modelItem).models
		c.mu.Unlock()
		c.metrics.ModelCacheHits.Add(1)
		return models, nil
	}
	if b, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		// Joining someone else's build avoids a build of our own: a hit.
		c.metrics.ModelCacheHits.Add(1)
		<-b.done
		return b.models, b.err
	}
	b := &modelBuild{done: make(chan struct{})}
	c.inflight[key] = b
	c.mu.Unlock()
	c.metrics.ModelCacheMisses.Add(1)

	func() {
		defer func() {
			if r := recover(); r != nil {
				// Contain builder panics so waiters never hang; validation
				// upstream makes this unreachable in practice.
				b.err = fmt.Errorf("service: model build panicked: %v", r)
			}
		}()
		b.models, b.err = build()
	}()

	c.mu.Lock()
	delete(c.inflight, key)
	if b.err == nil && c.max > 0 {
		if _, dup := c.items[key]; !dup {
			for c.ll.Len() >= c.max {
				oldest := c.ll.Back()
				c.ll.Remove(oldest)
				old := oldest.Value.(*modelItem).key
				delete(c.items, old)
				c.metrics.ModelCacheEvictions.Add(1)
				if c.onEvict != nil {
					c.onEvict(old)
				}
			}
			c.items[key] = c.ll.PushFront(&modelItem{key: key, models: b.models})
		}
	}
	c.mu.Unlock()
	close(b.done)
	return b.models, b.err
}

// peek returns the cached model set for key without building, joining an
// in-flight build, or touching the hit/miss counters — the "misses == distinct
// γ groups built" invariant is unaffected by peeks. A found entry is still
// promoted: a peek that enables a model repair is a use worth retaining.
func (c *modelCache) peek(key string) (*rwave.Set, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*modelItem).models, true
}

// len returns the number of retained entries (in-flight builds excluded).
func (c *modelCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
