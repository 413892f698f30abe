// Package shardcache is the serving plane's sharded single-flight result
// cache. It generalizes the original one-lock cache in internal/server to
// constellation scale: the key space is resharded by consistent hashing
// across N independent in-process shards, each with its own mutex, its own
// single-flight group, and its own bounded LRU over completed entries, so
// concurrent lookups on a hot serving path contend per shard instead of on
// one global lock, and memory stays bounded under an unbounded key space
// (seeds x apps x deployments x planner knobs).
//
// Semantics are identical to the unsharded cache at every shard count:
// for each key at most one computation runs at a time, concurrent callers
// join the in-flight computation, successful values are retained until
// evicted by the LRU bound, and errors are never cached. Because every
// cached value is a deterministic function of its key, responses served
// through this cache are byte-identical at shard counts 1, 4, or 16 (the
// server's determinism suite pins this).
//
// Cancellation is reference-counted per entry: the computation runs on a
// context derived from the cache's base context, and when the last
// interested caller detaches, the computation is cancelled and the slot
// cleared for a clean restart.
//
// Telemetry: each shard owns hit/miss/join/eviction counters in the shared
// registry (scope "<scope>.shard<i>"), and the aggregate counters keep the
// original "<scope>.hits"/"<scope>.misses"/... names so existing dashboard
// panels and SLOs read the same series they always did.
package shardcache

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"kodan/internal/telemetry"
)

// Source says how a lookup was served.
type Source int

// Lookup outcomes.
const (
	// Miss means the caller became the leader and computed the value.
	Miss Source = iota
	// Hit means a previously completed value was returned.
	Hit
	// Join means the caller attached to an in-flight computation
	// (single-flight deduplication).
	Join
)

// String implements fmt.Stringer, for the X-Kodan-Cache response header.
func (s Source) String() string {
	switch s {
	case Hit:
		return "hit"
	case Join:
		return "join"
	default:
		return "miss"
	}
}

// Options sizes a sharded cache.
type Options struct {
	// Shards is the number of independent shards (default 1).
	Shards int
	// MaxEntries bounds the completed entries retained across all shards;
	// the bound is split evenly (at least one per shard) and each shard
	// evicts its own least-recently-used completed entry when full.
	// 0 means unbounded (the pre-sharding behavior).
	MaxEntries int
	// Scope, when set, receives the aggregate and per-shard counters. A nil
	// scope makes them no-ops.
	Scope *telemetry.Scope
}

// Cache is the sharded single-flight cache. Create with New.
type Cache struct {
	ring   ring
	shards []*shard
}

// shard is one independent single-flight cache with an LRU bound.
type shard struct {
	base     context.Context
	capacity int // completed entries retained; 0 = unbounded

	hits, misses, joins, evictions         *telemetry.Counter // per-shard
	aggHits, aggMisses, aggJoins, aggEvict *telemetry.Counter // cache-wide

	mu      sync.Mutex
	entries map[string]*entry
	order   *list.List // completed entries, most recently used in front
}

type entry struct {
	done      chan struct{}
	val       interface{}
	err       error
	waiters   int
	completed bool
	cancel    context.CancelFunc
	elem      *list.Element // position in the shard LRU once completed
}

// New builds a sharded cache whose computations are bounded by base: when
// base is cancelled (server shutdown), every in-flight computation is too.
func New(base context.Context, opts Options) *Cache {
	n := opts.Shards
	if n <= 0 {
		n = 1
	}
	perShard := 0
	if opts.MaxEntries > 0 {
		perShard = opts.MaxEntries / n
		if perShard < 1 {
			perShard = 1
		}
	}
	aggHits := opts.Scope.Counter("hits")
	aggMisses := opts.Scope.Counter("misses")
	aggJoins := opts.Scope.Counter("joins")
	aggEvict := opts.Scope.Counter("evictions")
	c := &Cache{ring: newRing(n), shards: make([]*shard, n)}
	for i := range c.shards {
		var ss *telemetry.Scope
		if opts.Scope != nil {
			ss = opts.Scope.Scope(fmt.Sprintf("shard%d", i))
		}
		c.shards[i] = &shard{
			base:      base,
			capacity:  perShard,
			hits:      ss.Counter("hits"),
			misses:    ss.Counter("misses"),
			joins:     ss.Counter("joins"),
			evictions: ss.Counter("evictions"),
			aggHits:   aggHits,
			aggMisses: aggMisses,
			aggJoins:  aggJoins,
			aggEvict:  aggEvict,
			entries:   make(map[string]*entry),
			order:     list.New(),
		}
	}
	return c
}

// Capacity returns the total completed-entry bound (0 = unbounded).
func (c *Cache) Capacity() int {
	if c.shards[0].capacity == 0 {
		return 0
	}
	return c.shards[0].capacity * len(c.shards)
}

// ShardFor returns the shard index owning key (stable across processes).
func (c *Cache) ShardFor(key string) int { return c.ring.lookup(key) }

// Len returns the number of completed entries plus in-flight computations
// across all shards.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Do returns the cached value for key, or computes it with fn. fn receives
// a context tied to the lifetime of the interested callers; ctx only
// governs how long this caller waits. On ctx expiry the caller detaches
// and receives ctx.Err() while the computation continues for any remaining
// waiters.
func (c *Cache) Do(ctx context.Context, key string, fn func(context.Context) (interface{}, error)) (interface{}, Source, error) {
	return c.shards[c.ring.lookup(key)].do(ctx, key, fn)
}

func (s *shard) do(ctx context.Context, key string, fn func(context.Context) (interface{}, error)) (interface{}, Source, error) {
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		if e.completed {
			s.hits.Inc()
			s.aggHits.Inc()
			s.order.MoveToFront(e.elem)
			s.mu.Unlock()
			return e.val, Hit, e.err
		}
		e.waiters++
		s.joins.Inc()
		s.aggJoins.Inc()
		s.mu.Unlock()
		return s.wait(ctx, key, e, Join)
	}

	cctx, cancel := context.WithCancel(s.base)
	// The computation is detached from the leader's cancellation (it
	// belongs to every waiter), but keeps the leader's identity: its spans
	// parent under the leader's request span and carry its request ID.
	cctx = telemetry.PropagateTelemetry(ctx, cctx)
	e := &entry{done: make(chan struct{}), waiters: 1, cancel: cancel}
	s.entries[key] = e
	s.misses.Inc()
	s.aggMisses.Inc()
	s.mu.Unlock()

	go func() {
		val, err := fn(cctx)
		s.mu.Lock()
		e.val, e.err = val, err
		e.completed = true
		if s.entries[key] == e {
			if err != nil {
				// Never cache failures; the next request retries.
				delete(s.entries, key)
			} else {
				e.elem = s.order.PushFront(key)
				s.evictLocked()
			}
		}
		close(e.done)
		s.mu.Unlock()
		cancel()
	}()
	return s.wait(ctx, key, e, Miss)
}

// evictLocked drops least-recently-used completed entries until the shard
// is back under its bound. In-flight computations are never evicted (they
// are not in the LRU until they complete).
func (s *shard) evictLocked() {
	if s.capacity == 0 {
		return
	}
	for s.order.Len() > s.capacity {
		back := s.order.Back()
		key := back.Value.(string)
		s.order.Remove(back)
		delete(s.entries, key)
		s.evictions.Inc()
		s.aggEvict.Inc()
	}
}

// wait blocks until the entry completes or the caller's context is done.
func (s *shard) wait(ctx context.Context, key string, e *entry, src Source) (interface{}, Source, error) {
	select {
	case <-e.done:
		return e.val, src, e.err
	case <-ctx.Done():
		s.mu.Lock()
		e.waiters--
		if e.waiters == 0 && !e.completed {
			// Last interested caller gone: stop the computation and clear
			// the slot so a future request restarts it.
			e.cancel()
			if s.entries[key] == e {
				delete(s.entries, key)
			}
		}
		s.mu.Unlock()
		return nil, src, ctx.Err()
	}
}
