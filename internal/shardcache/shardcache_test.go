package shardcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"kodan/internal/telemetry"
)

func TestRingDeterministicAndBalanced(t *testing.T) {
	a := newRing(8)
	b := newRing(8)
	counts := make([]int, 8)
	for i := 0; i < 20000; i++ {
		key := fmt.Sprintf("plan:%d:orin:0.21", i)
		sa, sb := a.lookup(key), b.lookup(key)
		if sa != sb {
			t.Fatalf("ring not deterministic: key %q -> %d vs %d", key, sa, sb)
		}
		counts[sa]++
	}
	for s, n := range counts {
		// Expected 2500/shard; 128 vnodes keeps skew within ~2x of uniform.
		if n < 900 || n > 6000 {
			t.Fatalf("shard %d badly unbalanced: %d of 20000 keys", s, n)
		}
	}
}

func TestRingLookupStableAcrossShardCounts(t *testing.T) {
	// Same key always lands on the same shard for a given count — and a
	// single-shard ring maps everything to shard 0.
	r1 := newRing(1)
	for i := 0; i < 100; i++ {
		if got := r1.lookup(fmt.Sprintf("k%d", i)); got != 0 {
			t.Fatalf("1-shard ring sent k%d to shard %d", i, got)
		}
	}
}

func TestDoMissThenHit(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New(context.Background(), Options{Shards: 4, Scope: reg.Scope("cache")})
	calls := 0
	fn := func(context.Context) (interface{}, error) {
		calls++
		return "v", nil
	}
	v, src, err := c.Do(context.Background(), "k", fn)
	if err != nil || v != "v" || src != Miss {
		t.Fatalf("first Do = (%v, %v, %v), want (v, miss, nil)", v, src, err)
	}
	v, src, err = c.Do(context.Background(), "k", fn)
	if err != nil || v != "v" || src != Hit {
		t.Fatalf("second Do = (%v, %v, %v), want (v, hit, nil)", v, src, err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	hits, misses := reg.Counter("cache.hits").Load(), reg.Counter("cache.misses").Load()
	if hits != 1 || misses != 1 {
		t.Fatalf("counters hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestDoSingleFlightJoin(t *testing.T) {
	c := New(context.Background(), Options{Shards: 4})
	release := make(chan struct{})
	started := make(chan struct{})
	var calls int
	fn := func(context.Context) (interface{}, error) {
		calls++
		close(started)
		<-release
		return 42, nil
	}
	var wg sync.WaitGroup
	results := make([]Source, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, results[0], _ = c.Do(context.Background(), "k", fn)
	}()
	<-started
	for i := 1; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, src, err := c.Do(context.Background(), "k", fn)
			if err != nil || v != 42 {
				t.Errorf("join %d: (%v, %v)", i, v, err)
			}
			results[i] = src
		}(i)
	}
	// Give the joiners time to attach before releasing the leader.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	if results[0] != Miss {
		t.Fatalf("leader source = %v, want miss", results[0])
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(context.Background(), Options{Shards: 2})
	boom := errors.New("boom")
	calls := 0
	fn := func(context.Context) (interface{}, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return "ok", nil
	}
	if _, _, err := c.Do(context.Background(), "k", fn); !errors.Is(err, boom) {
		t.Fatalf("first Do err = %v, want boom", err)
	}
	v, src, err := c.Do(context.Background(), "k", fn)
	if err != nil || v != "ok" || src != Miss {
		t.Fatalf("retry Do = (%v, %v, %v), want (ok, miss, nil)", v, src, err)
	}
}

func TestLRUEvictionAndCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	scope := reg.Scope("cache")
	// One shard, capacity 2: the third distinct key evicts the LRU.
	c := New(context.Background(), Options{Shards: 1, MaxEntries: 2, Scope: scope})
	fill := func(k string) {
		if _, _, err := c.Do(context.Background(), k, func(context.Context) (interface{}, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	fill("a")
	fill("b")
	// Touch "a" so "b" becomes least recently used.
	if _, src, _ := c.Do(context.Background(), "a", nil); src != Hit {
		t.Fatalf("touch a: src = %v, want hit", src)
	}
	fill("c") // evicts b
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, src, _ := c.Do(context.Background(), "a", nil); src != Hit {
		t.Fatalf("a should survive eviction, got %v", src)
	}
	calls := 0
	if _, src, _ := c.Do(context.Background(), "b", func(context.Context) (interface{}, error) { calls++; return "b2", nil }); src != Miss || calls != 1 {
		t.Fatalf("b should have been evicted: src=%v calls=%d", src, calls)
	}
	evictions := reg.Counter("cache.evictions").Load()
	if evictions < 1 {
		t.Fatalf("evictions = %d, want >= 1", evictions)
	}
	if got := reg.Counter("cache.shard0.evictions").Load(); got != evictions {
		t.Fatalf("shard eviction counter = %d, want the aggregate %d", got, evictions)
	}
}

func TestCapacitySplitAcrossShards(t *testing.T) {
	c := New(context.Background(), Options{Shards: 4, MaxEntries: 8})
	if c.Capacity() != 8 {
		t.Fatalf("Capacity = %d, want 8", c.Capacity())
	}
	if u := New(context.Background(), Options{Shards: 4}); u.Capacity() != 0 {
		t.Fatalf("unbounded Capacity = %d, want 0", u.Capacity())
	}
	// MaxEntries below shard count still gives each shard one slot.
	if s := New(context.Background(), Options{Shards: 4, MaxEntries: 2}); s.Capacity() != 4 {
		t.Fatalf("small Capacity = %d, want 4", s.Capacity())
	}
}

func TestLastWaiterCancelStopsComputation(t *testing.T) {
	c := New(context.Background(), Options{Shards: 1})
	cancelled := make(chan struct{})
	started := make(chan struct{})
	fn := func(ctx context.Context) (interface{}, error) {
		close(started)
		<-ctx.Done()
		close(cancelled)
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, _, err := c.Do(ctx, "k", fn); !errors.Is(err, context.Canceled) {
			t.Errorf("Do err = %v, want canceled", err)
		}
	}()
	<-started
	cancel()
	select {
	case <-cancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("computation not cancelled after last waiter left")
	}
	<-done
	// The slot is cleared: a new request restarts the computation.
	v, src, err := c.Do(context.Background(), "k", func(context.Context) (interface{}, error) { return "fresh", nil })
	if err != nil || v != "fresh" || src != Miss {
		t.Fatalf("restart Do = (%v, %v, %v), want (fresh, miss, nil)", v, src, err)
	}
}

func TestShardForMatchesDo(t *testing.T) {
	c := New(context.Background(), Options{Shards: 16})
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		want := c.ShardFor(key)
		if _, _, err := c.Do(context.Background(), key, func(context.Context) (interface{}, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
		s := c.shards[want]
		s.mu.Lock()
		_, ok := s.entries[key]
		s.mu.Unlock()
		if !ok {
			t.Fatalf("key %q not stored in ShardFor shard %d", key, want)
		}
	}
}
