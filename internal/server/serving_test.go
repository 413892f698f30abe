package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kodan"
	"kodan/internal/telemetry"
)

// stubPipeline returns NewSystem/Transform overrides that serve one
// prebuilt tiny system and application regardless of seed, so tests can
// mint distinct cache keys (distinct seeds) without paying a real
// transformation per key. onNewSystem, when set, observes each workspace
// build (which runs while holding a worker slot) with the request's seed.
func stubPipeline(t *testing.T, onNewSystem func(seed uint64)) (NewSystemFunc, TransformFunc) {
	t.Helper()
	sys, err := kodan.NewSystemCtx(context.Background(), tinyTransformConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	app, err := sys.TransformVariantCtx(context.Background(), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	newSystem := func(ctx context.Context, c kodan.TransformConfig) (*kodan.System, error) {
		if onNewSystem != nil {
			onNewSystem(c.Seed)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return sys, nil
	}
	transform := func(ctx context.Context, _ *kodan.System, _ int, _ bool) (*kodan.Application, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return app, nil
	}
	return newSystem, transform
}

func transformBody(seed uint64, app int) string {
	return fmt.Sprintf(`{"seed":%d,"app":%d}`, seed, app)
}

// postTenant posts body with an explicit tenant identity.
func postTenant(t *testing.T, ts *httptest.Server, path, tenant, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	return resp, buf.Bytes()
}

// TestShardCountByteIdentical runs the same request stream against
// servers sharded 1, 4, and 16 ways and requires byte-identical
// responses: sharding may only move lock contention, never results.
func TestShardCountByteIdentical(t *testing.T) {
	stream := []struct{ path, body string }{
		{"/v1/plan", planBody(1)},
		{"/v1/plan", planBody(2)},
		{"/v1/transform", `{"app":1}`},
		{"/v1/plan", planBody(1)}, // replay: must hit, identically
		{"/v1/transform", `{"app":1}`},
	}
	var want [][]byte
	for _, shards := range []int{1, 4, 16} {
		cfg := testConfig()
		cfg.CacheShards = shards
		s := New(cfg)
		ts := httptest.NewServer(s.Handler())
		bodies := make([][]byte, len(stream))
		for i, req := range stream {
			resp, data := post(t, ts.Client(), ts.URL+req.path, req.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("shards=%d %s: status %d (%s)", shards, req.path, resp.StatusCode, data)
			}
			bodies[i] = data
		}
		ts.Close()
		s.Close()
		if want == nil {
			want = bodies
			continue
		}
		for i := range stream {
			if !bytes.Equal(bodies[i], want[i]) {
				t.Errorf("shards=%d: response %d (%s) differs from single-shard baseline", shards, i, stream[i].path)
			}
		}
	}
}

// TestCacheEvictionBound pins the LRU satellite: with CacheEntries set,
// completed entries stay bounded, evictions are counted, and an evicted
// key recomputes correctly on the next request.
func TestCacheEvictionBound(t *testing.T) {
	var builds atomic.Int64
	cfg := testConfig()
	cfg.CacheShards = 1
	cfg.CacheEntries = 2
	cfg.NewSystem, cfg.Transform = stubPipeline(t, func(uint64) { builds.Add(1) })
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Each distinct seed creates two entries (workspace + application), so
	// three seeds churn a 2-entry cache hard.
	for _, seed := range []uint64{101, 102, 103} {
		resp, data := post(t, ts.Client(), ts.URL+"/v1/transform", transformBody(seed, 1))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d (%s)", seed, resp.StatusCode, data)
		}
	}
	if got := s.cache.Capacity(); got != 2 {
		t.Fatalf("cache capacity = %d, want 2", got)
	}
	if got := s.cache.Len(); got > 2 {
		t.Fatalf("cache holds %d completed entries, over the bound of 2", got)
	}
	if s.Registry().Counter("server.cache.evictions").Load() == 0 {
		t.Fatal("no evictions counted after churning a bounded cache")
	}
	// Seed 101's entries are long evicted: the request must recompute (a
	// fresh workspace build), not fail.
	before := builds.Load()
	resp, data := post(t, ts.Client(), ts.URL+"/v1/transform", transformBody(101, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evicted replay: status %d (%s)", resp.StatusCode, data)
	}
	if resp.Header.Get("X-Kodan-Cache") != "miss" {
		t.Errorf("evicted replay cache source %q, want miss", resp.Header.Get("X-Kodan-Cache"))
	}
	if builds.Load() == before {
		t.Error("evicted key served without recomputation")
	}
}

// TestWeightedFairServingNoStarvation floods the pool from a heavy tenant
// and checks the fair queue's grant order: a light tenant's requests are
// interleaved by virtual finish time instead of waiting behind the whole
// heavy backlog.
func TestWeightedFairServingNoStarvation(t *testing.T) {
	var mu sync.Mutex
	var order []uint64
	gate := make(chan struct{})
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 8
	newSystem, transform := stubPipeline(t, nil)
	cfg.Transform = transform
	cfg.NewSystem = func(ctx context.Context, c kodan.TransformConfig) (*kodan.System, error) {
		mu.Lock()
		order = append(order, c.Seed)
		n := len(order)
		mu.Unlock()
		if n == 1 {
			<-gate // hold the only worker until the full backlog is queued
		}
		return newSystem(ctx, c)
	}
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	send := func(tenant string, seed uint64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postTenant(t, ts, "/v1/transform", tenant, transformBody(seed, 1))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("tenant %s seed %d: status %d (%s)", tenant, seed, resp.StatusCode, data)
			}
		}()
	}
	// The gate holder occupies the worker; then heavy enqueues five
	// waiters before light's two, each arrival confirmed so enqueue order
	// (and therefore the virtual-time grant order) is deterministic.
	send("heavy", 100)
	waitForCond(t, func() bool {
		mu.Lock()
		holderIn := len(order) == 1
		mu.Unlock()
		return holderIn && s.pool.Stats().InFlight == 1
	})
	queued := 0
	for _, w := range []struct {
		tenant string
		seed   uint64
	}{{"heavy", 101}, {"heavy", 102}, {"heavy", 103}, {"heavy", 104}, {"heavy", 105}, {"light", 201}, {"light", 202}} {
		send(w.tenant, w.seed)
		queued++
		q := queued
		waitForCond(t, func() bool { return s.pool.Stats().Queued == q })
	}
	close(gate)
	wg.Wait()

	mu.Lock()
	got := append([]uint64(nil), order...)
	mu.Unlock()
	// Equal weights, ties to the lexicographically smaller tenant: grants
	// interleave heavy/light by finish tag 1h 1l 2h 2l 3h 4h 5h.
	want := []uint64{100, 101, 201, 102, 202, 103, 104, 105}
	if len(got) != len(want) {
		t.Fatalf("served %d transforms, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order %v, want %v (light tenant starved or fair order broken)", got, want)
		}
	}
}

// waitForCond polls cond for up to 5 seconds.
func waitForCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestTenantAdmissionTokenBucket pins the front-door limiter: a tenant
// over its rate gets 429 + Retry-After without touching the pipeline,
// while other tenants are unaffected, and the per-tenant counters land in
// the registry.
func TestTenantAdmissionTokenBucket(t *testing.T) {
	cfg := testConfig()
	cfg.TenantRate = 0.001 // trickle refill: effectively burst-only
	cfg.TenantBurst = 2
	cfg.NewSystem, cfg.Transform = stubPipeline(t, nil)
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp, data := postTenant(t, ts, "/v1/transform", "alpha", transformBody(1, 1))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("alpha burst request %d: status %d (%s)", i, resp.StatusCode, data)
		}
	}
	resp, data := postTenant(t, ts, "/v1/transform", "alpha", transformBody(1, 1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alpha over-rate: status %d (%s), want 429", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("admission 429 without Retry-After")
	}
	if !strings.Contains(string(data), "alpha") {
		t.Errorf("rejection body %q does not name the tenant", data)
	}
	// A different tenant has its own bucket.
	resp, data = postTenant(t, ts, "/v1/transform", "beta", transformBody(1, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("beta: status %d (%s)", resp.StatusCode, data)
	}
	reg := s.Registry()
	if got := reg.Counter("server.tenant.alpha.rejected").Load(); got != 1 {
		t.Errorf("alpha rejected counter = %d, want 1", got)
	}
	if got := reg.Counter("server.tenant.alpha.admitted").Load(); got != 2 {
		t.Errorf("alpha admitted counter = %d, want 2", got)
	}
	if got := reg.Counter("server.tenant.beta.admitted").Load(); got != 1 {
		t.Errorf("beta admitted counter = %d, want 1", got)
	}
}

// TestRetryAfterJitterDeterministic pins the jitter satellite: two
// servers with the same JitterSeed emit the same Retry-After sequence
// under sequential saturation rejections, values within [1, 1+max].
func TestRetryAfterJitterDeterministic(t *testing.T) {
	sequence := func() []string {
		gate := make(chan struct{})
		started := make(chan struct{}, 1)
		cfg := testConfig()
		cfg.Workers = 1
		cfg.QueueDepth = 1
		cfg.RetryAfterJitterMax = 3
		cfg.JitterSeed = 42
		newSystem, transform := stubPipeline(t, nil)
		cfg.Transform = transform
		cfg.NewSystem = func(ctx context.Context, c kodan.TransformConfig) (*kodan.System, error) {
			if c.Seed == 1 {
				started <- struct{}{}
				<-gate
			}
			return newSystem(ctx, c)
		}
		s := New(cfg)
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		// One request holds the worker, one fills the depth-1 queue; every
		// later arrival is rejected immediately with a jittered Retry-After.
		var done sync.WaitGroup
		for _, seed := range []uint64{1, 2} {
			done.Add(1)
			go func(seed uint64) {
				defer done.Done()
				post(t, ts.Client(), ts.URL+"/v1/transform", transformBody(seed, 1))
			}(seed)
			if seed == 1 {
				<-started
			} else {
				waitForCond(t, func() bool { return s.pool.Stats().Queued == 1 })
			}
		}
		var got []string
		for i := 0; i < 6; i++ {
			resp, data := post(t, ts.Client(), ts.URL+"/v1/transform", transformBody(uint64(100+i), 1))
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("saturated request %d: status %d (%s)", i, resp.StatusCode, data)
			}
			ra := resp.Header.Get("Retry-After")
			var secs int
			fmt.Sscanf(ra, "%d", &secs) //nolint:errcheck
			if secs < 1 || secs > 4 {
				t.Fatalf("Retry-After %q outside [1, 4]", ra)
			}
			got = append(got, ra)
		}
		close(gate)
		done.Wait()
		return got
	}
	a, b := sequence(), sequence()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter sequences diverge at %d: %v vs %v", i, a, b)
		}
	}
}

// TestBatchCoalescing pins the tentpole's batching half with the real
// tiny pipeline: concurrent misses for apps sharing a workspace coalesce
// into fewer batched passes, and every response is byte-identical to the
// unbatched server's.
func TestBatchCoalescing(t *testing.T) {
	baseline := map[int][]byte{}
	{
		cfg := testConfig()
		s := New(cfg)
		ts := httptest.NewServer(s.Handler())
		for _, app := range []int{1, 2, 3} {
			resp, data := post(t, ts.Client(), ts.URL+"/v1/transform", fmt.Sprintf(`{"app":%d}`, app))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("baseline app %d: status %d (%s)", app, resp.StatusCode, data)
			}
			baseline[app] = data
		}
		ts.Close()
		s.Close()
	}

	// The default batched transform loops Config.Transform, so counting
	// Transform calls counts the member transforms the batches ran.
	var transformed atomic.Int64
	cfg := testConfig()
	cfg.BatchWindow = 150 * time.Millisecond
	cfg.BatchMax = 8
	cfg.Transform = func(ctx context.Context, sys *kodan.System, appIndex int, quantized bool) (*kodan.Application, error) {
		transformed.Add(1)
		return sys.TransformVariantCtx(ctx, appIndex, quantized)
	}
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	bodies := make(map[int][]byte)
	var mu sync.Mutex
	for _, app := range []int{1, 2, 3} {
		wg.Add(1)
		go func(app int) {
			defer wg.Done()
			resp, data := post(t, ts.Client(), ts.URL+"/v1/transform", fmt.Sprintf(`{"app":%d}`, app))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("batched app %d: status %d (%s)", app, resp.StatusCode, data)
				return
			}
			mu.Lock()
			bodies[app] = data
			mu.Unlock()
		}(app)
	}
	wg.Wait()

	for app, want := range baseline {
		if !bytes.Equal(bodies[app], want) {
			t.Errorf("app %d: batched response differs from unbatched baseline", app)
		}
	}
	reg := s.Registry()
	if calls := reg.Counter("server.batch.flushes").Load(); calls == 0 || calls >= 3 {
		t.Errorf("batching ran %d passes for 3 concurrent same-workspace misses, want coalescing", calls)
	}
	if got := transformed.Load(); got != 3 {
		t.Errorf("batched %d member transforms, want 3", got)
	}
	if got := reg.Counter("server.batch.batched").Load(); got != 3 {
		t.Errorf("server.batch.batched = %d, want 3", got)
	}

	// Replays are cache hits — batching must not bypass the cache.
	resp, data := post(t, ts.Client(), ts.URL+"/v1/transform", `{"app":1}`)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Kodan-Cache") != "hit" {
		t.Errorf("replay after batch: status %d source %q (%s)", resp.StatusCode, resp.Header.Get("X-Kodan-Cache"), data)
	}
}

// TestMetricsExposesServingFields pins the serving series /metrics
// carries from the shared registry: the aggregate and per-shard cache
// counters and the pool's wait histogram and gauges.
func TestMetricsExposesServingFields(t *testing.T) {
	cfg := testConfig()
	cfg.CacheShards = 4
	cfg.CacheEntries = 100
	cfg.NewSystem, cfg.Transform = stubPipeline(t, nil)
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post(t, ts.Client(), ts.URL+"/v1/transform", transformBody(1, 1))
	var doc telemetry.RegistrySnapshot
	resp := getJSON(t, ts.URL+"/metrics", &doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	for _, name := range []string{"server.cache.misses", "server.cache.evictions", "server.cache.shard3.hits", "server.pool_rejected"} {
		if _, ok := doc.Counters[name]; !ok {
			t.Errorf("/metrics lacks counter %s", name)
		}
	}
	for _, name := range []string{"server.pool_occupancy", "server.pool_queued"} {
		if _, ok := doc.Gauges[name]; !ok {
			t.Errorf("/metrics lacks gauge %s", name)
		}
	}
	if doc.Histograms["server.pool_wait_seconds"].Count != 1 {
		t.Errorf("server.pool_wait_seconds = %+v, want one sample", doc.Histograms["server.pool_wait_seconds"])
	}
}
