package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kodan"
)

// TestPlanStormDeterministicBodies hammers /v1/plan from many goroutines
// across several apps and checks the server's three concurrency
// contracts at once: no more transforms run at a time than the pool has
// workers, every 200 response for the same app is byte-identical (cache
// hits, joins, and fresh computes must all serve the same bundle), and
// the underlying Transform runs exactly once per app.
func TestPlanStormDeterministicBodies(t *testing.T) {
	var cur, peak, calls atomic.Int64
	cfg := testConfig()
	cfg.Workers = 2
	cfg.QueueDepth = 16
	cfg.Transform = func(ctx context.Context, sys *kodan.System, appIndex int, quantized bool) (*kodan.Application, error) {
		calls.Add(1)
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		defer cur.Add(-1)
		time.Sleep(10 * time.Millisecond) // hold the slot so overlap is observable
		return sys.TransformVariantCtx(ctx, appIndex, quantized)
	}
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	apps := []int{1, 2, 3}
	const perApp = 8
	type result struct {
		app  int
		code int
		body []byte
	}
	results := make([]result, len(apps)*perApp)
	var wg sync.WaitGroup
	for ai, app := range apps {
		for j := 0; j < perApp; j++ {
			wg.Add(1)
			go func(slot, app int) {
				defer wg.Done()
				resp, data := post(t, ts.Client(), ts.URL+"/v1/plan", planBody(app))
				results[slot] = result{app: app, code: resp.StatusCode, body: data}
			}(ai*perApp+j, app)
		}
	}
	wg.Wait()

	first := map[int][]byte{}
	for i, r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("request %d (app %d): status %d (%s)", i, r.app, r.code, r.body)
		}
		if ref, ok := first[r.app]; !ok {
			first[r.app] = r.body
		} else if !bytes.Equal(r.body, ref) {
			t.Fatalf("app %d: response bodies differ across concurrent requests", r.app)
		}
	}
	if p := peak.Load(); p > int64(cfg.Workers) {
		t.Errorf("peak concurrent transforms %d exceeds %d workers", p, cfg.Workers)
	}
	if got := calls.Load(); got != int64(len(apps)) {
		t.Errorf("Transform ran %d times for %d apps, want one single-flight run each", got, len(apps))
	}

	// After the storm every app is cached: a repeat is a byte-identical hit.
	for _, app := range apps {
		resp, data := post(t, ts.Client(), ts.URL+"/v1/plan", planBody(app))
		if resp.StatusCode != http.StatusOK || !bytes.Equal(data, first[app]) {
			t.Fatalf("app %d: cached replay differs (status %d)", app, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Kodan-Cache"); got != "hit" {
			t.Errorf("app %d: replay cache source %q, want hit", app, got)
		}
	}
}

// TestSaturationStormRetryAfter saturates a 1-worker, 1-slot pool with
// distinct-app requests and checks that every rejected request — not just
// the first — carries a 429 with a Retry-After header, while the admitted
// ones still complete.
func TestSaturationStormRetryAfter(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	cfg.Transform = func(ctx context.Context, _ *kodan.System, _ int, _ bool) (*kodan.Application, error) {
		<-ctx.Done() // block until the request timeout fires
		return nil, ctx.Err()
	}
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	blocker := func(app int) string {
		return fmt.Sprintf(`{"app":%d,"target":"orin","deadlineMs":24000,"capacityFrac":0.21,"timeoutMs":1500}`, app)
	}

	// Fill the worker and the queue slot deterministically.
	var wg sync.WaitGroup
	for _, app := range []int{1, 2} {
		wg.Add(1)
		go func(app int) {
			defer wg.Done()
			post(t, ts.Client(), ts.URL+"/v1/plan", blocker(app))
		}(app)
	}
	waitFor(t, 5*time.Second, "pool to fill", func() bool {
		st := s.pool.Stats()
		return st.InFlight == 1 && st.Queued == 1
	})

	// The storm: every one of these distinct apps must bounce with 429 +
	// Retry-After, since both slots stay occupied until the timeouts.
	const stormN = 4
	codes := make([]int, stormN)
	retryAfter := make([]string, stormN)
	var storm sync.WaitGroup
	for i := 0; i < stormN; i++ {
		storm.Add(1)
		go func(i int) {
			defer storm.Done()
			resp, _ := post(t, ts.Client(), ts.URL+"/v1/plan", blocker(3+i))
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	storm.Wait()

	for i := 0; i < stormN; i++ {
		if codes[i] != http.StatusTooManyRequests {
			t.Errorf("storm request %d: status %d, want 429", i, codes[i])
		}
		if retryAfter[i] == "" {
			t.Errorf("storm request %d: 429 without Retry-After", i)
		}
	}
	wg.Wait()
	if got := s.pool.Stats().Rejected; got != stormN {
		t.Errorf("pool rejected = %d, want %d", got, stormN)
	}
}

// TestGracefulDrainMultipleInFlight shuts the server down while two
// requests occupy both workers and checks that both complete with valid
// bundles before Shutdown returns.
func TestGracefulDrainMultipleInFlight(t *testing.T) {
	release := make(chan struct{})
	var done atomic.Int64
	cfg := testConfig()
	cfg.Transform = func(ctx context.Context, sys *kodan.System, appIndex int, quantized bool) (*kodan.Application, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		app, err := sys.TransformVariantCtx(ctx, appIndex, quantized)
		done.Add(1)
		return app, err
	}
	s := New(cfg)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	url := "http://" + l.Addr().String()

	type result struct {
		code int
		body []byte
	}
	resCh := make(chan result, 2)
	for _, app := range []int{5, 6} {
		go func(app int) {
			resp, err := http.Post(url+"/v1/plan", "application/json", strings.NewReader(planBody(app)))
			if err != nil {
				resCh <- result{code: -1, body: []byte(err.Error())}
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			resCh <- result{code: resp.StatusCode, body: data}
		}(app)
	}
	waitFor(t, 5*time.Second, "both requests in flight", func() bool {
		return s.pool.Stats().InFlight == 2
	})

	shutdownRet := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		close(shutdownRet)
	}()
	waitFor(t, 5*time.Second, "listener to close", func() bool {
		_, err := net.DialTimeout("tcp", l.Addr().String(), 50*time.Millisecond)
		return err != nil
	})
	close(release)

	for i := 0; i < 2; i++ {
		res := <-resCh
		if res.code != http.StatusOK {
			t.Fatalf("drained request %d: status %d (%s)", i, res.code, res.body)
		}
		if _, err := kodan.ImportSelection(bytes.NewReader(res.body)); err != nil {
			t.Fatalf("drained request %d: invalid bundle: %v", i, err)
		}
	}
	<-shutdownRet
	if got := done.Load(); got != 2 {
		t.Errorf("completed transforms = %d, want 2", got)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("serve returned %v, want ErrServerClosed", err)
	}
}
