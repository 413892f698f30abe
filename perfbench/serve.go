package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kodan"
	"kodan/internal/server"
	"kodan/internal/telemetry"
	"kodan/internal/telemetry/recorder"
	"kodan/internal/telemetry/slo"
)

// targets are the hardware target names a request may carry.
var targets = []string{"orin", "i7", "1070ti"}

// request is one generated HTTP request.
type request struct {
	// kind classifies the request: plan_bundle, plan_hybrid, simulate or
	// transform.
	kind  string
	route string
	body  []byte
	// tenant is sent as X-Kodan-Tenant when set.
	tenant string
	// fresh marks a key never requested before in the run.
	fresh bool
}

// key identifies the response a request must always get back.
func (q request) key() string { return q.route + " " + string(q.body) }

// planBody is the /v1/plan, /v1/transform and /v1/simulate request document
// the generator fills in.
type planBody struct {
	Seed         uint64   `json:"seed"`
	App          int      `json:"app"`
	Target       string   `json:"target,omitempty"`
	DeadlineMs   float64  `json:"deadlineMs,omitempty"`
	CapacityFrac float64  `json:"capacityFrac,omitempty"`
	Mode         string   `json:"mode,omitempty"`
	GroundCost   *float64 `json:"groundCost,omitempty"`
	Days         int      `json:"days,omitempty"`
	Sats         int      `json:"sats,omitempty"`
}

func newRequest(kind string, b planBody, fresh bool) request {
	body, err := json.Marshal(b)
	if err != nil {
		panic(err) // planBody always marshals
	}
	route := "/v1/plan"
	switch kind {
	case "simulate":
		route = "/v1/simulate"
	case "transform":
		route = "/v1/transform"
	}
	return request{kind: kind, route: route, body: body, fresh: fresh}
}

// outcome is one completed request, timed from when it was due.
type outcome struct {
	req             request
	id              string // X-Request-ID sent with the request
	status          int
	cache           string
	due, sent, done time.Time
	err             error
}

func (o outcome) fromDue() time.Duration  { return o.done.Sub(o.due) }
func (o outcome) fromSend() time.Duration { return o.done.Sub(o.sent) }
func (o outcome) ok() bool                { return o.err == nil && o.status == http.StatusOK }

// bodies is the byte-identity check: every 200 body for a key must equal
// the first one seen for it, on every server of the run.
type bodies struct {
	mu    sync.Mutex
	first map[string][]byte
	sums  map[string][32]byte
}

func newBodies() *bodies {
	return &bodies{first: make(map[string][]byte), sums: make(map[string][32]byte)}
}

// record checks body against the key's earlier bodies and reports whether
// it matched (or was the first).
func (b *bodies) record(key string, body []byte) bool {
	sum := sha256.Sum256(body)
	b.mu.Lock()
	defer b.mu.Unlock()
	prev, seen := b.sums[key]
	if !seen {
		b.sums[key] = sum
		b.first[key] = append([]byte(nil), body...)
		return true
	}
	return prev == sum
}

// body returns the first body recorded for key.
func (b *bodies) body(key string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.first[key]
	return v, ok
}

// harness is one in-process kodan-server on a loopback listener, with
// benchmark-side timers around the pipeline calls it makes.
type harness struct {
	srv    *server.Server
	rec    *recorder.Recorder
	slo    *slo.Engine
	url    string
	client *http.Client
	served chan error
	checks *bodies

	nextID                   atomic.Int64
	workspaces, transforms   atomic.Int64
	workspaceNs, transformNs atomic.Int64
	// contexts is the reference scene's context count K.
	contexts atomic.Int64
	// warmTransforms are the warm-up's /v1/transform requests, the only
	// transforms plan-serve sends.
	warmTransforms []outcome
}

// startServer starts a server configured as kodan-server runs with its
// default flags, except for the serving sizing, the timing hooks and the
// given tracer (nil: untraced, as without -trace). conns bounds the
// client's connections.
func startServer(sz sizing, tr *telemetry.Tracer, conns int, checks *bodies) (*harness, error) {
	h := &harness{checks: checks, served: make(chan error, 1)}
	cfg := server.Config{
		Seed:                sceneSeed,
		Workers:             2,
		QueueDepth:          8,
		Timeout:             120 * time.Second,
		CacheShards:         4,
		CacheEntries:        1024,
		BatchMax:            8,
		RetryAfterJitterMax: 2,
		// -v defaults to true: one formatted log line per request. The
		// line is formatted and then dropped.
		Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)).With("component", "kodan-server"),
		TransformConfig: sz.serve,
		Tracer:          tr,
		NewSystem: func(ctx context.Context, cfg kodan.TransformConfig) (*kodan.System, error) {
			start := time.Now()
			sys, err := kodan.NewSystemCtx(ctx, cfg)
			h.workspaces.Add(1)
			h.workspaceNs.Add(int64(time.Since(start)))
			if err == nil && cfg.Seed == sceneSeed {
				h.contexts.Store(int64(sys.ContextCount()))
			}
			return sys, err
		},
		Transform: func(ctx context.Context, sys *kodan.System, app int, quantized bool) (*kodan.Application, error) {
			start := time.Now()
			a, err := sys.TransformVariantCtx(ctx, app, quantized)
			h.transforms.Add(1)
			h.transformNs.Add(int64(time.Since(start)))
			return a, err
		},
	}
	h.srv = server.New(cfg)
	// kodan-server samples its registry every second (-sample) and
	// evaluates the SLOs (-slo-latency 30s) on every sample.
	h.rec = recorder.New(h.srv.Registry(), recorder.Options{Interval: time.Second})
	eng, err := slo.NewEngine(h.rec, h.srv.Registry().Scope("server.slo"), slo.DefaultServerObjectives(30*time.Second), slo.Config{})
	if err != nil {
		return nil, fmt.Errorf("slo engine: %w", err)
	}
	h.slo = eng
	h.rec.Start()
	h.slo.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.slo.Stop()
		h.rec.Stop()
		return nil, fmt.Errorf("listen: %w", err)
	}
	h.url = "http://" + ln.Addr().String()
	go func() { h.served <- h.srv.Serve(ln) }()
	h.client = &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 2 * time.Minute,
	}
	return h, nil
}

// close drains and stops the server and waits for its serve loop to exit.
func (h *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := h.srv.Shutdown(ctx)
	if serr := <-h.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	h.slo.Stop()
	h.rec.Stop()
	h.client.CloseIdleConnections()
	return err
}

// do sends one request; due is when the schedule wanted it sent.
func (h *harness) do(ctx context.Context, q request, due time.Time) outcome {
	o := outcome{req: q, due: due, id: fmt.Sprintf("bench-%d", h.nextID.Add(1))}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, h.url+q.route, bytes.NewReader(q.body))
	if err != nil {
		o.err = err
		return o
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Request-ID", o.id)
	if q.tenant != "" {
		hreq.Header.Set(server.TenantHeader, q.tenant)
	}
	o.sent = time.Now()
	resp, err := h.client.Do(hreq)
	if err != nil {
		o.err, o.done = err, time.Now()
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	o.status, o.cache, o.err = resp.StatusCode, resp.Header.Get("X-Kodan-Cache"), err
	if o.ok() && !h.checks.record(q.key(), body) {
		o.err = fmt.Errorf("body for %s differs from an earlier response for the same key", q.key())
	}
	return o
}

// hotSet is the key set plan-serve warms at set-up.
type hotSet struct {
	bundle []request // every app x target, deployment from the reference mission
	hybrid []request // every app x {default, free} ground cost
	sims   []request // one simulate per warmed (days, sats)
}

var hybridHotCosts = []float64{-1, 0} // -1: the server's default cost vector

func newHotSet(sz sizing) hotSet {
	var h hotSet
	for app := 1; app <= len(kodan.Applications()); app++ {
		for _, t := range targets {
			h.bundle = append(h.bundle, newRequest("plan_bundle", planBody{Seed: sceneSeed, App: app, Target: t}, false))
		}
		for _, c := range hybridHotCosts {
			b := planBody{Seed: sceneSeed, App: app, Target: "orin", Mode: "hybrid"}
			if c >= 0 {
				c := c
				b.GroundCost = &c
			}
			h.hybrid = append(h.hybrid, newRequest("plan_hybrid", b, false))
		}
	}
	for _, ds := range sz.simSet {
		h.sims = append(h.sims, newRequest("simulate", planBody{Seed: sceneSeed, App: 1, Target: "orin", Days: ds[0], Sats: ds[1]}, false))
	}
	return h
}

// warm is the serving set-up after server start: transform every app of
// the reference scene, simulate the warmed (days, sats) set, and request
// every hot plan once. Every response must be a 200.
func (h *harness) warm(ctx context.Context, hot hotSet, probe *speedProbe) error {
	var reqs []request
	for app := 1; app <= len(kodan.Applications()); app++ {
		reqs = append(reqs, newRequest("transform", planBody{Seed: sceneSeed, App: app}, false))
	}
	reqs = append(reqs, hot.sims...)
	reqs = append(reqs, hot.bundle...)
	reqs = append(reqs, hot.hybrid...)
	for _, q := range reqs {
		o := h.do(ctx, q, time.Now())
		probe.tick()
		if !o.ok() {
			return fmt.Errorf("warm-up %s: status %d: %v", q.key(), o.status, o.err)
		}
		if q.kind == "transform" {
			h.warmTransforms = append(h.warmTransforms, o)
		}
	}
	return nil
}

// setUp starts and warms a server n times, keeping the last one running,
// and returns it with the set-up times in seconds. probe samples between
// the warm-up requests, and no set-up time includes its samples.
func setUp(ctx context.Context, sz sizing, tr *telemetry.Tracer, n, conns int, checks *bodies, hot hotSet, probe *speedProbe) (*harness, []float64, error) {
	var times []float64
	var h *harness
	for i := 0; i < n; i++ {
		if h != nil {
			if err := h.close(); err != nil {
				return nil, nil, fmt.Errorf("stop set-up server: %w", err)
			}
			h = nil
			runtime.GC()
		}
		probed := probe.spent
		start := time.Now()
		var err error
		h, err = startServer(sz, tr, conns, checks)
		if err != nil {
			return nil, nil, err
		}
		if err := h.warm(ctx, hot, probe); err != nil {
			h.close() //nolint:errcheck // the warm-up error is the one to report
			return nil, nil, err
		}
		times = append(times, (time.Since(start) - (probe.spent - probed)).Seconds())
	}
	return h, times, nil
}

// cacheCounters are the server's aggregate cache counters.
type cacheCounters struct {
	hits, misses, joins, evictions int64
	waitCount                      int64
	waitSum                        float64
}

func readCounters(h *harness) cacheCounters {
	s := h.srv.Registry().Snapshot()
	w := s.Histograms["server.pool_wait_seconds"]
	return cacheCounters{
		hits:      s.Counters["server.cache.hits"],
		misses:    s.Counters["server.cache.misses"],
		joins:     s.Counters["server.cache.joins"],
		evictions: s.Counters["server.cache.evictions"],
		waitCount: w.Count,
		waitSum:   w.Sum,
	}
}

// setCacheLayers fills the shardcache per-layer metrics from the registry
// counters' change over the measured phase.
func setCacheLayers(r *result, before, after cacheCounters) {
	hits := after.hits - before.hits
	misses := after.misses - before.misses
	joins := after.joins - before.joins
	r.layer["shardcache.hit_ratio"] = frac(hits, hits+misses+joins)
	r.layer["shardcache.misses"] = float64(misses)
	r.layer["shardcache.joins"] = float64(joins)
	r.layer["shardcache.evictions"] = float64(after.evictions - before.evictions)
}

// countRequests records requests by kind and cache outcome.
func countRequests(r *result, outs []outcome) {
	for _, o := range outs {
		if o.req.kind == "simulate" {
			r.work["work.requests.simulate"]++
			continue
		}
		r.work["work.requests."+o.req.kind+"."+o.cache]++
	}
}

// checkOutcomes counts attempted and failed requests and records every
// failure (non-200 or a body that changed for its key).
func checkOutcomes(r *result, outs []outcome) {
	for _, o := range outs {
		r.attempted++
		if !o.ok() {
			r.checkFail("%s: status %d: %v", o.req.key(), o.status, o.err)
		}
	}
}

// setServingWork records the pipeline work a serving run did.
func setServingWork(r *result, sz sizing, h *harness, hot hotSet) {
	r.work["work.workspaces_built"] = h.workspaces.Load()
	r.work["work.apps_transformed"] = h.transforms.Load()
	r.work["work.contexts"] = h.contexts.Load()
	r.work["work.tiles_rendered"] = h.workspaces.Load() * workspaceTiles(sz.serve(sceneSeed))
	var satDays int64
	for _, q := range hot.sims {
		b := parseBody(q)
		satDays += int64(b.Days * b.Sats)
	}
	r.work["sim.sat_days"] = satDays
}

// finishServing records work counts and checks every measured request.
func finishServing(res *result, sz sizing, h *harness, hot hotSet, outs []outcome) {
	checkOutcomes(res, outs)
	countRequests(res, outs)
	setServingWork(res, sz, h, hot)
	for _, o := range outs {
		switch {
		case o.req.kind == "simulate", o.req.kind == "plan_bundle" && o.cache == "miss":
			res.work["policy.calls"]++
		case o.req.kind == "plan_hybrid" && o.cache == "miss":
			res.work["policy.calls"]++
			res.work["planner.calls"]++
		}
	}
}

// parseBody decodes a generated request body.
func parseBody(q request) planBody {
	var b planBody
	if err := json.Unmarshal(q.body, &b); err != nil {
		panic(err) // newRequest marshalled it
	}
	return b
}

// setHookLayers fills the core per-layer metrics from the server hooks.
func setHookLayers(r *result, h *harness) {
	if n := h.workspaces.Load(); n > 0 {
		r.layer["core.workspace_s"] = time.Duration(h.workspaceNs.Load() / n).Seconds()
	}
	if n := h.transforms.Load(); n > 0 {
		r.layer["core.transform_app_ms"] = ms(time.Duration(h.transformNs.Load() / n))
	}
}

// checkBundles recomputes the bundle of each sampled /v1/plan request
// in-process on the reference scene (Application.ExportBundle) and requires
// byte equality with the body the server sent.
func checkBundles(ctx context.Context, r *result, sz sizing, checks *bodies, sample []request) error {
	sys, err := kodan.NewSystemCtx(ctx, sz.serve(sceneSeed))
	if err != nil {
		return fmt.Errorf("reference workspace: %w", err)
	}
	mission, err := kodan.LandsatMission(simEpoch)
	if err != nil {
		return fmt.Errorf("reference mission: %w", err)
	}
	apps := make(map[int]*kodan.Application)
	for _, q := range sample {
		b := parseBody(q)
		app, ok := apps[b.App]
		if !ok {
			if app, err = sys.TransformCtx(ctx, b.App); err != nil {
				return fmt.Errorf("reference transform app %d: %w", b.App, err)
			}
			apps[b.App] = app
		}
		target, err := targetByName(b.Target)
		if err != nil {
			return err
		}
		d := mission.Deployment(target)
		if b.DeadlineMs > 0 && b.CapacityFrac > 0 {
			d.Deadline = time.Duration(b.DeadlineMs * float64(time.Millisecond))
			d.CapacityFrac = b.CapacityFrac
		}
		sel, est := app.SelectionLogic(d)
		var want bytes.Buffer
		if err := app.ExportBundle(&want, d, sel, est); err != nil {
			return fmt.Errorf("reference bundle: %w", err)
		}
		got, ok := checks.body(q.key())
		if !ok {
			r.checkFail("%s: no response recorded to compare", q.key())
			continue
		}
		if !bytes.Equal(got, want.Bytes()) {
			r.checkFail("%s: served bundle differs from in-process ExportBundle", q.key())
		}
	}
	return nil
}

func targetByName(name string) (kodan.Target, error) {
	switch name {
	case "orin", "":
		return kodan.Orin15W, nil
	case "i7":
		return kodan.I7_7800X, nil
	case "1070ti":
		return kodan.GTX1070Ti, nil
	}
	return 0, fmt.Errorf("unknown target %q", name)
}
