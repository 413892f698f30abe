package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kodan"
	"kodan/internal/telemetry"
	"kodan/internal/telemetry/analyze"
	"kodan/internal/xrand"
)

// p99Limit is plan-serve's latency limit: a ladder rate counts towards
// max_rps only if its p99 from due time is at most this.
const p99Limit = 50 * time.Millisecond

// maxLate bounds how far behind schedule the open loop may fall before it
// stops sending a rate's remaining requests (they count as not attempted,
// and the rate fails).
const maxLate = 10 * time.Second

// mixEntry is one class of the plan-serve request mix.
type mixEntry struct {
	kind  string
	fresh bool
	share float64
}

// planMix is the plan-serve request mix. Hot requests hit keys warmed at
// set-up; fresh ones carry a never-repeated deployment or ground cost, so
// each is a cache miss that runs policy.Optimize (and, for hybrid, the
// planner); every simulate runs policy.Optimize on a warmed mission. The
// first entry takes whatever the other shares leave after rounding.
// README.md derives the shares from the samples p99_ms needs.
var planMix = []mixEntry{
	{"plan_bundle", false, 0.92},
	{"plan_bundle", true, 0.04},
	{"plan_hybrid", false, 0.01},
	{"plan_hybrid", true, 0.02},
	{"simulate", false, 0.01},
}

// planStream generates plan-serve requests from a seed.
type planStream struct {
	rng  *xrand.Rand
	hot  hotSet
	sz   sizing
	seen map[string]bool
	// drawn counts the requests drawn per class. Expensive classes cycle
	// through apps and targets in order, so every seed prices the same
	// mix of them (policy.Optimize costs differ by app and target).
	drawn map[mixEntry]int
}

func newPlanStream(seed uint64, sz sizing, hot hotSet) *planStream {
	return &planStream{rng: xrand.New(seed ^ 0x91a5e), hot: hot, sz: sz, seen: make(map[string]bool), drawn: make(map[mixEntry]int)}
}

// batch returns n requests in seed-shuffled order whose class counts are
// n times the mix shares, rounded: the composition does not vary with the
// seed, only the order and the keys do.
func (s *planStream) batch(n int) []request {
	var classes []mixEntry
	for _, m := range planMix[1:] {
		for i := 0; i < int(math.Round(m.share*float64(n))); i++ {
			classes = append(classes, m)
		}
	}
	for len(classes) < n {
		classes = append(classes, planMix[0])
	}
	classes = classes[:n]
	s.rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	out := make([]request, n)
	for i, m := range classes {
		out[i] = s.next(m)
	}
	return out
}

// next draws one request of class m.
func (s *planStream) next(m mixEntry) request {
	n := s.drawn[m]
	s.drawn[m]++
	nApps := len(kodan.Applications())
	app, target := 1+n%nApps, targets[n/nApps%len(targets)]
	switch {
	case m.kind == "plan_bundle" && !m.fresh:
		return s.hot.bundle[s.rng.Intn(len(s.hot.bundle))]
	case m.kind == "plan_hybrid" && !m.fresh:
		return s.hot.hybrid[s.rng.Intn(len(s.hot.hybrid))]
	case m.kind == "simulate":
		ds := s.sz.simSet[n/nApps%len(s.sz.simSet)]
		return newRequest("simulate", planBody{Seed: sceneSeed, App: app, Target: target, Days: ds[0], Sats: ds[1]}, false)
	}
	for {
		var q request
		if m.kind == "plan_bundle" {
			q = newRequest("plan_bundle", planBody{
				Seed: sceneSeed, App: app, Target: target,
				DeadlineMs:   s.rng.Range(12000, 36000),
				CapacityFrac: s.rng.Range(0.05, 0.6),
			}, true)
		} else {
			cost := s.rng.Range(0.01, 2)
			q = newRequest("plan_hybrid", planBody{Seed: sceneSeed, App: app, Target: "orin", Mode: "hybrid", GroundCost: &cost}, true)
		}
		if !s.seen[q.key()] {
			s.seen[q.key()] = true
			return q
		}
	}
}

// rung is one open-loop rate of the ladder: Poisson arrivals at rate for
// span, each request due at its offset from the rung's start.
type rung struct {
	rate float64
	due  []time.Duration
	reqs []request
}

// planSchedule generates the whole plan-serve input from a seed: the
// closed-loop batch, sent back to back by one client, and the open-loop
// ladder's rungs. Both draw from one stream, so no fresh key repeats.
func planSchedule(seed uint64, sz sizing, total time.Duration, hot hotSet) ([]request, []rung) {
	s := newPlanStream(seed, sz, hot)
	ladder := time.Duration(sz.ladderShare * float64(total))
	batch := s.batch(int(math.Round(sz.batchPerSecond * (total - ladder).Seconds())))
	ref := time.Duration(sz.refShare * float64(ladder))
	other := (ladder - ref) / time.Duration(len(sz.rates)-1)
	var rungs []rung
	for _, rate := range sz.rates {
		span := other
		if rate == sz.refRate {
			span = ref
		}
		r := rung{rate: rate}
		var t float64 // seconds
		for {
			t += -math.Log(1-s.rng.Float64()) / rate
			at := time.Duration(t * float64(time.Second))
			if at >= span {
				break
			}
			r.due = append(r.due, at)
		}
		r.reqs = s.batch(len(r.due))
		rungs = append(rungs, r)
	}
	return batch, rungs
}

// rungResult is one rung's measurement.
type rungResult struct {
	rate       float64
	outs       []outcome
	skipped    int
	backlogMax int
	late       series // send minus due, ms
}

// quantile returns the q-quantile of the rung's latencies from due time.
func (r rungResult) quantile(q float64) float64 {
	var lat series
	for _, o := range r.outs {
		lat.add(o.fromDue())
	}
	return lat.quantile(q)
}

// maxRPS is the highest ladder rate that met the p99 limit without falling
// behind (0 when none did).
func maxRPS(rungs []rungResult) float64 {
	best := 0.0
	for _, r := range rungs {
		if r.passed() {
			best = r.rate
		}
	}
	return best
}

// passed reports whether the rung met the latency limit with at most 1%
// failed requests and without falling behind schedule.
func (r rungResult) passed() bool {
	var failed int
	for _, o := range r.outs {
		if !o.ok() {
			failed++
		}
	}
	if r.skipped > 0 || len(r.outs) == 0 || float64(failed) > 0.01*float64(len(r.outs)) {
		return false
	}
	lastLate := r.late[len(r.late)-1]
	return r.quantile(0.99) <= ms(p99Limit) && lastLate <= ms(p99Limit)
}

// openLoop sends one rung's requests at their due times over conns
// connections. A request whose connection is still busy at its due time
// is sent late, and its latency still counts from the due time.
func openLoop(ctx context.Context, h *harness, r rung, conns int) rungResult {
	res := rungResult{rate: r.rate}
	outs := make([]outcome, len(r.reqs))
	lates := make([]float64, len(r.reqs))
	skipped := make([]bool, len(r.reqs))
	start := time.Now()
	var next, backlogMax atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(r.reqs) || ctx.Err() != nil {
					return
				}
				due := start.Add(r.due[i])
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				now := time.Now()
				if now.Sub(due) > maxLate {
					skipped[i] = true
					continue
				}
				// Requests already due but not yet taken by a connection.
				dueBy := sort.Search(len(r.due), func(j int) bool { return start.Add(r.due[j]).After(now) })
				storeMax(&backlogMax, int64(dueBy-i-1))
				outs[i] = h.do(ctx, r.reqs[i], due)
				lates[i] = ms(outs[i].sent.Sub(due))
			}
		}()
	}
	wg.Wait()
	for i := range outs {
		if skipped[i] {
			res.skipped++
			continue
		}
		res.outs = append(res.outs, outs[i])
		res.late = append(res.late, lates[i])
	}
	res.backlogMax = int(backlogMax.Load())
	return res
}

// storeMax raises m to v if v is larger.
func storeMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// planServeRun is one measured phase of plan-serve.
type planServeRun struct {
	batch []outcome
	// batchWall is the batch's wall time without the probe's samples.
	batchWall time.Duration
	rungs     []rungResult
	ref       rungResult
}

func (p *planServeRun) all() []outcome {
	all := append([]outcome(nil), p.batch...)
	for _, r := range p.rungs {
		all = append(all, r.outs...)
	}
	return all
}

// measurePlanServe sends the batch, then runs the ladder, ascending.
func measurePlanServe(ctx context.Context, h *harness, batch []request, rungs []rung, sz sizing, conns int, probe *speedProbe) *planServeRun {
	p := &planServeRun{}
	runtime.GC()
	p.batch, p.batchWall = sendBatch(ctx, h, batch, probe)
	for _, r := range rungs {
		// Start every rate from a collected heap, so how many collections
		// fall inside it does not depend on what ran before.
		runtime.GC()
		rr := openLoop(ctx, h, r, conns)
		p.rungs = append(p.rungs, rr)
		if r.rate == sz.refRate {
			p.ref = rr
		}
	}
	return p
}

// sendBatch sends reqs in order from one client, each as soon as the
// previous reply is in, with the speed probe sampling between them. It
// returns the outcomes and the wall time without the probe's samples.
func sendBatch(ctx context.Context, h *harness, reqs []request, probe *speedProbe) ([]outcome, time.Duration) {
	outs := make([]outcome, 0, len(reqs))
	probed := probe.spent
	start := time.Now()
	for _, q := range reqs {
		if ctx.Err() != nil {
			break
		}
		outs = append(outs, h.do(ctx, q, time.Now()))
		probe.tick()
	}
	return outs, time.Since(start) - (probe.spent - probed)
}

// runPlanServe is the plan-serve workload: the read path of a warm server.
// One client sends a fixed batch of the request mix back to back; the
// gated figures come from it. Then an open loop of Poisson arrivals at a
// ladder of fixed rates gives the latency at each rate and the highest rate
// that meets the p99 limit, which are reported but not gated: they move
// with the host's load from run to run by more than any bound of at most
// 25% holds (README.md).
func runPlanServe(ctx context.Context, o options) (*result, error) {
	const conns = 2
	sz := o.size
	res := newResult()
	checks := newBodies()
	hot := newHotSet(sz)
	batch, rungs := planSchedule(o.seed, sz, o.seconds, hot)

	if !o.trace {
		probe := newSpeedProbe()
		h, setups, err := setUp(ctx, sz, nil, sz.setups, conns, checks, hot, probe)
		if err != nil {
			return nil, err
		}
		p := measurePlanServe(ctx, h, batch, rungs, sz, conns, probe)
		if err := h.close(); err != nil {
			return nil, fmt.Errorf("stop server: %w", err)
		}
		if err := setPlanServeFigures(res, setups, p, probe); err != nil {
			return nil, err
		}
		finishPlanServe(res, sz, h, hot, p)
		return res, planServeChecks(ctx, res, sz, checks, hot, batch, rungs, o.seed)
	}

	// Traced run: an untraced set-up and measured phase, then a traced one;
	// the per-layer metrics come from the traced half, and those that share
	// an end-to-end definition (p50_ms, read_p50_ms, ...) from the untraced
	// one.
	probe := newSpeedProbe()
	h, _, err := setUp(ctx, sz, nil, 1, conns, checks, hot, probe)
	if err != nil {
		return nil, err
	}
	base := measurePlanServe(ctx, h, batch, rungs, sz, conns, probe)
	if err := h.close(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}
	if err := setPlanServeFigures(res, nil, base, probe); err != nil {
		return nil, err
	}
	tr := telemetry.NewTracer(0)
	h, _, err = setUp(ctx, sz, tr, 1, conns, checks, hot, newSpeedProbe())
	if err != nil {
		return nil, err
	}
	before := readCounters(h)
	p := measurePlanServe(withTracer(ctx, tr), h, batch, rungs, sz, conns, newSpeedProbe())
	after := readCounters(h)
	if err := h.close(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}
	ts, err := analyseTrace(tr)
	if err != nil {
		return nil, err
	}
	setTraceLayers(res, ts)
	setHookLayers(res, h)
	setCacheLayers(res, before, after)
	// Only transforms take a worker slot, and plan-serve sends them only in
	// its warm-up, so the admission wait is over the server's whole life.
	if after.waitCount > 0 {
		res.layer["admission.wait_ms"] = after.waitSum / float64(after.waitCount) * 1000
	}
	setSpanLatencies(res, ts, p.all())
	routeMeans(res, append(p.batch, h.warmTransforms...))
	var late series
	backlog := 0
	for _, r := range p.rungs {
		if r.passed() {
			late = append(late, r.late...)
			backlog = max(backlog, r.backlogMax)
		}
	}
	res.layer["loadgen.max_rps"] = maxRPS(p.rungs)
	res.layer["loadgen.late_p99_ms"] = late.quantile(0.99)
	res.layer["loadgen.backlog_max"] = float64(backlog)
	res.layer["sim.run_ms"] = ts.meanMs("sim.run", nil)
	res.layer["bench.trace_overhead_frac"] = p.batchWall.Seconds()/base.batchWall.Seconds() - 1
	finishPlanServe(res, sz, h, hot, p)
	path, err := writeTrace(o, "plan-serve", tr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.log, "perfbench: trace written to %s\n", path)
	return res, planServeChecks(ctx, res, sz, checks, hot, batch, rungs, o.seed)
}

// finishPlanServe records work counts and checks every measured request.
func finishPlanServe(res *result, sz sizing, h *harness, hot hotSet, p *planServeRun) {
	finishServing(res, sz, h, hot, p.all())
	for _, r := range p.rungs {
		if r.skipped > 0 {
			res.checkFail("rate %.0f/s: %d requests not sent, generator more than %v behind", r.rate, r.skipped, maxLate)
		}
	}
}

// setPlanServeFigures fills the end-to-end metrics from the set-ups and
// the batch, and the per-layer metrics an untraced run measures anyway.
// Reads are the hot bundle plans (cache hits) and writes the fresh ones
// (cache misses, each a policy search), each timed on its own so that no
// percentile sits on the boundary between hits and misses. The gated times
// are at reference speed; the rest are raw.
func setPlanServeFigures(res *result, setups []float64, p *planServeRun, probe *speedProbe) error {
	var reads, writes series
	for _, o := range p.batch {
		if o.req.kind != "plan_bundle" {
			continue
		}
		if o.req.fresh {
			writes.add(o.fromSend())
		} else {
			reads.add(o.fromSend())
		}
	}
	var ref series
	for _, o := range p.ref.outs {
		ref.add(o.fromDue())
	}
	res.notes = append(res.notes, fmt.Sprintf("max_rps %.0f/s: highest rate with p99 <= %v", maxRPS(p.rungs), p99Limit))
	for _, r := range p.rungs {
		res.notes = append(res.notes, fmt.Sprintf("rate %.0f/s: n=%d p50=%.3fms p99=%.3fms late_p99=%.3fms backlog_max=%d passed=%t",
			r.rate, len(r.outs), r.quantile(0.5), r.quantile(0.99), r.late.quantile(0.99), r.backlogMax, r.passed()))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	f := probe.factor()
	e := res.e2e
	e["setup_s"] = median(setups) * f
	e["suite_s"] = p.batchWall.Seconds() * f
	e["plan_ms"] = writes.mean() * f
	e["peak_rss_mb"] = rss
	l := res.layer
	l["p50_ms"] = ref.quantile(0.50)
	l["p99_ms"] = ref.quantile(0.99)
	l["write_p50_ms"] = writes.quantile(0.50)
	l["write_p90_ms"] = writes.quantile(0.90)
	l["read_p50_ms"] = reads.quantile(0.50)
	l["read_p99_ms"] = reads.quantile(0.99)
	res.speed(probe)
	res.raw("setup_s", median(setups))
	res.raw("suite_s", p.batchWall.Seconds())
	res.raw("plan_ms", writes.mean())
	res.note("p50_ms/p99_ms (100 req/s)", ref)
	res.note("plan_ms/write_p50_ms/write_p90_ms", writes)
	res.note("read_p50_ms/read_p99_ms", reads)
	return nil
}

// setSpanLatencies reads the policy and planner per-layer times from the
// server's request spans: a bundle-plan miss is one policy.Optimize plus
// encoding, a hybrid miss is one PlanHybrid.
func setSpanLatencies(res *result, ts traceStats, outs []outcome) {
	kind := make(map[string]string)
	for _, o := range outs {
		if o.cache == "miss" {
			kind[o.id] = o.req.kind
		}
	}
	of := func(k string) func(*analyze.Span) bool {
		return func(sp *analyze.Span) bool { return kind[sp.Attrs[telemetry.RequestIDAttr]] == k }
	}
	res.layer["policy.optimize_ms"] = ts.meanMs("http./v1/plan", of("plan_bundle"))
	res.layer["planner.build_ms"] = ts.meanMs("http./v1/plan", of("plan_hybrid"))
}

// routeMeans fills the per-route client latencies (mean, from send).
func routeMeans(res *result, outs []outcome) {
	by := make(map[string]*series)
	for _, o := range outs {
		s, ok := by[o.req.kind]
		if !ok {
			s = new(series)
			by[o.req.kind] = s
		}
		s.add(o.fromSend())
	}
	for kind, s := range by {
		res.layer["server."+kind+"_ms"] = s.mean()
	}
}

// planServeChecks recomputes sampled bundles in-process: every hot bundle
// of checkApps seed-chosen apps, plus up to two fresh ones per checked app.
func planServeChecks(ctx context.Context, res *result, sz sizing, checks *bodies, hot hotSet, batch []request, rungs []rung, seed uint64) error {
	apps := checkedApps(seed, sz.checkApps)
	var sample []request
	for _, q := range hot.bundle {
		if apps[parseBody(q).App] {
			sample = append(sample, q)
		}
	}
	sent := [][]request{batch}
	for _, r := range rungs {
		sent = append(sent, r.reqs)
	}
	perApp := make(map[int]int)
	for _, reqs := range sent {
		for _, q := range reqs {
			if a := parseBody(q).App; q.kind == "plan_bundle" && q.fresh && apps[a] && perApp[a] < 2 {
				perApp[a]++
				sample = append(sample, q)
			}
		}
	}
	return checkBundles(ctx, res, sz, checks, sample)
}

// checkedApps picks n distinct apps from the seed.
func checkedApps(seed uint64, n int) map[int]bool {
	perm := xrand.New(seed ^ 0xc4ec).Perm(len(kodan.Applications()))
	out := make(map[int]bool)
	for _, i := range perm[:min(n, len(perm))] {
		out[i+1] = true
	}
	return out
}
