package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"kodan"
	"kodan/internal/telemetry"
)

// batcher coalesces concurrent cache-miss transforms that share a
// transformation workspace — same (seed, inference variant) — into one
// batched pipeline pass through a single worker slot. Each member is the
// single-flight leader for its own cache key, so batching composes with
// the cache: members' results land in their entries and every joined or
// repeated request is served from there, byte-identical to the unbatched
// path.
//
// A group flushes when it reaches BatchMax members or BatchWindow after
// its first member arrived, whichever comes first. The window is the
// latency the first member pays to buy amortization: one model-load and
// one pipeline pass (PredictBatch inside) instead of N.
//
// Cancellation is reference-counted like the cache's: each member detaches
// when its own waiters are gone, and when the last member detaches the
// group's computation is cancelled.
type batcher struct {
	s      *Server
	window time.Duration
	max    int

	flushes *telemetry.Counter   // batched passes run
	batched *telemetry.Counter   // member transforms coalesced
	size    *telemetry.Histogram // members per flush

	mu     sync.Mutex
	groups map[string]*batchGroup
}

type batchGroup struct {
	key       string
	seed      uint64
	quantized bool
	tenant    string // first member's tenant pays the pool wait
	ctx       context.Context
	cancel    context.CancelFunc
	members   []*batchMember
	leaders   int // members with live waiters; last detach cancels ctx
	flushed   bool
	timer     *time.Timer
}

type batchMember struct {
	appIndex int
	done     chan struct{}
	app      *kodan.Application
	err      error
}

func newBatcher(s *Server, window time.Duration, max int) *batcher {
	scope := s.Registry().Scope("server.batch")
	return &batcher{
		s:       s,
		window:  window,
		max:     max,
		flushes: scope.Counter("flushes"),
		batched: scope.Counter("batched"),
		size:    scope.Histogram("size"),
		groups:  make(map[string]*batchGroup),
	}
}

// submit enrolls one cache-miss transform in its workspace's group and
// waits for the batched result. ctx is the member's computation context
// (the cache entry's, detached from any single request); when it ends the
// member detaches and the group continues for the remaining members.
func (b *batcher) submit(ctx context.Context, tenant string, seed uint64, appIndex int, quantized bool) (interface{}, error) {
	key := fmt.Sprintf("%d|%t", seed, quantized)
	m := &batchMember{appIndex: appIndex, done: make(chan struct{})}

	b.mu.Lock()
	g := b.groups[key]
	if g == nil {
		gctx, cancel := context.WithCancel(b.s.baseCtx)
		// The batched pass belongs to every member; keep the first
		// member's identity for spans and logs like the cache does.
		gctx = telemetry.PropagateTelemetry(ctx, gctx)
		g = &batchGroup{key: key, seed: seed, quantized: quantized, tenant: tenant, ctx: gctx, cancel: cancel}
		b.groups[key] = g
		g.timer = time.AfterFunc(b.window, func() { b.flush(g) })
	}
	g.members = append(g.members, m)
	g.leaders++
	b.batched.Inc()
	full := len(g.members) >= b.max
	b.mu.Unlock()
	if full {
		b.flush(g)
	}

	select {
	case <-m.done:
		return m.app, m.err
	case <-ctx.Done():
		b.detach(g)
		return nil, ctx.Err()
	}
}

// detach drops one member's interest; the last detach cancels the group's
// computation (already-flushed groups notice via their context).
func (b *batcher) detach(g *batchGroup) {
	b.mu.Lock()
	g.leaders--
	last := g.leaders == 0
	b.mu.Unlock()
	if last {
		g.cancel()
	}
}

// flush closes the group to new members and runs the batched pass.
func (b *batcher) flush(g *batchGroup) {
	b.mu.Lock()
	if g.flushed {
		b.mu.Unlock()
		return
	}
	g.flushed = true
	g.timer.Stop()
	delete(b.groups, g.key)
	members := append([]*batchMember(nil), g.members...)
	b.mu.Unlock()
	go b.run(g, members)
}

// run executes one batched pass: one worker slot, one workspace build, one
// TransformBatch over every member's app index, results distributed to the
// members' cache entries.
func (b *batcher) run(g *batchGroup, members []*batchMember) {
	defer g.cancel()
	finish := func(err error, apps []*kodan.Application) {
		for i, m := range members {
			if err == nil {
				m.app = apps[i]
			}
			m.err = err
			close(m.done)
		}
	}

	s := b.s
	sys, err := s.acquireAndBuild(g.ctx, g.tenant, g.seed)
	if err != nil {
		finish(err, nil)
		return
	}
	defer s.release()

	indexes := make([]int, len(members))
	for i, m := range members {
		indexes[i] = m.appIndex
		s.metrics.transformsStarted.Inc()
	}
	b.flushes.Inc()
	b.size.Observe(float64(len(members)))

	start := time.Now()
	tctx, sp := telemetry.StartSpan(g.ctx, "server.transform_batch")
	sp.Set("size", fmt.Sprint(len(members)))
	sp.Set("quantized", fmt.Sprint(g.quantized))
	apps, err := s.cfg.TransformBatch(tctx, sys, indexes, g.quantized)
	sp.End()
	if err == nil && len(apps) != len(indexes) {
		err = fmt.Errorf("transform batch returned %d results for %d requests", len(apps), len(indexes))
	}
	// Lifecycle accounting: each member is one transform whose cost is its
	// share of the batched pass.
	share := time.Duration(int64(time.Since(start)) / int64(len(members)))
	cancelled := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	for range members {
		s.metrics.transformDone(share, err, cancelled)
	}
	finish(err, apps)
}
