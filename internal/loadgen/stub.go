package loadgen

import (
	"context"
	"fmt"
	"sync"
	"time"

	"kodan"
	"kodan/internal/cluster"
	"kodan/internal/ctxengine"
	"kodan/internal/server"
)

// WorkModel is the stub pipeline's cost model. Each unbatched transform
// sleeps Fixed + Marginal; a batched pass over n members sleeps
// Fixed + n*Marginal, so Fixed is the per-pass overhead (model load, data
// movement) that batching amortizes and Marginal the irreducible per-app
// compute. With Fixed >> Marginal the stub reproduces the regime the
// batcher targets; with Fixed = 0 batching is cost-neutral.
type WorkModel struct {
	Fixed    time.Duration
	Marginal time.Duration
}

// stubTransformConfig is a transformation sized for sub-second builds:
// one tiling, few frames, a fixed k=3 context sweep (mirrors the server
// package's unit-test sizing).
func stubTransformConfig(seed uint64) kodan.TransformConfig {
	cfg := kodan.DefaultTransformConfig(seed)
	cfg.Frames = 24
	cfg.TileRes = 8
	cfg.Tilings = []kodan.Tiling{{PerSide: 3}}
	cfg.PixelsPerFrame = 90
	cfg.EvalPixelsPerFrame = 90
	cfg.Context.Ks = []int{3}
	cfg.Context.Metrics = []cluster.Metric{cluster.Euclidean}
	cfg.Context.Transforms = []ctxengine.Transform{ctxengine.Standardized}
	cfg.Context.EngineTrain.Epochs = 8
	return cfg
}

// sleepCtx waits d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// StubPipeline returns server overrides that serve prebuilt applications
// from one tiny real workspace under the WorkModel's synthetic cost, so
// load runs exercise the real serving plane (admission, cache, batching,
// pool) with controllable compute cost and real, distinct response
// bodies per application. Applications outside apps (or quantized
// variants) are computed on demand from the shared workspace.
func StubPipeline(work WorkModel, apps []int) (server.NewSystemFunc, server.TransformFunc, server.TransformBatchFunc, error) {
	sys, err := kodan.NewSystemCtx(context.TODO(), stubTransformConfig(7))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("build stub workspace: %w", err)
	}
	prebuilt := make(map[int]*kodan.Application, len(apps))
	var mu sync.Mutex
	for _, idx := range apps {
		app, err := sys.TransformVariantCtx(context.TODO(), idx, false)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("prebuild app %d: %w", idx, err)
		}
		prebuilt[idx] = app
	}
	appFor := func(ctx context.Context, idx int, quantized bool) (*kodan.Application, error) {
		if !quantized {
			mu.Lock()
			app, ok := prebuilt[idx]
			mu.Unlock()
			if ok {
				return app, nil
			}
		}
		app, err := sys.TransformVariantCtx(ctx, idx, quantized)
		if err != nil {
			return nil, err
		}
		if !quantized {
			mu.Lock()
			prebuilt[idx] = app
			mu.Unlock()
		}
		return app, nil
	}

	newSystem := func(ctx context.Context, _ kodan.TransformConfig) (*kodan.System, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return sys, nil
	}
	transform := func(ctx context.Context, _ *kodan.System, appIndex int, quantized bool) (*kodan.Application, error) {
		if err := sleepCtx(ctx, work.Fixed+work.Marginal); err != nil {
			return nil, err
		}
		return appFor(ctx, appIndex, quantized)
	}
	transformBatch := func(ctx context.Context, _ *kodan.System, appIndexes []int, quantized bool) ([]*kodan.Application, error) {
		cost := work.Fixed + time.Duration(len(appIndexes))*work.Marginal
		if err := sleepCtx(ctx, cost); err != nil {
			return nil, err
		}
		out := make([]*kodan.Application, len(appIndexes))
		for i, idx := range appIndexes {
			app, err := appFor(ctx, idx, quantized)
			if err != nil {
				return nil, err
			}
			out[i] = app
		}
		return out, nil
	}
	return newSystem, transform, transformBatch, nil
}

// StubConfig assembles a server.Config over the stub pipeline; callers
// layer serving knobs (shards, batching, admission) on the result.
func StubConfig(work WorkModel, apps []int) (server.Config, error) {
	newSystem, transform, transformBatch, err := StubPipeline(work, apps)
	if err != nil {
		return server.Config{}, err
	}
	return server.Config{
		Seed:            7,
		Timeout:         60 * time.Second,
		TransformConfig: stubTransformConfig,
		NewSystem:       newSystem,
		Transform:       transform,
		TransformBatch:  transformBatch,
	}, nil
}
