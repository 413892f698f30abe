package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"kodan"
	"kodan/internal/telemetry"
	"kodan/internal/telemetry/analyze"
	"kodan/internal/tiling"
)

// sceneSeed is the transformation seed of the reference scene every
// workload trains on (kodan-server's default seed). It is fixed so that each
// workload seed does the same amount of training work: the number of
// contexts, and with it training time, depends on the scene. The workload
// seed drives everything else — sim epochs, held-out captures, request
// streams, deployments and arrival times.
const sceneSeed = 2023

// sizing fixes how much work each workload does. referenceSizing is what
// the benchmark runs; the tests shrink it.
type sizing struct {
	// setups is how many times an untraced run sets up; setup_s is the
	// median.
	setups int

	// offline is the offline-suite workspace sizing.
	offline kodan.TransformConfig
	// satLadder is the constellation sizes simulated for one day each.
	satLadder []int
	// heldOutFrames is the held-out capture size per tiling.
	heldOutFrames int
	// offlinePassBudget is the share of --seconds one offline-suite pass
	// is given: an untraced run makes --seconds / offlinePassBudget passes,
	// at least one.
	offlinePassBudget time.Duration

	// serve is the serving workloads' transformation sizing.
	serve func(seed uint64) kodan.TransformConfig
	// simSet is the (days, sats) set warmed at set-up and simulated by
	// plan-serve.
	simSet [][2]int
	// batchPerSecond sizes plan-serve's closed-loop batch: this many
	// requests of the mix per second of --seconds not given to the ladder.
	batchPerSecond float64
	// ladderShare is the share of --seconds the open-loop ladder takes.
	ladderShare float64
	// rates is the plan-serve open-loop ladder in requests/second,
	// ascending; refRate is its reference rate.
	rates   []float64
	refRate float64
	// refShare is the share of the ladder's time spent at refRate; the
	// other rates split the rest.
	refShare float64
	// checkApps is how many apps the serving checks recompute in-process.
	checkApps int
}

// quickConfig is the serving sizing: experiments.Lab's Quick transformation
// (60 frames, 16-px tiles, tilings 3 and 11).
func quickConfig(seed uint64) kodan.TransformConfig {
	cfg := kodan.DefaultTransformConfig(seed)
	cfg.Frames = 60
	cfg.TileRes = 16
	cfg.Tilings = []tiling.Tiling{{PerSide: 3}, {PerSide: 11}}
	return cfg
}

// referenceSizing is what the benchmark runs. README.md derives each
// number ("Where the numbers come from").
func referenceSizing() sizing {
	return sizing{
		setups:            3,
		offline:           kodan.DefaultTransformConfig(sceneSeed),
		satLadder:         []int{1, 2, 4, 8, 16, 24, 32, 40, 48, 56},
		heldOutFrames:     150,
		offlinePassBudget: 25 * time.Second,
		serve:             quickConfig,
		simSet:            [][2]int{{1, 1}, {1, 4}, {1, 8}, {2, 2}},
		batchPerSecond:    1000,
		ladderShare:       0.3,
		rates:             []float64{100, 200, 400, 1600},
		refRate:           100,
		refShare:          0.7,
		checkApps:         2,
	}
}

// withTracer returns ctx carrying a probe that records into tr (ctx itself
// when tr is nil).
func withTracer(ctx context.Context, tr *telemetry.Tracer) context.Context {
	if tr == nil {
		return ctx
	}
	return telemetry.WithProbe(ctx, telemetry.Probe{Trace: tr})
}

// timed runs fn inside a benchmark span named name and returns its wall
// time.
func timed(ctx context.Context, name string, fn func(context.Context) error) (time.Duration, error) {
	sctx, sp := telemetry.StartSpan(ctx, name)
	start := time.Now()
	err := fn(sctx)
	d := time.Since(start)
	sp.End()
	return d, err
}

// traceStats is the analysed trace of a traced run.
type traceStats struct {
	t *analyze.Trace
}

func analyseTrace(tr *telemetry.Tracer) (traceStats, error) {
	t, err := analyze.Build(tr.Events())
	if err != nil {
		return traceStats{}, fmt.Errorf("analyse trace: %w", err)
	}
	return traceStats{t: t}, nil
}

// selfSeconds sums the self time of every span named name.
func (s traceStats) selfSeconds(name string) float64 {
	var d time.Duration
	for _, sp := range s.t.Spans {
		if sp.Name == name {
			d += sp.Self()
		}
	}
	return d.Seconds()
}

// meanMs is the mean duration of the spans named name for which keep
// (nil: every one) holds.
func (s traceStats) meanMs(name string, keep func(*analyze.Span) bool) float64 {
	var xs series
	for _, sp := range s.t.Spans {
		if sp.Name == name && (keep == nil || keep(sp)) {
			xs.add(sp.Dur())
		}
	}
	return xs.mean()
}

// writeTrace writes tr as JSONL under o.traceDir and returns the path.
func writeTrace(o options, workload string, tr *telemetry.Tracer) (string, error) {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", workload, o.seed))
	if err := telemetry.WriteTraceFile(tr, path); err != nil {
		return "", err
	}
	return path, nil
}

// setTraceLayers fills the per-layer metrics read from span self times.
func setTraceLayers(r *result, ts traceStats) {
	r.layer["imagery.render.self_s"] = ts.selfSeconds("transform.dataset")
	r.layer["ctxengine.build.self_s"] = ts.selfSeconds("transform.contexts")
	r.layer["nn.train.self_s"] = ts.selfSeconds("nn.train")
	r.layer["nn.infer.self_s"] = ts.selfSeconds("nn.infer")
}

// workspaceTiles is how many tiles one workspace build renders.
func workspaceTiles(cfg kodan.TransformConfig) int64 {
	var n int64
	for _, tl := range cfg.Tilings {
		n += int64(cfg.Frames) * int64(tl.Tiles())
	}
	return n
}
