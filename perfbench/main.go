// Command perfbench is the repository benchmark. It runs one named workload
// of the real Kodan pipeline — library calls, or an in-process kodan-server
// driven over loopback HTTP — checks the outputs, and prints the metrics
// declared in BENCHMARK.json at the repository root.
//
//	perfbench --workload offline-suite --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the final stdout line carries every end-to-end metric; with
// --trace 1 it carries every per-layer metric, taken from a traced run whose
// JSONL trace (readable by kodan-trace summary) is written under
// --trace-dir. The lines before it report sample counts, the highest
// percentile each timing supports, and the run's deterministic work counts.
// The exit code is nonzero when any output check fails.
//
// See README.md in this directory for the workloads and what each metric
// means on each of them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options carries one run's parameters to a workload.
type options struct {
	seed     uint64
	seconds  time.Duration
	trace    bool
	traceDir string
	size     sizing
	log      io.Writer
}

// workloadFunc runs one workload and returns its result. An error means the
// run could not complete; failed output checks are reported in the result.
type workloadFunc func(ctx context.Context, o options) (*result, error)

// workloads maps the names in BENCHMARK.json to the functions that run them.
var workloads = map[string]workloadFunc{
	"offline-suite": runOffline,
	"plan-serve":    runPlanServe,
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := fs.Int("seconds", 30, "measured-phase length in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "directory for the JSONL trace of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	o := options{
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		traceDir: *traceDir,
		size:     referenceSizing(),
		log:      stderr,
	}
	res, err := w(ctx, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res.workload, res.seed, res.traced = *name, *seed, o.trace
	return report(res, stdout, stderr)
}

// report prints the result and returns the exit code: nonzero when an
// output check failed.
func report(res *result, stdout, stderr io.Writer) int {
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.correct() {
		fmt.Fprintf(stderr, "perfbench: %s: %d output check(s) failed; first: %s\n", res.workload, len(res.checkFailures), res.checkFailures[0])
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricSpec declares one metric of BENCHMARK.json.
type metricSpec struct {
	name, unit string
}

// endToEnd lists the end-to-end metrics, in BENCHMARK.json order. Every
// workload reports each of them; README.md gives the per-workload meaning.
// The times are at reference host speed (calib.go).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"suite_s", "s"},
	{"plan_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// requestKinds are the request classes counted by route and cache outcome.
var requestKinds = []string{"plan_bundle", "plan_hybrid"}

// perLayer lists the per-layer metrics, in BENCHMARK.json order. A layer a
// workload never calls reports 0.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"imagery.render.self_s", "s"},
		{"dataset.generate_ms", "ms"},
		{"ctxengine.build.self_s", "s"},
		{"core.workspace_s", "s"},
		{"core.transform_app_ms", "ms"},
		{"nn.train.self_s", "s"},
		{"nn.infer.self_s", "s"},
		{"policy.optimize_ms", "ms"},
		{"policy.calls", "count"},
		{"planner.build_ms", "ms"},
		{"planner.calls", "count"},
		{"sim.run_ms", "ms"},
		{"sim.sat_days", "count"},
		{"deploy.frame_us", "us"},
		{"deploy.frames", "count"},
		{"shardcache.hit_ratio", "ratio"},
		{"shardcache.misses", "count"},
		{"shardcache.joins", "count"},
		{"shardcache.evictions", "count"},
		{"admission.wait_ms", "ms"},
		{"server.plan_bundle_ms", "ms"},
		{"server.plan_hybrid_ms", "ms"},
		{"server.simulate_ms", "ms"},
		{"server.transform_ms", "ms"},
		{"loadgen.max_rps", "1/s"},
		{"loadgen.late_p99_ms", "ms"},
		{"loadgen.backlog_max", "count"},
		{"bench.trace_overhead_frac", "ratio"},
		{"bench.host_speed", "ratio"},
		{"p50_ms", "ms"},
		{"p99_ms", "ms"},
		{"write_p50_ms", "ms"},
		{"write_p90_ms", "ms"},
		{"read_p50_ms", "ms"},
		{"read_p99_ms", "ms"},
	}
	for _, w := range workCounts {
		specs = append(specs, metricSpec{w, "count"})
	}
	return specs
}()

// workCounts are the deterministic work counts reported by every run (and,
// in a traced run, as per-layer metrics). For a fixed seed and --seconds they
// repeat exactly; a changed count means the workload changed, not the speed.
var workCounts = func() []string {
	w := []string{
		"work.apps_transformed",
		"work.contexts",
		"work.tiles_rendered",
		"work.workspaces_built",
		"work.requests.simulate",
	}
	for _, k := range requestKinds {
		for _, o := range []string{"hit", "miss", "join"} {
			w = append(w, "work.requests."+k+"."+o)
		}
	}
	return w
}()

// deterministicCounts are every count that must repeat exactly for a fixed
// seed and --seconds.
var deterministicCounts = append([]string{"policy.calls", "planner.calls", "sim.sat_days", "deploy.frames"}, workCounts...)

// result is one run's outcome: metrics, timing coverage, work counts and
// check failures.
type result struct {
	workload string
	seed     uint64
	traced   bool

	attempted, failed int64
	checkFailures     []string

	e2e     map[string]float64
	layer   map[string]float64
	work    map[string]int64
	timings []timingNote
	// raws are the raw figures behind the scaled end-to-end times.
	raws []string
	// notes are extra report lines (per-rate ladder results).
	notes []string
}

// timingNote reports one latency metric's sample count and the highest
// percentile with at least ten samples beyond it.
type timingNote struct {
	metric string
	n      int
	maxPct float64
}

func newResult() *result {
	return &result{
		e2e:   make(map[string]float64),
		layer: make(map[string]float64),
		work:  make(map[string]int64),
	}
}

// checkFail records a failed output check; it also counts as a failed
// operation.
func (r *result) checkFail(format string, args ...interface{}) {
	r.failed++
	if len(r.checkFailures) < 20 {
		r.checkFailures = append(r.checkFailures, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return len(r.checkFailures) == 0 }

// note records the coverage of a latency metric computed from s.
func (r *result) note(metric string, s series) {
	r.timings = append(r.timings, timingNote{metric, len(s), supportedPercentile(len(s))})
}

// speed records the run's host speed: the per-layer bench.host_speed and a
// note with the kernel time it comes from.
func (r *result) speed(p *speedProbe) {
	f := float64(refKernel) / float64(p.kernel())
	r.layer["bench.host_speed"] = f
	r.notes = append(r.notes, fmt.Sprintf("host speed %.4f: kernel median %.1fus over %d samples, reference %.1fus",
		f, float64(p.kernel())/1e3, len(p.samples), float64(refKernel)/1e3))
}

// raw records the unscaled value of an end-to-end time.
func (r *result) raw(metric string, v float64) {
	r.raws = append(r.raws, fmt.Sprintf("raw %-30s %14.4f (before scaling to reference speed)", metric, v))
}

// jsonMetric is one entry of the final line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the report lines and, last, the JSON result line.
func (r *result) print(w io.Writer) error {
	specs, values := endToEnd, r.e2e
	if r.traced {
		specs, values = perLayer, r.layer
		for k, v := range r.work {
			values[k] = float64(v)
		}
	}
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric, len(specs))}
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s seed %d trace %t\n", r.workload, r.seed, r.traced)
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok && !r.traced {
			return fmt.Errorf("workload %s did not report %s", r.workload, s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s: metric %s is %v", r.workload, s.name, v)
		}
		out.Metrics[s.name] = jsonMetric{Value: v, Unit: s.unit}
		fmt.Fprintf(&b, "metric %-28s %14.4f %s\n", s.name, v, s.unit)
	}
	for _, l := range r.raws {
		fmt.Fprintln(&b, l)
	}
	if !r.traced {
		// Per-layer figures an untraced run measures anyway (p50_ms, ...).
		for _, s := range perLayer {
			if v, ok := r.layer[s.name]; ok {
				fmt.Fprintf(&b, "layer %-28s %14.4f %s\n", s.name, v, s.unit)
			}
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(&b, "note %s\n", n)
	}
	for _, t := range r.timings {
		fmt.Fprintf(&b, "timing %-28s n=%d highest_supported=p%.2f\n", t.metric, t.n, t.maxPct)
	}
	for _, k := range deterministicCounts {
		fmt.Fprintf(&b, "work %-30s %d\n", k, r.work[k])
	}
	fmt.Fprintf(&b, "ops attempted=%d failed=%d failed_frac=%.6f\n", r.attempted, r.failed, frac(r.failed, r.attempted))
	for _, f := range r.checkFailures {
		fmt.Fprintf(&b, "check FAILED: %s\n", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
