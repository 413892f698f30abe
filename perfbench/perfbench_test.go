package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"kodan"
	"kodan/internal/tiling"
)

// smokeSizing shrinks every workload to seconds of work.
func smokeSizing() sizing {
	tiny := func(seed uint64) kodan.TransformConfig {
		cfg := kodan.DefaultTransformConfig(seed)
		cfg.Frames = 16
		cfg.TileRes = 8
		cfg.Tilings = []tiling.Tiling{{PerSide: 3}}
		return cfg
	}
	return sizing{
		setups:            2,
		offline:           tiny(sceneSeed),
		satLadder:         []int{1, 2},
		heldOutFrames:     3,
		offlinePassBudget: time.Second,
		serve:             tiny,
		simSet:            [][2]int{{1, 1}},
		batchPerSecond:    100,
		ladderShare:       0.5,
		rates:             []float64{100, 200},
		refRate:           100,
		refShare:          0.6,
		checkApps:         1,
	}
}

func smokeOptions(t *testing.T, seed uint64, trace bool) options {
	return options{
		seed:     seed,
		seconds:  2 * time.Second,
		trace:    trace,
		traceDir: t.TempDir(),
		size:     smokeSizing(),
		log:      io.Discard,
	}
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if !metricName.MatchString(m.name) {
				t.Errorf("metric name %q does not match %v", m.name, metricName)
			}
			if !unitName.MatchString(m.unit) {
				t.Errorf("unit %q of %s does not match %v", m.unit, m.name, unitName)
			}
			if seen[m.name] {
				t.Errorf("metric %q declared twice", m.name)
			}
			seen[m.name] = true
		}
	}
	for name := range workloads {
		if !metricName.MatchString(name) {
			t.Errorf("workload name %q does not match %v", name, metricName)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and perfbench in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench has %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), perfbench %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestStreamsDependOnSeedOnly(t *testing.T) {
	sz := referenceSizing()
	hot := newHotSet(sz)
	batchA, rungsA := planSchedule(7, sz, 20*time.Second, hot)
	batchB, rungsB := planSchedule(7, sz, 20*time.Second, hot)
	if !reflect.DeepEqual(rungsA, rungsB) || !reflect.DeepEqual(batchA, batchB) {
		t.Error("plan-serve: the same seed gave different streams")
	}
	batchC, rungsC := planSchedule(8, sz, 20*time.Second, hot)
	if reflect.DeepEqual(rungsA, rungsC) || reflect.DeepEqual(batchA, batchC) {
		t.Error("plan-serve: different seeds gave the same stream")
	}
	// The batch's composition is fixed; only its order and keys vary.
	classes := func(reqs []request) map[string]int {
		n := make(map[string]int)
		for _, q := range reqs {
			n[fmt.Sprintf("%s fresh=%t", q.kind, q.fresh)]++
		}
		return n
	}
	if !reflect.DeepEqual(classes(batchA), classes(batchC)) {
		t.Errorf("plan-serve batch composition depends on the seed: %v vs %v", classes(batchA), classes(batchC))
	}
	fresh := make(map[string]bool)
	sent := [][]request{batchA}
	for _, r := range rungsA {
		sent = append(sent, r.reqs)
	}
	for _, reqs := range sent {
		for _, q := range reqs {
			if q.fresh && fresh[q.key()] {
				t.Fatalf("fresh key %s repeats", q.key())
			}
			fresh[q.key()] = q.fresh
		}
	}

	if offlineInputsFor(7) != offlineInputsFor(7) {
		t.Error("offline-suite: the same seed gave different inputs")
	}
	if offlineInputsFor(7) == offlineInputsFor(8) {
		t.Error("offline-suite: different seeds gave the same inputs")
	}
}

// TestSpeedProbe checks the host-speed scaling: no samples means no
// scaling, the factor is the reference over the median sample, and a tick
// samples once per kernelEvery since the last sample, at most catchUp
// times.
func TestSpeedProbe(t *testing.T) {
	p := newSpeedProbe()
	if p.factor() != 1 {
		t.Fatalf("factor without samples = %v, want 1", p.factor())
	}
	if p.tick(); len(p.samples) != 0 {
		t.Fatalf("a tick within kernelEvery of the start took %d samples", len(p.samples))
	}
	p.samples = []time.Duration{refKernel / 2, 2 * refKernel, 2 * refKernel}
	if p.factor() != 0.5 {
		t.Fatalf("factor = %v, want 0.5 (the reference over the median sample)", p.factor())
	}
	p = newSpeedProbe()
	p.sampled = time.Now().Add(-time.Hour)
	if p.tick(); len(p.samples) != catchUp || p.spent <= 0 || p.factor() <= 0 {
		t.Fatalf("a tick an hour after the last sample took %d samples (spent %v), want %d", len(p.samples), p.spent, catchUp)
	}
	if !sort.Float64sAreSorted(p.work) {
		t.Fatal("the kernel did not sort its input")
	}
}

func TestBodiesDetectChangedResponse(t *testing.T) {
	b := newBodies()
	if !b.record("k", []byte(`{"a":1}`)) || !b.record("k", []byte(`{"a":1}`)) {
		t.Fatal("identical bodies reported as changed")
	}
	if b.record("k", []byte(`{"a":2}`)) {
		t.Fatal("changed body not detected")
	}
}

// lastJSON decodes the final stdout line as a harness reading the result does.
func lastJSON(t *testing.T, out string) jsonResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var r jsonResult
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return r
}

func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take tens of seconds")
	}
	ctx := context.Background()
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res, err := workloads[name](ctx, smokeOptions(t, 3, trace))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			res.workload, res.traced = name, trace
			var out, errOut bytes.Buffer
			if code := report(res, &out, &errOut); code != 0 {
				t.Fatalf("%s trace=%t: exit %d: %s\n%s", name, trace, code, errOut.String(), out.String())
			}
			got := lastJSON(t, out.String())
			want := endToEnd
			if trace {
				want = perLayer
			}
			if !got.Correct || got.Attempted < 1 || got.Failed != 0 || len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %+v", name, trace, got)
			}
			for _, m := range want {
				if v, ok := got.Metrics[m.name]; !ok || v.Unit != m.unit {
					t.Errorf("%s trace=%t: metric %s = %+v", name, trace, m.name, v)
				}
			}
			if !trace {
				for _, m := range endToEnd {
					if got.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, got.Metrics[m.name].Value)
					}
				}
			}
		}
	}
}

// TestWorkCountsRepeat runs each workload twice at one seed: every
// deterministic work count must repeat exactly.
func TestWorkCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take tens of seconds")
	}
	ctx := context.Background()
	for _, name := range workloadNames() {
		a, err := workloads[name](ctx, smokeOptions(t, 5, false))
		if err != nil {
			t.Fatal(err)
		}
		b, err := workloads[name](ctx, smokeOptions(t, 5, false))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range deterministicCounts {
			if a.work[k] != b.work[k] {
				t.Errorf("%s: %s = %d then %d", name, k, a.work[k], b.work[k])
			}
		}
	}
}

func TestCorruptedBundleFailsCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a workspace")
	}
	ctx := context.Background()
	o := smokeOptions(t, 3, false)
	hot := newHotSet(o.size)
	checks := newBodies()
	h, _, err := setUp(ctx, o.size, nil, 1, 1, checks, hot, newSpeedProbe())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.close(); err != nil {
		t.Fatal(err)
	}
	q := hot.bundle[0]
	good := newResult()
	if err := checkBundles(ctx, good, o.size, checks, []request{q}); err != nil {
		t.Fatal(err)
	}
	if !good.correct() {
		t.Fatalf("served bundle should match in-process: %v", good.checkFailures)
	}
	body, _ := checks.body(q.key())
	corrupt := append([]byte(nil), body...)
	corrupt[len(corrupt)/2] ^= 1
	checks.first[q.key()] = corrupt
	bad := newResult()
	if err := checkBundles(ctx, bad, o.size, checks, []request{q}); err != nil {
		t.Fatal(err)
	}
	if bad.correct() || bad.failed != 1 {
		t.Fatalf("corrupted bundle passed the check: %+v", bad)
	}
	bad.traced = true // per-layer form: this result carries no end-to-end metrics
	var out bytes.Buffer
	if code := report(bad, &out, io.Discard); code == 0 {
		t.Fatal("a failed check must exit nonzero")
	}
	if lastJSON(t, out.String()).Correct {
		t.Fatal("a failed check must print correct=false")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "plan-serve", "--seconds", "0"},
		{"--workload", "plan-serve", "--trace", "2"},
	} {
		var out bytes.Buffer
		if code := run(context.Background(), args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
