package experiments

import (
	"bytes"
	"context"
	"testing"

	"kodan/internal/telemetry"
	"kodan/internal/telemetry/analyze"
)

// traceTransform transforms one app on the lab under the chosen inference
// variant with a span tracer attached, and returns the parsed trace. The
// lab's workspace must already be warm so the trace holds only the
// transform phases (the variants share every pre-transform artifact).
func traceTransform(t *testing.T, l *Lab, quantized bool) *analyze.Trace {
	t.Helper()
	tracer := telemetry.NewTracer(0)
	ctx := telemetry.WithProbe(context.Background(), telemetry.Probe{Trace: tracer})
	if _, err := l.AppVariantCtx(ctx, 4, quantized); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	trace, err := analyze.Parse(&buf)
	if err != nil {
		t.Fatalf("transform trace does not parse: %v", err)
	}
	return trace
}

// TestTraceDiffAttributesQuantizedDeltaToInference is the acceptance check
// for the diff engine against real pipeline traces: comparing a float app
// transform (A) with an int8 quantized one (B), whatever time delta the
// diff reports must be attributable to the inference variant alone.
// Quantization changes only the prediction hot path, so the two traces
// must do the same work — equal nn.train and nn.infer span counts — and
// differ in exactly one attribute, quantized, labeled on every phase that
// carries it.
//
// The checks are deterministic on purpose. The direction of a wall-clock
// delta (for example int8 nn.infer being slower on the host) depends on
// host load and belongs in the benchmark trajectory, not in a test. Rank
// ordering of the delta table is pinned by the synthetic TestCompare in
// package analyze.
func TestTraceDiffAttributesQuantizedDeltaToInference(t *testing.T) {
	if testing.Short() {
		t.Skip("two full app transforms")
	}
	lab := NewLab(Quick)
	// Warm the shared workspace outside any trace so both variants record
	// only transform.app/transform.tiling/nn.train/nn.infer spans.
	if _, err := lab.WorkspaceCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	float := traceTransform(t, lab, false)
	quant := traceTransform(t, lab, true)
	d := analyze.Compare(float, quant)

	rows := map[string]analyze.DiffRow{}
	for _, r := range d.Rows {
		rows[r.Name] = r
	}
	for _, phase := range []string{"nn.train", "nn.infer"} {
		r, ok := rows[phase]
		if !ok {
			t.Fatalf("diff has no %s row:\n%s", phase, d.Render())
		}
		if r.CountA == 0 || r.CountA != r.CountB {
			t.Errorf("%s span counts %d vs %d, want equal and nonzero (both variants do the same work)",
				phase, r.CountA, r.CountB)
		}
	}

	// quantized is the only attribute that differs, and its flip is
	// labeled on every phase that carries it.
	flagged := map[string]bool{}
	for _, c := range d.AttrChanges {
		if c.Key != "quantized" {
			t.Errorf("attribute %q differs on %s (%q vs %q); only quantized should", c.Key, c.Phase, c.A, c.B)
			continue
		}
		if c.A == "false" && c.B == "true" {
			flagged[c.Phase] = true
		}
	}
	for _, phase := range []string{"nn.infer", "nn.train", "transform.app", "transform.tiling"} {
		if !flagged[phase] {
			t.Errorf("quantized=false -> true not labeled on %s (changes: %+v)", phase, d.AttrChanges)
		}
	}

	// Rendering the same pair twice is byte-identical.
	if a, b := d.Render(), analyze.Compare(float, quant).Render(); a != b {
		t.Error("diff rendering is not deterministic for the same input traces")
	}
}
