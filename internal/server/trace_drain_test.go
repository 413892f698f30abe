package server

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"kodan"
	"kodan/internal/telemetry"
	"kodan/internal/telemetry/analyze"
)

// TestTraceWrittenAfterDrainIsBalanced is the drain-ordering check behind
// `kodan-server -trace FILE`: the trace is exported only after Shutdown
// returns, and Shutdown returns only after in-flight requests drain — so
// a request that was mid-transform when shutdown began must appear in the
// export as fully balanced spans (http route, pool wait, transform), with
// nothing left unfinished. If the export ever moved before the drain,
// this test would see the in-flight request's spans truncated.
func TestTraceWrittenAfterDrainIsBalanced(t *testing.T) {
	tracer := telemetry.NewTracer(0)
	release := make(chan struct{})
	cfg := testConfig()
	cfg.Tracer = tracer
	cfg.Transform = func(ctx context.Context, sys *kodan.System, appIndex int, quantized bool) (*kodan.Application, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return sys.TransformVariantCtx(ctx, appIndex, quantized)
	}
	s := New(cfg)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	url := "http://" + l.Addr().String()

	resCh := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/v1/plan", "application/json", strings.NewReader(planBody(4)))
		if err != nil {
			resCh <- -1
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resCh <- resp.StatusCode
	}()
	waitFor(t, 5*time.Second, "request in flight", func() bool {
		return s.pool.Stats().InFlight == 1
	})

	// Begin the drain while the transform is still blocked, then release
	// it; Shutdown must not return until the request completes.
	shutdownRet := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownRet <- s.Shutdown(ctx)
	}()
	waitFor(t, 5*time.Second, "listener to close", func() bool {
		_, err := net.DialTimeout("tcp", l.Addr().String(), 50*time.Millisecond)
		return err != nil
	})
	close(release)
	if err := <-shutdownRet; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code := <-resCh; code != http.StatusOK {
		t.Fatalf("drained request: status %d, want 200", code)
	}

	// Only now — after the drain, mirroring the CLI's shutdown sequence —
	// export and analyze the trace.
	var buf bytes.Buffer
	if err := tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	trace, err := analyze.Parse(&buf)
	if err != nil {
		t.Fatalf("exported trace does not parse: %v", err)
	}
	if len(trace.Unfinished) != 0 {
		t.Fatalf("post-drain trace has unfinished spans: %v", trace.Unfinished)
	}
	if trace.OrphanEnds != 0 {
		t.Fatalf("post-drain trace has %d orphan ends", trace.OrphanEnds)
	}
	seen := make(map[string]bool)
	for _, p := range trace.Phases() {
		seen[p.Name] = true
	}
	for _, want := range []string{"http./v1/plan", "server.pool_wait", "server.transform"} {
		if !seen[want] {
			t.Errorf("drained request's %q span missing from the exported trace (got %v)", want, seen)
		}
	}
}
