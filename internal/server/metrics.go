package server

import (
	"strconv"
	"sync/atomic"
	"time"

	"kodan/internal/telemetry"
)

// metrics holds the server's handles into its telemetry.Registry. The
// registry is the server's only metrics store: the instrumented pipeline
// layers (sim, transform, nn, parallel) record into the same registry via
// the server's base context, and GET /metrics renders its snapshot.
// Handles are resolved once, so recording is lock-free atomics.
type metrics struct {
	reg *telemetry.Registry

	transformsStarted   *telemetry.Counter
	transformsCompleted *telemetry.Counter
	transformsCancelled *telemetry.Counter
	transformsFailed    *telemetry.Counter
	transformSeconds    *telemetry.Histogram
	poolWaitSeconds     *telemetry.Histogram
	poolOccupancy       *telemetry.Gauge
	poolQueued          *telemetry.Gauge
	poolRejected        *telemetry.Counter
	plannerPlans        *telemetry.Counter
	plannerDeferFrac    *telemetry.Histogram
	httpRequests        *telemetry.Counter
	httpErrors          *telemetry.Counter
}

func newMetrics(reg *telemetry.Registry) *metrics {
	scope := reg.Scope("server")
	return &metrics{
		reg:                 reg,
		transformsStarted:   scope.Counter("transforms.started"),
		transformsCompleted: scope.Counter("transforms.completed"),
		transformsCancelled: scope.Counter("transforms.cancelled"),
		transformsFailed:    scope.Counter("transforms.failed"),
		transformSeconds:    scope.Histogram("transform_seconds"),
		poolWaitSeconds:     scope.Histogram("pool_wait_seconds"),
		poolOccupancy:       scope.Gauge("pool_occupancy"),
		poolQueued:          scope.Gauge("pool_queued"),
		poolRejected:        scope.Counter("pool_rejected"),
		plannerPlans:        scope.Counter("planner.plans"),
		plannerDeferFrac:    scope.Histogram("planner.defer_frac"),
		httpRequests:        scope.Counter("http.requests_total"),
		httpErrors:          scope.Counter("http.errors"),
	}
}

// routeMetrics is one route's registry handles:
//
//	server.http.requests/<route>          counter
//	server.http.latency_seconds/<route>   histogram
//	server.http.status/<route>/<code>     counter per HTTP status
//
// Only the request counters share the server.http.requests/ prefix,
// which the dashboard sums into a request rate.
type routeMetrics struct {
	m        *metrics
	requests *telemetry.Counter
	latency  *telemetry.Histogram
	// statusName is the status counters' name without the code.
	statusName string
	// byStatus caches the status counters by code (index 0 collects codes
	// outside the table), so only a code's first request looks it up.
	byStatus [600]atomic.Pointer[telemetry.Counter]
}

// route resolves one route's handles; route starts with "/".
func (m *metrics) route(route string) *routeMetrics {
	return &routeMetrics{
		m:          m,
		requests:   m.reg.Counter("server.http.requests" + route),
		latency:    m.reg.Histogram("server.http.latency_seconds" + route),
		statusName: "server.http.status" + route + "/",
	}
}

// observe records one served request. The route-agnostic total and the
// 5xx counter feed the http-errors SLO.
func (r *routeMetrics) observe(status int, d time.Duration) {
	r.requests.Inc()
	r.latency.Observe(d.Seconds())
	r.m.httpRequests.Inc()
	if status >= 500 {
		r.m.httpErrors.Inc()
	}
	if status < 0 || status >= len(r.byStatus) {
		status = 0
	}
	slot := &r.byStatus[status]
	c := slot.Load()
	if c == nil {
		c = r.m.reg.Counter(r.statusName + strconv.Itoa(status))
		slot.Store(c)
	}
	c.Inc()
}

// transformDone records one finished transform: its wall time and the
// outcome (nil = completed, context errors = cancelled, rest = failed).
func (m *metrics) transformDone(d time.Duration, outcome error, cancelled bool) {
	m.transformSeconds.Observe(d.Seconds())
	switch {
	case outcome == nil:
		m.transformsCompleted.Inc()
	case cancelled:
		m.transformsCancelled.Inc()
	default:
		m.transformsFailed.Inc()
	}
}
