package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"kodan"
	"kodan/internal/fault"
	"kodan/internal/telemetry"
)

// ErrBreakerOpen reports that the circuit breaker is rejecting expensive
// work because recent attempts kept failing. Clients get 503 with a
// Retry-After covering the breaker's cooldown.
var ErrBreakerOpen = errors.New("server: circuit breaker open")

// breakerState is the classic three-state machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// Breaker is a mutex-guarded circuit breaker over the transform path.
// Consecutive failures at or above the threshold open it; after the
// cooldown one probe request is admitted (half-open), and its outcome
// either closes the breaker or re-opens it for another cooldown.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	state    breakerState
	failures int
	openedAt time.Time
	probing  bool
}

// NewBreaker builds a breaker; threshold <= 0 disables it (Allow always
// admits, Record is a no-op).
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		return nil
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Cooldown returns the configured cooldown (zero on a nil breaker).
func (b *Breaker) Cooldown() time.Duration {
	if b == nil {
		return 0
	}
	return b.cooldown
}

// Allow reports whether a request may proceed. In the open state it flips
// to half-open once the cooldown has elapsed and admits exactly one probe.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open: one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Record feeds an attempt's outcome back. Returns true when this record
// tripped the breaker closed→open (so the caller can count trips once).
func (b *Breaker) Record(success bool) (tripped, recovered bool) {
	if b == nil {
		return false, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if success {
		recovered = b.state != breakerClosed
		b.state = breakerClosed
		b.failures = 0
		b.probing = false
		return false, recovered
	}
	switch b.state {
	case breakerHalfOpen:
		// The probe failed: back to a full cooldown.
		b.state = breakerOpen
		b.openedAt = b.now()
		b.probing = false
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = breakerOpen
			b.openedAt = b.now()
			return true, false
		}
	}
	return false, false
}

// State returns the current state name (for tests and debugging).
func (b *Breaker) State() string {
	if b == nil {
		return "disabled"
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// transient reports whether an error is worth retrying: injected chaos
// failures are, cancellations and real pipeline errors are not.
func transient(err error) bool {
	return errors.Is(err, fault.ErrInjected)
}

// resilientTransform wraps the configured transform with the chaos
// striker, bounded exponential-backoff retry for transient failures, and
// the circuit breaker. The wrapper is installed unconditionally but is
// pass-through in the default configuration: no chaos means no injected
// faults, and a healthy transform never accumulates breaker failures.
func (s *Server) resilientTransform(base TransformFunc) TransformFunc {
	return func(ctx context.Context, sys *kodan.System, appIndex int, quantized bool) (*kodan.Application, error) {
		scope := s.Registry().Scope("server.resilience")
		backoff := s.cfg.RetryBackoff
		var err error
		for attempt := 1; ; attempt++ {
			if !s.breaker.Allow() {
				scope.Counter("breaker_rejected").Inc()
				return nil, ErrBreakerOpen
			}
			var app *kodan.Application
			app, err = s.strikeAndRun(ctx, base, sys, appIndex, quantized, scope)
			if err == nil {
				_, recovered := s.breaker.Record(true)
				if recovered {
					scope.Counter("breaker_recovered").Inc()
				}
				if attempt > 1 {
					scope.Counter("retry_success").Inc()
				}
				return app, nil
			}
			// Cancellation is the caller's doing, not the pipeline's health.
			if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				if tripped, _ := s.breaker.Record(false); tripped {
					scope.Counter("breaker_tripped").Inc()
					s.logger.Warn("circuit breaker opened",
						"route", "transform", "cooldown", s.breaker.Cooldown().String())
				}
			}
			if !transient(err) || attempt >= s.retryAttempts() {
				return nil, err
			}
			scope.Counter("retries").Inc()
			_, sp := telemetry.StartSpan(ctx, "server.retry_backoff")
			sp.Set("attempt", fmt.Sprint(attempt))
			waitErr := sleepCtx(ctx, backoff)
			sp.End()
			if waitErr != nil {
				return nil, waitErr
			}
			backoff *= 2
		}
	}
}

// strikeAndRun consults the chaos striker, then runs the real transform.
func (s *Server) strikeAndRun(ctx context.Context, base TransformFunc, sys *kodan.System, appIndex int, quantized bool, scope *telemetry.Scope) (*kodan.Application, error) {
	st := s.cfg.Chaos.Next()
	if st.Delay > 0 {
		scope.Counter("delayed").Inc()
		if err := sleepCtx(ctx, st.Delay); err != nil {
			return nil, err
		}
	}
	if st.Fail {
		scope.Counter("injected").Inc()
		return nil, fault.ErrInjected
	}
	return base(ctx, sys, appIndex, quantized)
}

// retryAttempts resolves the configured attempt budget: 0 means the
// default of 3 total attempts, negative disables retry entirely.
func (s *Server) retryAttempts() int {
	switch {
	case s.cfg.RetryAttempts < 0:
		return 1
	case s.cfg.RetryAttempts == 0:
		return 3
	default:
		return s.cfg.RetryAttempts
	}
}

// sleepCtx sleeps for d or until the context is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
