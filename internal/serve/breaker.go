package serve

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit-breaker automaton.
type breakerState int32

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker guards the model-evaluation path. Consecutive model faults (as
// classified by core.DegradationReport.ModelFault) trip it open; while open
// every request is answered from the degradation ladder without touching the
// model, so a poisoned checkpoint or a numerics bug cannot burn a relaxation
// budget per request. After the cooldown one probe request is let through
// (half-open): success closes the breaker, another model fault re-opens it.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // time seam for deterministic tests

	mu          sync.Mutex
	state       breakerState
	consecutive int
	openedAt    time.Time
	trips       int64
	probing     bool // a half-open probe is in flight
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// allow reports whether this request may take the model path. In the open
// state it flips to half-open once the cooldown has elapsed and admits exactly
// one probe; callers that get true must report the attempt via record.
func (b *breaker) allow() bool {
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
	default: // half-open: only one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// record reports the outcome of a model-path attempt previously admitted by
// allow.
func (b *breaker) record(modelFault bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if modelFault {
		b.consecutive++
		if b.state == breakerHalfOpen || b.consecutive >= b.threshold {
			if b.state != breakerOpen {
				b.trips++
			}
			b.state = breakerOpen
			b.openedAt = b.now()
			b.probing = false
		}
		return
	}
	b.consecutive = 0
	b.state = breakerClosed
	b.probing = false
}

// abortProbe releases the half-open probe slot without a verdict — the probe
// was canceled or failed for reasons that say nothing about the model. Without
// this, a timed-out probe would leave the breaker half-open with its one probe
// slot leaked, never recovering.
func (b *breaker) abortProbe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probing = false
	}
}

// snapshot returns the state for /metrics and /readyz.
func (b *breaker) snapshot() (state string, consecutive int, trips int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String(), b.consecutive, b.trips
}
