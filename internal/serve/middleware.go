package serve

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"analogfold/internal/fault"
	"analogfold/internal/obs"
)

// HeaderRequestID is the wire header carrying the end-to-end request ID. The
// cluster coordinator mints it, replicas echo it, and it lands on slog
// records and span args at every layer, so a hedged or failed-over request
// can be traced across every replica that touched it.
const HeaderRequestID = "X-Request-ID"

// HeaderTiming is the per-request latency attribution header: the non-zero
// stages of the request's StageBreakdown in Server-Timing syntax
// ("queue;dur=0.312, relax;dur=120.504, ..."), set just before the first
// body byte.
const HeaderTiming = "X-Analogfold-Timing"

// TrailerSpans and TrailerClock are the cross-process span-export trailers a
// replica attaches to a traced response: the compact span summaries of the
// request's subtree, and the replica's wall clock (unix microseconds) at
// response completion so the coordinator can estimate the clock offset. They
// are trailers, not headers, because spans end only after the body is
// written.
const (
	TrailerSpans = "X-Analogfold-Spans"
	TrailerClock = "X-Analogfold-Span-Clock"
)

// obsWriter injects the timing header at first write and remembers the
// status for SLO accounting.
type obsWriter struct {
	http.ResponseWriter
	stages *obs.StageBreakdown
	status int
}

func (w *obsWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
		if h := w.stages.TimingHeader(); h != "" {
			w.Header().Set(HeaderTiming, h)
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *obsWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// withObs is the observability front of every work endpoint. It adopts the
// caller's X-Request-ID (the coordinator, a load balancer, a curious curl) or
// mints one, echoes it on the response before any body is written, and
// threads it down the context chain where spans and logs pick it up. With
// telemetry configured it additionally attaches a per-request stage breakdown
// (rendered into X-Analogfold-Timing and the stage histograms) and — when the
// caller sent a traceparent — joins the caller's trace and exports this
// process's span summaries back in the response trailer for cross-process
// trace merging (DESIGN.md §16).
func (s *Server) withObs(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(HeaderRequestID)
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set(HeaderRequestID, id)
		ctx := obs.WithRequestID(r.Context(), id)

		var (
			stages *obs.StageBreakdown
			col    *obs.SpanCollector
		)
		if s.cfg.Telemetry.Enabled() {
			stages = &obs.StageBreakdown{}
			ctx = obs.WithStages(ctx, stages)
			if tc, ok := obs.ParseTraceparent(r.Header.Get(obs.HeaderTraceparent)); ok {
				ctx = obs.WithRemoteParent(ctx, tc)
				col = obs.NewSpanCollector(obs.MaxExportSpans)
				ctx = obs.WithSpanCollector(ctx, col)
				w.Header().Set("Trailer", TrailerSpans+", "+TrailerClock)
			}
		}

		ow := &obsWriter{ResponseWriter: w, stages: stages}
		start := time.Now()
		h(ow, r.WithContext(ctx))
		if ow.status == 0 {
			ow.status = http.StatusOK
		}
		if col != nil {
			// The handler (and its deferred span Ends) has returned: the
			// request subtree is complete. Announced trailer values set now are
			// flushed by net/http when this middleware returns.
			if spans := col.EncodeJSON(); spans != "" {
				w.Header().Set(TrailerSpans, spans)
			}
			w.Header().Set(TrailerClock, obs.Itoa(time.Now().UnixMicro()))
		}
		s.slo.Record(time.Since(start), ow.status < http.StatusInternalServerError)
		s.met.stages.Record(stages, id)
	}
}

// withRecovery converts a handler panic into a typed fault.ErrPanic response
// instead of letting net/http kill the connection (or, for a panic outside a
// request goroutine, the process). The daemon must survive any single bad
// request; the panic value and request path are preserved in the fault
// message for the operator.
func (s *Server) withRecovery(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.met.panics.Inc()
				err := fault.New(fault.StageServe, fault.ErrPanic,
					"%s %s: %v", r.Method, r.URL.Path, v)
				if rid := obs.RequestID(r.Context()); rid != "" {
					s.logf("panic recovered [request_id %s]: %v", rid, err)
				} else {
					s.logf("panic recovered: %v", err)
				}
				writeError(w, err, 0)
			}
		}()
		h(w, r)
	}
}

// logCtx writes one structured record through the configured slog.Logger,
// attaching the context's request ID so log lines from a proxied request
// correlate with coordinator-side records.
func (s *Server) logCtx(ctx context.Context, msg string, kv ...any) {
	if s.cfg.Logger == nil {
		return
	}
	if rid := obs.RequestID(ctx); rid != "" {
		kv = append(kv, "request_id", rid)
	}
	s.cfg.Logger.Info(msg, kv...)
}

// logf writes to the server's logger when one is configured.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info(fmt.Sprintf(format, args...))
	}
}
