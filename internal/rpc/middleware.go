package rpc

import (
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"scan/internal/route"
)

// statusWriter records the response status for the access log while keeping
// http.Flusher reachable — the SSE handler streams through this wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer so http.ResponseController can reach
// per-request deadline controls (the SSE handler's write timeout).
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// middleware wraps the API mux with panic recovery and access logging. A
// handler panic becomes a clean JSON 500 (in the envelope of whichever API
// version was addressed) when the response has not started, and is logged
// with its stack either way — one bad request must not kill the daemon.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				s.logf("rpc: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				if sw.status == 0 {
					surface := route.V1
					if strings.HasPrefix(r.URL.Path, "/api/v2/") {
						surface = route.V2
					}
					surface.Error(sw, http.StatusInternalServerError, CodeInternal, "internal server error")
				}
			}
			status := sw.status
			if status == 0 {
				// Handler wrote nothing (e.g. a disconnected stream):
				// net/http sends 200 on return.
				status = http.StatusOK
			}
			// The route label is the path half of the pattern the mux matched.
			label := r.Pattern[strings.IndexByte(r.Pattern, ' ')+1:]
			if label == "" {
				label = "other"
			}
			s.metrics.httpRequests.With(label, strconv.Itoa(status)).Inc()
			s.logf("rpc: %s %s -> %d (%s)", r.Method, r.URL.Path, status,
				time.Since(start).Round(time.Millisecond))
		}()
		next.ServeHTTP(sw, r)
	})
}
