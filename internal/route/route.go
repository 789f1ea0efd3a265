// Package route describes an HTTP surface as data: a table of {method,
// pattern, admission, handler} rows on the standard library's mux, plus the
// JSON and error writers the handlers share. Each pattern's rows also
// define its 405, written in the surface's own envelope with an Allow
// header; the mux's own 405 is plain text, which JSON clients cannot read.
package route

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
)

// Route is one row of a route table. A row with no Method answers every
// method. Admit, when set, wraps the handler; the first row's Admit also
// wraps its pattern's 405.
type Route struct {
	Method  string
	Pattern string
	Admit   func(http.HandlerFunc) http.HandlerFunc
	Handler http.HandlerFunc
}

// Surface names the error envelope a surface speaks.
type Surface int

const (
	Text Surface = iota // plain text, as http.Error writes it
	V1                  // {"error":"<message>"}
	V2                  // {"error":{"code":"<code>","message":"<message>"}}
)

// Register adds each row to mux as "METHOD PATTERN", and for each pattern
// with method rows a method-less row answering 405 ("GET or POST only").
func Register(mux *http.ServeMux, surface Surface, rows []Route) {
	methods := map[string][]string{}
	admit := map[string]func(http.HandlerFunc) http.HandlerFunc{}
	for _, rt := range rows {
		h := rt.Handler
		if rt.Admit != nil {
			h = rt.Admit(h)
		}
		mux.HandleFunc(strings.TrimSpace(rt.Method+" "+rt.Pattern), h)
		if rt.Method == "" {
			continue
		}
		if _, seen := methods[rt.Pattern]; !seen {
			admit[rt.Pattern] = rt.Admit
		}
		methods[rt.Pattern] = append(methods[rt.Pattern], rt.Method)
	}
	for pattern, ms := range methods {
		msg := strings.Join(ms, " or ") + " only"
		// The mux serves HEAD wherever GET is routed.
		allow := slices.Clone(ms)
		if slices.Contains(ms, http.MethodGet) {
			allow = append(allow, http.MethodHead)
		}
		slices.Sort(allow)
		Register(mux, surface, []Route{{Pattern: pattern, Admit: admit[pattern],
			Handler: func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Allow", strings.Join(allow, ", "))
				surface.Error(w, http.StatusMethodNotAllowed, "method_not_allowed", "%s", msg)
			}}})
	}
}

// JSON writes v as the response body with the given status.
func JSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Error writes status and a message in the surface's envelope; V1 and Text
// have no place for the code.
func (s Surface) Error(w http.ResponseWriter, status int, code, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	switch s {
	case Text:
		http.Error(w, msg, status)
	case V1:
		JSON(w, status, map[string]string{"error": msg})
	default:
		JSON(w, status, map[string]map[string]string{"error": {"code": code, "message": msg}})
	}
}
