package route

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestRegister pins what a table registers: each row under its method, HEAD
// wherever GET is routed, method-less rows for every method, and one 405
// per pattern in the surface's envelope, with Allow, behind the pattern's
// first Admit.
func TestRegister(t *testing.T) {
	ok := func(w http.ResponseWriter, r *http.Request) { _, _ = w.Write([]byte(r.Pattern)) }
	deny := func(next http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get("Authorization") == "" {
				V2.Error(w, http.StatusUnauthorized, "unauthenticated", "key required")
				return
			}
			next(w, r)
		}
	}
	mux := http.NewServeMux()
	Register(mux, V1, []Route{
		{Method: "GET", Pattern: "/v1/things", Handler: ok},
		{Method: "POST", Pattern: "/v1/things", Handler: ok},
		{Pattern: "/any", Handler: ok},
	})
	Register(mux, V2, []Route{
		{Method: "GET", Pattern: "/v2/things/{id}", Admit: deny, Handler: ok},
		{Method: "PUT", Pattern: "/v2/things/{id}", Admit: deny, Handler: ok},
		{Method: "DELETE", Pattern: "/v2/things/{id}", Admit: deny, Handler: ok},
	})
	Register(mux, Text, []Route{{Method: "POST", Pattern: "/text", Handler: ok}})

	for _, tc := range []struct {
		method, path string
		authed       bool
		code         int
		allow, body  string
	}{
		{"GET", "/v1/things", false, 200, "", "GET /v1/things"},
		{"HEAD", "/v1/things", false, 200, "", "GET /v1/things"},
		{"POST", "/v1/things", false, 200, "", "POST /v1/things"},
		{"DELETE", "/v1/things", false, 405, "GET, HEAD, POST", `{"error":"GET or POST only"}` + "\n"},
		{"PATCH", "/any", false, 200, "", "/any"},
		{"GET", "/v2/things/7", true, 200, "", "GET /v2/things/{id}"},
		{"POST", "/v2/things/7", false, 401, "", `{"error":{"code":"unauthenticated","message":"key required"}}` + "\n"},
		{"POST", "/v2/things/7", true, 405, "DELETE, GET, HEAD, PUT",
			`{"error":{"code":"method_not_allowed","message":"GET or PUT or DELETE only"}}` + "\n"},
		{"GET", "/text", false, 405, "POST", "POST only\n"},
	} {
		req := httptest.NewRequest(tc.method, tc.path, nil)
		if tc.authed {
			req.Header.Set("Authorization", "Bearer k")
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != tc.code || rec.Header().Get("Allow") != tc.allow || rec.Body.String() != tc.body {
			t.Errorf("%s %s: %d, Allow %q, body %q; want %d, %q, %q", tc.method, tc.path,
				rec.Code, rec.Header().Get("Allow"), rec.Body.String(), tc.code, tc.allow, tc.body)
		}
	}
}
