package rpc

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"scan/internal/route"
)

// TestRouteContract locks down the wire API's route table: every v1 and v2
// endpoint, the methods it accepts, the status codes it answers, and which
// error envelope it speaks. A future PR that renames a path, drops a
// method, or swaps an envelope breaks this table loudly instead of breaking
// deployed clients silently.
func TestRouteContract(t *testing.T) {
	c, s := testServer(t)
	const (
		envNone = iota // no JSON error envelope expected
		envV1          // {"error":"<string>"}
		envV2          // {"error":{"code":...,"message":...}}
	)
	cases := []struct {
		method   string
		path     string
		body     string
		want     int
		envelope int
	}{
		// health
		{"GET", "/healthz", "", 200, envNone},

		// v1 status / catalogue
		{"GET", "/api/v1/status", "", 200, envNone},
		{"POST", "/api/v1/status", "", 405, envV1},
		{"GET", "/api/v1/workflows", "", 200, envNone},
		{"POST", "/api/v1/workflows", "", 405, envV1},

		// v1 jobs
		{"GET", "/api/v1/jobs", "", 200, envNone},
		{"POST", "/api/v1/jobs", `{"reference_length":2000,"reads":60,"seed":1}`, 202, envNone},
		{"POST", "/api/v1/jobs", `{"reference_length":1}`, 400, envV1},
		{"POST", "/api/v1/jobs", `not json`, 400, envV1},
		{"DELETE", "/api/v1/jobs", "", 405, envV1},
		{"PUT", "/api/v1/jobs", "", 405, envV1},
		{"GET", "/api/v1/jobs/999", "", 404, envV1},
		{"GET", "/api/v1/jobs/abc", "", 400, envV1},
		{"POST", "/api/v1/jobs/999", "", 405, envV1},
		{"DELETE", "/api/v1/jobs/999", "", 405, envV1}, // v1 has no cancel; that is v2's DELETE

		// v1 knowledge base
		{"POST", "/api/v1/kb/query", `{"query":"bad sparql"}`, 400, envV1},
		{"GET", "/api/v1/kb/query", "", 405, envV1},
		{"GET", "/api/v1/kb/profiles", "", 200, envNone},
		{"POST", "/api/v1/kb/profiles", "", 405, envV1},
		{"GET", "/api/v1/kb/export", "", 200, envNone},
		{"GET", "/api/v1/kb/export?format=bogus", "", 400, envV1},
		{"POST", "/api/v1/kb/export", "", 405, envV1},

		// v2 jobs collection
		{"GET", "/api/v2/jobs", "", 200, envNone},
		{"POST", "/api/v2/jobs", `{"synthetic":{"reference_length":2000,"reads":60,"seed":2}}`, 202, envNone},
		{"POST", "/api/v2/jobs", `{}`, 400, envV2},
		{"POST", "/api/v2/jobs", `not json`, 400, envV2},
		{"GET", "/api/v2/jobs?limit=zero", "", 400, envV2},
		{"GET", "/api/v2/jobs?state=bogus", "", 400, envV2},
		{"GET", "/api/v2/jobs?page_token=garbage", "", 400, envV2},
		{"DELETE", "/api/v2/jobs", "", 405, envV2},
		{"PUT", "/api/v2/jobs", "", 405, envV2},

		// v2 job resource
		{"GET", "/api/v2/jobs/999", "", 404, envV2},
		{"DELETE", "/api/v2/jobs/999", "", 404, envV2},
		{"GET", "/api/v2/jobs/abc", "", 400, envV2},
		{"POST", "/api/v2/jobs/999", "", 405, envV2},
		{"PUT", "/api/v2/jobs/999", "", 405, envV2},

		// v2 event stream
		{"GET", "/api/v2/jobs/999/events", "", 404, envV2},
		{"POST", "/api/v2/jobs/999/events", "", 405, envV2},
		{"GET", "/api/v2/jobs/999/bogus", "", 404, envV2},

		// v2 dataset registry
		{"GET", "/api/v2/datasets", "", 200, envNone},
		{"POST", "/api/v2/datasets?name=rows&family=feature-table", "g0 1.5\n", 201, envNone},
		{"POST", "/api/v2/datasets?family=feature-table", "g0 1.5\n", 400, envV2}, // no name
		{"POST", "/api/v2/datasets?name=x&family=bogus", "g0 1.5\n", 400, envV2},
		{"POST", "/api/v2/datasets?name=x&family=mgf", "spectra", 400, envV2},               // mgf needs multipart
		{"POST", "/api/v2/datasets?name=rows&family=feature-table", "g0 1.5\n", 409, envV2}, // duplicate name
		{"PUT", "/api/v2/datasets", "", 405, envV2},
		{"DELETE", "/api/v2/datasets", "", 405, envV2},
		{"GET", "/api/v2/datasets/rows", "", 200, envNone},
		{"POST", "/api/v2/datasets/rows", "", 405, envV2},
		{"DELETE", "/api/v2/datasets/rows", "", 200, envNone},
		{"GET", "/api/v2/datasets/ds-404", "", 404, envV2},
		{"DELETE", "/api/v2/datasets/ds-404", "", 404, envV2},
		{"GET", "/api/v2/datasets/ds-1/bogus", "", 404, envV2},

		// v2 fleet: the worker roster, control plane and blob data plane
		{"GET", "/api/v2/workers", "", 200, envNone},
		{"POST", "/api/v2/workers", "", 405, envV2},
		{"DELETE", "/api/v2/workers", "", 405, envV2},
		{"POST", "/api/v2/fleet/register", `{"name":"n","slots":1}`, 200, envNone},
		{"POST", "/api/v2/fleet/register", `not json`, 400, envV2},
		{"GET", "/api/v2/fleet/register", "", 405, envV2},
		{"POST", "/api/v2/fleet/poll", `{"worker_id":"w999"}`, 404, envV2},
		{"POST", "/api/v2/fleet/poll", `not json`, 400, envV2},
		{"GET", "/api/v2/fleet/poll", "", 405, envV2},
		{"POST", "/api/v2/fleet/result", `{"worker_id":"w999","task_id":"t1","error":"x"}`, 404, envV2},
		{"POST", "/api/v2/fleet/result", `{}`, 400, envV2},
		{"GET", "/api/v2/fleet/result", "", 405, envV2},
		{"GET", "/api/v2/blobs/nope", "", 404, envV2},
		{"POST", "/api/v2/blobs/nope", "", 405, envV2},

		// unrouted
		{"GET", "/api/v2/other", "", 404, envNone},
		{"GET", "/api/v3/jobs", "", 404, envNone},
		{"GET", "/api/v1/other", "", 404, envNone},

		// v2 content addressing (appended rows; everything above is frozen).
		// "rows2" carries the same body the earlier "rows" dataset did, so
		// its content hash is the known constant below.
		{"POST", "/api/v2/datasets?name=rows2&family=feature-table", "g0 1.5\n", 201, envNone},
		{"GET", "/api/v2/datasets/sha256:9354a738afff7d7be09d67d1a6a6a03aa3d2621cb56ab4a12b8d4aea16584274", "", 200, envNone},
		{"GET", "/api/v2/datasets/sha256:0000000000000000000000000000000000000000000000000000000000000000", "", 404, envV2},

		// v2 resumable uploads
		{"GET", "/api/v2/uploads", "", 200, envNone},
		{"POST", "/api/v2/uploads", `{"name":"sess","family":"feature-table"}`, 201, envNone},
		{"POST", "/api/v2/uploads", `{"name":"rows2","family":"feature-table"}`, 409, envV2}, // name taken
		{"POST", "/api/v2/uploads", `{"name":"x","family":"bogus"}`, 400, envV2},
		{"POST", "/api/v2/uploads", `not json`, 400, envV2},
		{"PUT", "/api/v2/uploads", "", 405, envV2},
		{"DELETE", "/api/v2/uploads", "", 405, envV2},
		{"GET", "/api/v2/uploads/up-404", "", 404, envV2},
		{"PUT", "/api/v2/uploads/up-404?part=data&offset=0", "x", 404, envV2},
		{"POST", "/api/v2/uploads/up-404/commit", "", 404, envV2},
		{"DELETE", "/api/v2/uploads/up-404", "", 404, envV2},
		{"GET", "/api/v2/uploads/up-404/bogus", "", 404, envV2},

		// operational telemetry (appended rows). /metrics is plain-text
		// Prometheus exposition, never a JSON envelope.
		{"GET", "/metrics", "", 200, envNone},
		{"POST", "/metrics", "", 405, envNone},
		{"PUT", "/metrics", "", 405, envNone},

		// The route table on the stdlib mux (appended rows). /healthz has
		// no method row, so it answers every method; HEAD is served
		// wherever GET is; the method is checked before any ID is parsed
		// or looked up; the ID is checked before a sub-resource is.
		{"POST", "/healthz", "", 200, envNone},
		{"HEAD", "/api/v1/status", "", 200, envNone},
		{"HEAD", "/api/v2/jobs", "", 200, envNone},
		{"POST", "/api/v2/jobs/abc", "", 405, envV2},
		{"POST", "/api/v2/uploads/up-404", "", 405, envV2},
		{"GET", "/api/v2/uploads/up-404/commit", "", 405, envV2},
		{"GET", "/api/v2/jobs/abc/events", "", 400, envV2},
		{"GET", "/api/v2/jobs/abc/bogus", "", 400, envV2},
	}
	for _, tc := range cases {
		code, raw := rawRequest(t, c, tc.method, tc.path, tc.body)
		if code != tc.want {
			t.Errorf("%s %s: code = %d, want %d (body %s)", tc.method, tc.path, code, tc.want, raw)
			continue
		}
		switch tc.envelope {
		case envV1:
			var env struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(raw, &env); err != nil || env.Error == "" {
				t.Errorf("%s %s: want v1 string envelope, got %s", tc.method, tc.path, raw)
			}
		case envV2:
			var env v2ErrorResponse
			if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
				t.Errorf("%s %s: want v2 coded envelope, got %s", tc.method, tc.path, raw)
			}
			if code == 405 && env.Error.Code != CodeMethodNotAllowed {
				t.Errorf("%s %s: 405 code = %q", tc.method, tc.path, env.Error.Code)
			}
		}
	}

	// Every 405 carries Allow (RFC 9110 §15.5.6): the path's row methods,
	// plus HEAD wherever GET is routed (appended rows).
	for _, tc := range []struct{ method, path, allow string }{
		{"POST", "/api/v1/status", "GET, HEAD"},
		{"PUT", "/api/v2/jobs/999", "DELETE, GET, HEAD"},
		{"GET", "/api/v2/fleet/poll", "POST"},
		{"POST", "/metrics", "GET, HEAD"},
	} {
		req, err := http.NewRequest(tc.method, c.base+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get("Allow"); resp.StatusCode != 405 || got != tc.allow {
			t.Errorf("%s %s: %d, Allow %q; want 405, Allow %q", tc.method, tc.path, resp.StatusCode, got, tc.allow)
		}
	}

	// A new route cannot land unpinned: every row of the daemon's route
	// tables is the pattern some case above resolves to.
	t.Run("every route has a case", func(t *testing.T) {
		mux := http.NewServeMux()
		for surface, rows := range s.routes() {
			route.Register(mux, surface, rows)
		}
		pinned := map[string]bool{}
		for _, tc := range cases {
			_, pattern := mux.Handler(httptest.NewRequest(tc.method, tc.path, nil))
			pinned[pattern] = true
		}
		for _, rows := range s.routes() {
			for _, rt := range rows {
				if p := strings.TrimSpace(rt.Method + " " + rt.Pattern); !pinned[p] {
					t.Errorf("route %q has no TestRouteContract case", p)
				}
			}
		}
	})
}
