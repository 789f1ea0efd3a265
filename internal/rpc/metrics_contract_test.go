package rpc

import (
	"bufio"
	"context"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"scan/internal/core"
)

// The /metrics contract: after a scripted workload, the exposition carries
// exactly the promised families with exactly the promised label sets and —
// for everything not timing-derived — exact values. Metric names are wire
// contract the same way routes are: renaming one breaks dashboards.

// scrapeMetrics fetches /metrics and parses the exposition into
// "name{labels}" → value samples, verifying the content type on the way.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	samples := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, raw, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable metric line %q", line)
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			t.Fatalf("bad value in line %q: %v", line, err)
		}
		samples[key] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestMetricsContract(t *testing.T) {
	alice, mallory, _, _ := tenantTestServer(t, core.NewPlatform(core.Options{Workers: 2}))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Scripted workload. alice: one genomic job watched to completion plus
	// one dataset upload — 3 admitted requests. mallory: one dataset upload
	// admitted, a second one rejected by the count quota — 2 admitted
	// requests, 1 quota rejection.
	job, err := alice.CreateJob(ctx, SubmitJobRequest{Synthetic: smallSynthetic(21)})
	if err != nil {
		t.Fatal(err)
	}
	final, err := alice.Watch(ctx, job.ID, nil)
	if err != nil || final.State != StateDone {
		t.Fatalf("job = %+v (%v)", final, err)
	}
	aliceDS, err := alice.UploadDataset(ctx, "a-rows", "feature-table",
		UploadPart{Field: "data", R: strings.NewReader("g1 2.5\ng2 1.5\n")})
	if err != nil {
		t.Fatal(err)
	}
	malloryDS, err := mallory.UploadDataset(ctx, "m-rows", "feature-table",
		UploadPart{Field: "data", R: strings.NewReader("g3 0.5\n")})
	if err != nil {
		t.Fatal(err)
	}
	_, err = mallory.UploadDataset(ctx, "m-rows2", "feature-table",
		UploadPart{Field: "data", R: strings.NewReader("g4 0.5\n")})
	wantCode(t, err, CodeQuotaExceeded)

	// Exact post-workload expectations. The Watch handler's request counter
	// increments a hair after the client sees the terminal event, so poll
	// briefly instead of racing it.
	exact := map[string]float64{
		"scan_jobs_total{state=\"done\"}":     1,
		"scan_jobs_total{state=\"failed\"}":   0,
		"scan_jobs_total{state=\"canceled\"}": 0,
		"scan_queue_depth":                    0,
		"scan_fleet_workers":                  0,

		"scan_registry_datasets":       2,
		"scan_registry_resident_bytes": float64(aliceDS.Bytes + malloryDS.Bytes),
		"scan_registry_evicted_total":  0,

		"scan_tenant_requests_total{tenant=\"alice\"}":                             3,
		"scan_tenant_requests_total{tenant=\"mallory\"}":                           2,
		"scan_tenant_rejected_total{tenant=\"mallory\",reason=\"quota_exceeded\"}": 1,
		"scan_tenant_active_jobs{tenant=\"alice\"}":                                0,
		"scan_tenant_active_jobs{tenant=\"mallory\"}":                              0,
		"scan_tenant_dataset_bytes{tenant=\"alice\"}":                              float64(aliceDS.Bytes),
		"scan_tenant_dataset_bytes{tenant=\"mallory\"}":                            float64(malloryDS.Bytes),

		"scan_http_requests_total{route=\"/api/v2/jobs\",code=\"202\"}":             1,
		"scan_http_requests_total{route=\"/api/v2/jobs/{id}/events\",code=\"200\"}": 1,
		"scan_http_requests_total{route=\"/api/v2/datasets\",code=\"201\"}":         2,
		"scan_http_requests_total{route=\"/api/v2/datasets\",code=\"429\"}":         1,
	}
	var samples map[string]float64
	deadline := time.Now().Add(5 * time.Second)
	for {
		samples = scrapeMetrics(t, alice.base)
		mismatch := ""
		for key, want := range exact {
			if samples[key] != want {
				mismatch = fmt.Sprintf("%s = %v, want %v", key, samples[key], want)
				break
			}
		}
		if mismatch == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never converged: %s", mismatch)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Timing-derived families: present, and consistent with the workload
	// even where the value itself is wall-clock.
	if n := samples["scan_shard_seconds_count{family=\"genomic\"}"]; n < 1 {
		t.Fatalf("scan_shard_seconds_count{family=genomic} = %v, want >= 1", n)
	}
	if samples["scan_shard_seconds_sum{family=\"genomic\"}"] < 0 {
		t.Fatal("negative shard seconds sum")
	}
	if _, ok := samples["scan_shard_seconds_bucket{family=\"genomic\",le=\"+Inf\"}"]; !ok {
		t.Fatal("shard histogram is missing its +Inf bucket")
	}
	if samples["scan_advice_cache_hits_total"]+samples["scan_advice_cache_misses_total"] < 1 {
		t.Fatal("the genomic run consulted no shard advice")
	}
	if samples["scan_kb_runs_total"] < 1 {
		t.Fatal("the genomic run left no run logs")
	}

	// The scrape itself is counted after its response is written: the first
	// scrape never sees itself, later ones see their predecessors.
	before := samples["scan_http_requests_total{route=\"/metrics\",code=\"200\"}"]
	again := scrapeMetrics(t, alice.base)
	if got := again["scan_http_requests_total{route=\"/metrics\",code=\"200\"}"]; got < before+1 {
		t.Fatalf("metrics route counter = %v after another scrape, want >= %v", got, before+1)
	}
}

// TestRouteLabelNormalization pins the cardinality bound: request paths
// collapse to route patterns, IDs to {id}, strangers to "other". Each path
// is requested once through the daemon's handler on a fresh server; the
// request counter must then hold exactly those requests under the wanted
// labels (the scrape itself is counted only after it renders).
func TestRouteLabelNormalization(t *testing.T) {
	c, s := testServer(t)
	h := s.Handler()
	want := map[string]float64{}
	for path, label := range map[string]string{
		"/healthz":                    "/healthz",
		"/metrics":                    "/metrics",
		"/api/v1/jobs":                "/api/v1/jobs",
		"/api/v1/jobs/7":              "/api/v1/jobs/{id}",
		"/api/v2/jobs":                "/api/v2/jobs",
		"/api/v2/jobs/12":             "/api/v2/jobs/{id}",
		"/api/v2/jobs/12/events":      "/api/v2/jobs/{id}/events",
		"/api/v2/datasets/ds-9":       "/api/v2/datasets/{id}",
		"/api/v2/uploads/up-3":        "/api/v2/uploads/{id}",
		"/api/v2/uploads/up-3/commit": "/api/v2/uploads/{id}/commit",
		"/api/v2/blobs/sha256:abcd":   "/api/v2/blobs/{hash}",
		"/api/v2/fleet/poll":          "/api/v2/fleet/poll",
		"/api/v3/jobs":                "other",
		"/favicon.ico":                "other",
	} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
		want[label]++
	}
	got := map[string]float64{}
	for key, v := range scrapeMetrics(t, c.base) {
		if rest, ok := strings.CutPrefix(key, `scan_http_requests_total{route="`); ok {
			label, _, _ := strings.Cut(rest, `"`)
			got[label] += v
		}
	}
	if !maps.Equal(got, want) {
		t.Fatalf("requests by route label = %v, want %v", got, want)
	}
}
