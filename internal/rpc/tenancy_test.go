package rpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"scan/internal/core"
	"scan/internal/registry"
	"scan/internal/tenant"
)

// End-to-end coverage for the multi-tenant serving surface: API-key
// authentication, token-bucket rate limiting, and the per-tenant quotas
// (concurrent jobs, datasets, resident bytes), all enforced at the v2
// admission layer while /api/v1 and the unauthenticated-default v2 stay
// exactly as they were.

const (
	aliceKey   = "alice-key-1234567890"
	malloryKey = "mallory-key-1234567890"
)

// tenantConfig is the test deployment: a compliant tenant with room to
// work and a hostile one with tight quotas to slam into.
func tenantConfig(t *testing.T) *tenant.Registry {
	t.Helper()
	reg, err := tenant.Parse([]byte(`{"tenants": [
		{"name": "alice", "key": "` + aliceKey + `", "priority": "high",
		 "rate_per_sec": 1000, "burst": 1000},
		{"name": "mallory", "key": "` + malloryKey + `", "priority": "low",
		 "rate_per_sec": 1000, "burst": 1000,
		 "max_jobs": 1, "max_datasets": 1, "max_bytes": 4096}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// tenantTestServer starts a tenanted daemon over the given platform and
// returns one client per key plus an unauthenticated client.
func tenantTestServer(t *testing.T, p *core.Platform) (alice, mallory, anon *Client, s *Server) {
	t.Helper()
	s = NewServerOptions(p, ServerOptions{Executors: 2, Tenants: tenantConfig(t)})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return NewClient(ts.URL, WithAPIKey(aliceKey)),
		NewClient(ts.URL, WithAPIKey(malloryKey)),
		NewClient(ts.URL), s
}

// wantCode asserts an error is a v2 *APIError with the given code.
func wantCode(t *testing.T, err error, code string) *APIError {
	t.Helper()
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != code {
		t.Fatalf("err = %v, want code %q", err, code)
	}
	return ae
}

// TestTenantAuthentication: every v2 request needs a configured key; v1,
// /healthz and /metrics stay open.
func TestTenantAuthentication(t *testing.T) {
	alice, _, anon, _ := tenantTestServer(t, core.NewPlatform(core.Options{Workers: 2}))
	ctx := context.Background()

	_, err := anon.ListJobs(ctx, ListJobsOptions{})
	wantCode(t, err, CodeUnauthenticated)
	bad := NewClient(alice.base, WithAPIKey("alice-key-123456789X")) // near miss
	_, err = bad.ListJobs(ctx, ListJobsOptions{})
	wantCode(t, err, CodeUnauthenticated)

	if _, err := alice.ListJobs(ctx, ListJobsOptions{}); err != nil {
		t.Fatalf("authenticated list: %v", err)
	}
	// The X-API-Key header works for clients that cannot set Authorization.
	req, _ := http.NewRequest(http.MethodGet, alice.base+"/api/v2/jobs", nil)
	req.Header.Set("X-API-Key", aliceKey)
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("X-API-Key request: %v %v", err, resp)
	}
	resp.Body.Close()

	// v1 is compat-frozen: never authenticated, even on a tenanted daemon.
	if _, err := anon.Status(ctx); err != nil {
		t.Fatalf("v1 status without key: %v", err)
	}
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(alice.base + path)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %v %v", path, err, resp)
		}
		resp.Body.Close()
	}
}

// TestTenantRateLimit: a tenant over its token bucket gets a structured
// 429 rate_limited with a Retry-After hint; another tenant is unaffected.
func TestTenantRateLimit(t *testing.T) {
	p := core.NewPlatform(core.Options{Workers: 1})
	reg, err := tenant.Parse([]byte(`{"tenants": [
		{"name": "throttled", "key": "throttled-key-0000", "rate_per_sec": 1, "burst": 2},
		{"name": "alice", "key": "` + aliceKey + `", "rate_per_sec": 1000, "burst": 1000}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServerOptions(p, ServerOptions{Executors: 1, Tenants: reg})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	ctx := context.Background()
	throttled := NewClient(ts.URL, WithAPIKey("throttled-key-0000"))
	alice := NewClient(ts.URL, WithAPIKey(aliceKey))

	for i := 0; i < 2; i++ {
		if _, err := throttled.ListJobs(ctx, ListJobsOptions{}); err != nil {
			t.Fatalf("request %d within burst: %v", i, err)
		}
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v2/jobs", nil)
	req.Header.Set("Authorization", "Bearer throttled-key-0000")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	var envelope v2ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error.Code != CodeRateLimited {
		t.Fatalf("code = %q, want %q", envelope.Error.Code, CodeRateLimited)
	}
	// The other tenant's bucket is untouched.
	for i := 0; i < 10; i++ {
		if _, err := alice.ListJobs(ctx, ListJobsOptions{}); err != nil {
			t.Fatalf("alice request %d during mallory throttle: %v", i, err)
		}
	}
}

// familyRuns returns the four workload families' submissions, one per
// family, with fixed seeds so results are reproducible across servers.
func familyRuns() []SubmitJobRequest {
	return []SubmitJobRequest{
		{Synthetic: &SyntheticSpec{ReferenceLength: 2000, Reads: 120, SNVs: 4, Seed: 3}},
		{Workflow: "proteome-maxquant", Proteome: &ProteomeSpec{Proteins: 15, Spectra: 300, Seed: 5}, ShardRecords: 100},
		{Imaging: &ImagingSpec{Images: 2, Width: 96, Height: 96, CellsPerImage: 5, Seed: 7}},
		{Network: &NetworkSpec{Genes: 60, Modules: 4, Seed: 9}, ShardRecords: 20},
	}
}

// normalizeResult strips the wall-clock fields from a job result so two
// runs of the same deterministic workload compare byte-identical.
func normalizeResult(t *testing.T, r *JobResult) string {
	t.Helper()
	if r == nil {
		t.Fatal("job has no result")
	}
	cp := *r
	cp.ElapsedSec = 0
	cp.Stages = append([]StageBreakdown(nil), r.Stages...)
	for i := range cp.Stages {
		cp.Stages[i].ElapsedSec = 0
	}
	raw, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// runFamilies submits every family workload through one client and returns
// the normalized results in submission order.
func runFamilies(ctx context.Context, t *testing.T, c *Client) []string {
	t.Helper()
	out := make([]string, 0, 4)
	for i, req := range familyRuns() {
		job, err := c.CreateJob(ctx, req)
		if err != nil {
			t.Fatalf("family %d submit: %v", i, err)
		}
		final, err := c.Watch(ctx, job.ID, nil)
		if err != nil {
			t.Fatalf("family %d watch: %v", i, err)
		}
		if final.State != StateDone {
			t.Fatalf("family %d state = %q (%+v)", i, final.State, final.Error)
		}
		out = append(out, normalizeResult(t, final.Result))
	}
	return out
}

// TestTwoTenantIsolation is the serving surface's core guarantee: a
// hostile tenant slamming every quota gets nothing but structured 429/403
// envelopes, while a compliant tenant running all four workload families
// concurrently gets results byte-identical to an uncontended daemon.
func TestTwoTenantIsolation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Baseline: the same four workloads on an untenanted daemon.
	baseClient, _ := testServerOptions(t, core.NewPlatform(core.Options{Workers: 2}),
		ServerOptions{Executors: 2})
	baseline := runFamilies(ctx, t, baseClient)

	// The tenanted daemon gets the blocking catalogue so the hostile
	// tenant can pin its one job slot with a deterministically-running job.
	bp, block := blockingPlatform(t)
	alice, mallory, _, _ := tenantTestServer(t, bp)

	// The hostile tenant hammers its quotas for the whole duration of the
	// compliant tenant's runs.
	hostileDone := make(chan struct{})
	var hostileErr error
	var hostileMu sync.Mutex
	fail := func(format string, args ...any) {
		hostileMu.Lock()
		if hostileErr == nil {
			hostileErr = fmt.Errorf(format, args...)
		}
		hostileMu.Unlock()
	}
	go func() {
		defer close(hostileDone)
		// Job quota: max_jobs 1. The blocking job holds the slot (and one
		// of the two executors) until canceled; every further submission
		// must bounce with quota_exceeded.
		held, err := mallory.CreateJob(ctx, SubmitJobRequest{
			Workflow: "block-forever", Synthetic: smallSynthetic(11)})
		if err != nil {
			fail("hostile first job: %v", err)
			return
		}
		select {
		case <-block.started: // the held job is now observably running
		case <-ctx.Done():
			fail("held job never started")
			return
		}
		for i := 0; i < 5; i++ {
			_, err := mallory.CreateJob(ctx, SubmitJobRequest{Synthetic: smallSynthetic(12)})
			var ae *APIError
			if !errors.As(err, &ae) || ae.Code != CodeQuotaExceeded {
				fail("over-quota submit %d: err = %v, want quota_exceeded", i, err)
				return
			}
		}
		// Dataset count quota: max_datasets 1.
		if _, err := mallory.UploadDataset(ctx, "m-feat", "feature-table",
			UploadPart{Field: "data", R: strings.NewReader("g1 2.5\ng2 1.5\n")}); err != nil {
			fail("hostile first dataset: %v", err)
			return
		}
		_, err = mallory.UploadDataset(ctx, "m-feat2", "feature-table",
			UploadPart{Field: "data", R: strings.NewReader("g3 2.5\n")})
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != CodeQuotaExceeded {
			fail("over-count upload: err = %v, want quota_exceeded", err)
			return
		}
		// Canceling the held job frees the slot exactly once: after the
		// cancel lands, a fresh submission is admitted again.
		if _, err := mallory.Cancel(ctx, held.ID); err != nil {
			fail("cancel own job: %v", err)
			return
		}
		if final, err := mallory.Watch(ctx, held.ID, nil); err != nil || final.State != StateCanceled {
			fail("held job after cancel = %+v (%v), want canceled", final, err)
			return
		}
		fresh, err := mallory.CreateJob(ctx, SubmitJobRequest{Synthetic: smallSynthetic(13)})
		if err != nil {
			fail("post-cancel submit: %v", err)
			return
		}
		if final, err := mallory.Watch(ctx, fresh.ID, nil); err != nil || final.State != StateDone {
			fail("post-cancel job = %+v (%v), want done", final, err)
		}
	}()

	// The compliant tenant's four families run concurrently with the
	// hostile traffic and must come out byte-identical to the baseline.
	contended := runFamilies(ctx, t, alice)
	<-hostileDone
	hostileMu.Lock()
	err := hostileErr
	hostileMu.Unlock()
	if err != nil {
		t.Fatalf("hostile tenant: %v", err)
	}
	for i := range baseline {
		if contended[i] != baseline[i] {
			t.Errorf("family %d result diverged under hostile load:\n  baseline:  %s\n  contended: %s",
				i, baseline[i], contended[i])
		}
	}
}

// TestTenantByteQuota: the registry checks the byte quota in the commit
// that would store the dataset — an upload whose decoded size busts it is
// never stored and answers 429.
func TestTenantByteQuota(t *testing.T) {
	_, mallory, _, _ := tenantTestServer(t, core.NewPlatform(core.Options{Workers: 2}))
	ctx := context.Background()

	// A feature table of 400 rows (~7 KiB on the wire) busts mallory's
	// 4096-byte quota.
	var rows strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&rows, "gene%04d %f\n", i, float64(i)*1.5)
	}
	_, err := mallory.UploadDataset(ctx, "m-big", "feature-table",
		UploadPart{Field: "data", R: strings.NewReader(rows.String())})
	wantCode(t, err, CodeQuotaExceeded)
	// The over-quota dataset did not survive, by listing or by name.
	list, err := mallory.Datasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Fatalf("datasets after rejected upload = %+v, want none", list)
	}
	// And the quota holds no phantom bytes: a small upload fits.
	if _, err := mallory.UploadDataset(ctx, "m-small", "feature-table",
		UploadPart{Field: "data", R: strings.NewReader("g1 2.5\n")}); err != nil {
		t.Fatalf("small upload after rejection: %v", err)
	}
}

// TestTenantOwnership: with tenancy on, destruction is ownership-gated —
// another tenant's datasets, jobs and upload sessions answer 403 — while
// reads stay shared.
func TestTenantOwnership(t *testing.T) {
	bp, block := blockingPlatform(t)
	alice, mallory, _, _ := tenantTestServer(t, bp)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	ds, err := alice.UploadDataset(ctx, "a-feat", "feature-table",
		UploadPart{Field: "data", R: strings.NewReader("g1 2.5\ng2 1.5\n")})
	if err != nil {
		t.Fatal(err)
	}
	// Shared reads: mallory can inspect and even run alice's dataset.
	if _, err := mallory.Dataset(ctx, ds.ID); err != nil {
		t.Fatalf("cross-tenant read: %v", err)
	}
	// Gated destruction: delete answers 403 and the dataset survives.
	_, err = mallory.DeleteDataset(ctx, ds.ID)
	wantCode(t, err, CodeForbidden)
	_, err = mallory.DeleteDataset(ctx, "a-feat") // by name resolves to the same owner
	wantCode(t, err, CodeForbidden)
	if _, err := alice.Dataset(ctx, ds.ID); err != nil {
		t.Fatalf("dataset gone after forbidden delete: %v", err)
	}

	// Jobs: mallory cannot cancel alice's (deterministically running) job.
	job, err := alice.CreateJob(ctx, SubmitJobRequest{
		Workflow: "block-forever", Synthetic: smallSynthetic(13)})
	if err != nil {
		t.Fatal(err)
	}
	if job.Tenant != "alice" {
		t.Fatalf("job tenant = %q, want alice", job.Tenant)
	}
	<-block.started
	_, err = mallory.Cancel(ctx, job.ID)
	wantCode(t, err, CodeForbidden)
	if _, err := alice.Cancel(ctx, job.ID); err != nil {
		t.Fatalf("own cancel: %v", err)
	}

	// Upload sessions: only the opener may append, commit or abort.
	up, err := alice.CreateUpload(ctx, "a-resume", "feature-table")
	if err != nil {
		t.Fatal(err)
	}
	_, err = mallory.AppendUpload(ctx, up.ID, "data", 0, strings.NewReader("g9 1.0\n"))
	wantCode(t, err, CodeForbidden)
	err = mallory.AbortUpload(ctx, up.ID)
	wantCode(t, err, CodeForbidden)
	_, err = mallory.CommitUpload(ctx, up.ID)
	wantCode(t, err, CodeForbidden)
	if _, err := alice.AppendUpload(ctx, up.ID, "data", 0, strings.NewReader("g9 1.0\n")); err != nil {
		t.Fatalf("own append: %v", err)
	}
	if _, err := alice.CommitUpload(ctx, up.ID); err != nil {
		t.Fatalf("own commit: %v", err)
	}

	// Finally alice cleans up her own dataset, which frees her quota with
	// it.
	if _, err := alice.DeleteDataset(ctx, ds.ID); err != nil {
		t.Fatalf("own delete: %v", err)
	}
}

// TestUploadOwnershipUnderConcurrentCreates: a session's owner is fixed
// when the session is created, so sessions two tenants open concurrently
// each keep their opener, and every cross-tenant append, commit or abort
// answers 403 while the opener may still abort.
func TestUploadOwnershipUnderConcurrentCreates(t *testing.T) {
	keys := map[string]string{"ann": "ann-key-1234567890", "bob": "bob-key-1234567890"}
	reg, err := tenant.Parse([]byte(`{"tenants": [
		{"name": "ann", "key": "` + keys["ann"] + `", "rate_per_sec": 10000, "burst": 10000},
		{"name": "bob", "key": "` + keys["bob"] + `", "rate_per_sec": 10000, "burst": 10000}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServerOptions(core.NewPlatform(core.Options{Workers: 1}), ServerOptions{Executors: 1, Tenants: reg})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	clients := map[string]*Client{}
	for name, key := range keys {
		clients[name] = NewClient(ts.URL, WithAPIKey(key))
	}
	other := map[string]string{"ann": "bob", "bob": "ann"}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Several rounds, each opening 2×perTenant sessions at once and then
	// probing them all, so creates race each other many times over.
	const rounds, perTenant = 5, 12
	type session struct{ owner, id string }
	forbidden := func(what string, u session, err error) {
		t.Helper()
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != CodeForbidden {
			t.Errorf("%s's %s of %s's session %s: err = %v, want %s", other[u.owner], what, u.owner, u.id, err, CodeForbidden)
		}
	}
	for round := 0; round < rounds; round++ {
		var (
			mu       sync.Mutex
			sessions []session
			wg       sync.WaitGroup
		)
		for owner := range keys {
			for i := 0; i < perTenant; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					up, err := clients[owner].CreateUpload(ctx, fmt.Sprintf("%s-%d-%d", owner, round, i), "feature-table")
					if err != nil {
						t.Errorf("%s create: %v", owner, err)
						return
					}
					mu.Lock()
					sessions = append(sessions, session{owner, up.ID})
					mu.Unlock()
				}()
			}
		}
		wg.Wait()
		if len(sessions) != 2*perTenant {
			t.Fatalf("round %d opened %d sessions, want %d", round, len(sessions), 2*perTenant)
		}
		for _, u := range sessions {
			intruder := clients[other[u.owner]]
			_, err := intruder.AppendUpload(ctx, u.id, "data", 0, strings.NewReader("g1 1.0\n"))
			forbidden("append", u, err)
			_, err = intruder.CommitUpload(ctx, u.id)
			forbidden("commit", u, err)
			forbidden("abort", u, intruder.AbortUpload(ctx, u.id))
			if err := clients[u.owner].AbortUpload(ctx, u.id); err != nil {
				t.Fatalf("%s's own abort of %s: %v", u.owner, u.id, err)
			}
		}
	}
}

// wantCodes sorts responses into counts by v2 error code ("" = success).
func wantCodes(t *testing.T, errs []error, want map[string]int) {
	t.Helper()
	got := map[string]int{}
	for _, err := range errs {
		var ae *APIError
		switch {
		case err == nil:
			got[""]++
		case errors.As(err, &ae):
			got[ae.Code]++
		default:
			t.Fatalf("unstructured error: %v", err)
		}
	}
	if !maps.Equal(got, want) {
		t.Fatalf("outcomes by code = %v, want %v", got, want)
	}
}

// TestDatasetCountQuotaUnderConcurrentCommits: the count quota is checked
// in the commit that stores, not only when a session opens. Three sessions
// opened while mallory (max_datasets 1) held nothing commit concurrently
// into one dataset and two 429s, and a burst of concurrent one-shot uploads
// also leaves her exactly one.
func TestDatasetCountQuotaUnderConcurrentCommits(t *testing.T) {
	_, mallory, _, _ := tenantTestServer(t, core.NewPlatform(core.Options{Workers: 1}))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var ids []string
	for i := 0; i < 3; i++ {
		up, err := mallory.CreateUpload(ctx, fmt.Sprintf("m-resume-%d", i), "feature-table")
		if err != nil {
			t.Fatal(err)
		}
		row := fmt.Sprintf("g%d 1.5\n", i)
		if _, err := mallory.AppendUpload(ctx, up.ID, "data", 0, strings.NewReader(row)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, up.ID)
	}
	commits := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, commits[i] = mallory.CommitUpload(ctx, id)
		}()
	}
	wg.Wait()
	wantCodes(t, commits, map[string]int{"": 1, CodeQuotaExceeded: 2})
	list, err := mallory.Datasets(ctx)
	if err != nil || len(list) != 1 {
		t.Fatalf("datasets after the commits = %+v (%v), want 1", list, err)
	}

	// Free the slot, then race one-shot uploads for it.
	if _, err := mallory.DeleteDataset(ctx, list[0].ID); err != nil {
		t.Fatal(err)
	}
	const n = 6
	uploads := make([]error, n)
	for i := range uploads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, uploads[i] = mallory.UploadDataset(ctx, fmt.Sprintf("m-oneshot-%d", i), "feature-table",
				UploadPart{Field: "data", R: strings.NewReader(fmt.Sprintf("g%d 2.5\n", i))})
		}()
	}
	wg.Wait()
	wantCodes(t, uploads, map[string]int{"": 1, CodeQuotaExceeded: n - 1})
	if list, err := mallory.Datasets(ctx); err != nil || len(list) != 1 {
		t.Fatalf("datasets after the one-shot burst = %+v (%v), want 1", list, err)
	}
}

// TestTenantQuotasSurviveRestart: a dataset's owner is recorded on the
// dataset and persists with it, so after a -data-dir restart mallory is
// still at her count quota and still cannot delete alice's dataset.
func TestTenantQuotasSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() (alice, mallory *Client, stop func()) {
		p, err := core.OpenPlatform(core.Options{Workers: 1, DataDir: dir, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		s := NewServerOptions(p, ServerOptions{Executors: 1, Tenants: tenantConfig(t)})
		ts := httptest.NewServer(s.Handler())
		return NewClient(ts.URL, WithAPIKey(aliceKey)), NewClient(ts.URL, WithAPIKey(malloryKey)),
			func() { ts.Close(); s.Close(); p.Close() }
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	alice, mallory, stop := open()
	ds, err := alice.UploadDataset(ctx, "a-feat", "feature-table",
		UploadPart{Field: "data", R: strings.NewReader("g1 2.5\n")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mallory.UploadDataset(ctx, "m-feat", "feature-table",
		UploadPart{Field: "data", R: strings.NewReader("g2 2.5\n")}); err != nil {
		t.Fatal(err)
	}

	stop()
	alice, mallory, stop = open() // a second daemon over the same data directory
	t.Cleanup(stop)
	_, err = mallory.UploadDataset(ctx, "m-feat2", "feature-table",
		UploadPart{Field: "data", R: strings.NewReader("g3 2.5\n")})
	wantCode(t, err, CodeQuotaExceeded)
	_, err = mallory.DeleteDataset(ctx, ds.ID)
	wantCode(t, err, CodeForbidden)
	if _, err := alice.DeleteDataset(ctx, "a-feat"); err != nil {
		t.Fatalf("own delete after restart: %v", err)
	}
}

// TestQuotaRejectionEvictsNothing: on a full registry, an upload the byte
// quota rejects is refused before the store makes room, so no other
// tenant's dataset is evicted for it.
func TestQuotaRejectionEvictsNothing(t *testing.T) {
	p := core.NewPlatform(core.Options{Workers: 1, Registry: registry.Options{MaxDatasets: 2}})
	alice, mallory, _, _ := tenantTestServer(t, p)
	ctx := context.Background()
	for _, name := range []string{"a1", "a2"} {
		if _, err := alice.UploadDataset(ctx, name, "feature-table",
			UploadPart{Field: "data", R: strings.NewReader(name + " 2.5\n")}); err != nil {
			t.Fatal(err)
		}
	}
	// ~62 KiB of rows against mallory's 4096-byte quota.
	_, err := mallory.UploadDataset(ctx, "m-big", "feature-table",
		UploadPart{Field: "data", R: strings.NewReader(string(featureRows(4000)))})
	wantCode(t, err, CodeQuotaExceeded)
	for _, name := range []string{"a1", "a2"} {
		if _, err := alice.Dataset(ctx, name); err != nil {
			t.Fatalf("%s after the rejected upload: %v", name, err)
		}
	}
	if got := scrapeMetrics(t, alice.base)["scan_registry_evicted_total"]; got != 0 {
		t.Fatalf("scan_registry_evicted_total = %v, want 0", got)
	}
}
