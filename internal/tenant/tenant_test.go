package tenant

import (
	"strings"
	"sync"
	"testing"
	"time"
)

const twoTenants = `{"tenants":[
  {"name":"alice","key":"key-alice","priority":"high","max_jobs":2,"max_datasets":2,"max_bytes":100},
  {"name":"mallory","key":"key-mallory","priority":"low"}
]}`

func mustParse(t *testing.T, raw string) *Registry {
	t.Helper()
	r, err := Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestParseValidation(t *testing.T) {
	cases := []struct {
		name, raw, wantErr string
	}{
		{"empty", `{"tenants":[]}`, "no tenants"},
		{"not json", `nope`, "bad config"},
		{"missing key", `{"tenants":[{"name":"a"}]}`, "needs both name and key"},
		{"missing name", `{"tenants":[{"key":"k"}]}`, "needs both name and key"},
		{"dup name", `{"tenants":[{"name":"a","key":"k1"},{"name":"a","key":"k2"}]}`, "duplicate name"},
		{"dup key", `{"tenants":[{"name":"a","key":"k"},{"name":"b","key":"k"}]}`, "duplicate key"},
		{"bad priority", `{"tenants":[{"name":"a","key":"k","priority":"urgent"}]}`, "unknown priority"},
	}
	for _, tc := range cases {
		if _, err := Parse([]byte(tc.raw)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestAuthenticate(t *testing.T) {
	r := mustParse(t, twoTenants)
	if st := r.Authenticate("key-alice"); st == nil || st.Name() != "alice" {
		t.Fatalf("key-alice resolved to %v", st)
	}
	if st := r.Authenticate("key-mallory"); st == nil || st.Name() != "mallory" {
		t.Fatalf("key-mallory resolved to %v", st)
	}
	for _, bad := range []string{"", "key-alic", "key-alicee", "KEY-ALICE"} {
		if st := r.Authenticate(bad); st != nil {
			t.Fatalf("key %q resolved to %s, want nil", bad, st.Name())
		}
	}
}

func TestPriorityDefaults(t *testing.T) {
	r := mustParse(t, `{"tenants":[
	  {"name":"h","key":"kh","priority":"high"},
	  {"name":"n","key":"kn"},
	  {"name":"l","key":"kl","priority":"low"},
	  {"name":"c","key":"kc","priority":"low","rate_per_sec":99,"burst":3}
	]}`)
	shapes := map[string][2]float64{}
	for _, st := range r.Tenants() {
		shapes[st.Name()] = [2]float64{st.rate, st.burst}
	}
	want := map[string][2]float64{
		"h": {50, 100}, "n": {20, 40}, "l": {5, 10}, "c": {99, 3},
	}
	for name, w := range want {
		if shapes[name] != w {
			t.Errorf("%s: shape = %v, want %v", name, shapes[name], w)
		}
	}
	if r.Authenticate("kn").tenant.Priority != PriorityNormal {
		t.Error("empty priority did not default to normal")
	}
}

func TestTokenBucket(t *testing.T) {
	r := mustParse(t, `{"tenants":[{"name":"a","key":"k","rate_per_sec":10,"burst":2}]}`)
	st := r.Authenticate("k")
	now := time.Unix(1000, 0)

	// Burst drains in two requests; the third is limited.
	for i := 0; i < 2; i++ {
		if ok, _ := st.Allow(now); !ok {
			t.Fatalf("request %d inside burst rejected", i)
		}
	}
	ok, retry := st.Allow(now)
	if ok {
		t.Fatal("request beyond burst admitted")
	}
	if retry <= 0 || retry > 100*time.Millisecond {
		t.Fatalf("retryAfter = %v, want (0, 100ms] at 10 rps", retry)
	}
	// After the advertised wait a token has accrued.
	if ok, _ := st.Allow(now.Add(retry)); !ok {
		t.Fatal("request after Retry-After still rejected")
	}
	// Refill never exceeds the burst.
	if ok, _ := st.Allow(now.Add(time.Hour)); !ok {
		t.Fatal("long-idle tenant rejected")
	}
	st.mu.Lock()
	tokens := st.tokens
	st.mu.Unlock()
	if tokens > 2 {
		t.Fatalf("bucket overfilled: %v tokens > burst 2", tokens)
	}
}

func TestJobQuota(t *testing.T) {
	r := mustParse(t, twoTenants)
	st := r.Authenticate("key-alice") // max_jobs 2
	for i := 0; i < 2; i++ {
		if ok, _, _ := st.AdmitJob(); !ok {
			t.Fatalf("admit %d rejected under quota", i)
		}
	}
	if ok, active, limit := st.AdmitJob(); ok || active != 2 || limit != 2 {
		t.Fatalf("admit over quota: ok=%v active=%d limit=%d", ok, active, limit)
	}
	st.ReleaseJob()
	if ok, _, _ := st.AdmitJob(); !ok {
		t.Fatal("admit after release rejected")
	}
	defer func() {
		if recover() == nil {
			t.Error("unpaired ReleaseJob did not panic")
		}
	}()
	st.ReleaseJob()
	st.ReleaseJob()
	st.ReleaseJob() // one more than admitted
}

func TestDatasetQuotas(t *testing.T) {
	r := mustParse(t, twoTenants)
	st := r.Authenticate("key-alice") // max_datasets 2, max_bytes 100

	if ok, _, _ := st.CheckDataset(nil); !ok {
		t.Fatal("first dataset rejected")
	}
	if ok, _, _ := st.RecordDataset("ds-1", 60, nil); !ok {
		t.Fatal("ds-1 over byte quota at 60/100")
	}
	// Byte quota: 60 + 60 > 100 → rejected and NOT recorded.
	if ok, used, limit := st.RecordDataset("ds-2", 60, nil); ok || used != 60 || limit != 100 {
		t.Fatalf("ds-2: ok=%v used=%d limit=%d, want rejection at 60/100", ok, used, limit)
	}
	if st.Owns("ds-2") {
		t.Fatal("rejected dataset was recorded")
	}
	if ok, _, _ := st.RecordDataset("ds-2", 40, nil); !ok {
		t.Fatal("ds-2 at exactly the byte quota rejected")
	}
	// Count quota: two datasets held, third checks out full.
	if ok, count, limit := st.CheckDataset(nil); ok || count != 2 || limit != 2 {
		t.Fatalf("count check: ok=%v count=%d limit=%d", ok, count, limit)
	}
	// Eviction pruning: the registry dropped ds-1; quota must follow.
	alive := func(id string) bool { return id != "ds-1" }
	if ok, count, _ := st.CheckDataset(alive); !ok || count != 1 {
		t.Fatalf("post-eviction check: ok=%v count=%d, want ok at 1", ok, count)
	}
	if st.Owns("ds-1") {
		t.Fatal("evicted dataset still owned after prune")
	}
	// Delete path: forget is idempotent.
	st.ForgetDataset("ds-2")
	st.ForgetDataset("ds-2")
	if n, b := st.Usage(nil); n != 0 || b != 0 {
		t.Fatalf("usage after forget = %d datasets / %d bytes", n, b)
	}
}

// TestConcurrentAdmission is the -race stress test: many goroutines hammer
// one tenant's bucket, job slots and dataset ledger concurrently —
// submit/release, record/forget, allow — and every counter must be exact
// after the drain, with no slot or ledger entry leaked.
func TestConcurrentAdmission(t *testing.T) {
	r := mustParse(t, `{"tenants":[
	  {"name":"a","key":"k","max_jobs":-1,"max_datasets":-1,"max_bytes":-1,"rate_per_sec":1000,"burst":50}
	]}`)
	st := r.Authenticate("k")

	const workers = 16
	const iters = 300
	var admitted, allowed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	base := time.Unix(2000, 0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			localAdmitted, localAllowed := int64(0), int64(0)
			for i := 0; i < iters; i++ {
				// Rate limiter: interleave clock advances across goroutines.
				if ok, _ := st.Allow(base.Add(time.Duration(w*iters+i) * time.Millisecond)); ok {
					localAllowed++
				}
				// Job slots: admit and release in matched pairs.
				if ok, _, _ := st.AdmitJob(); ok {
					localAdmitted++
					if i%2 == 0 {
						st.ReleaseJob()
					} else {
						defer st.ReleaseJob()
					}
				}
				// Dataset ledger: record, check, forget.
				id := string(rune('a'+w)) + "-ds"
				st.RecordDataset(id, 10, nil)
				st.CheckDataset(func(string) bool { return true })
				st.ForgetDataset(id)
			}
			mu.Lock()
			admitted += localAdmitted
			allowed += localAllowed
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	if admitted != workers*iters {
		t.Errorf("admitted = %d, want %d (unlimited quota)", admitted, workers*iters)
	}
	if got := st.ActiveJobs(); got != 0 {
		t.Errorf("job slots leaked after drain: %d active", got)
	}
	if n, b := st.Usage(nil); n != 0 || b != 0 {
		t.Errorf("dataset ledger leaked: %d datasets / %d bytes", n, b)
	}
	// Rate accounting stays sane: the bucket admitted at least its burst
	// and at most burst + refill over the simulated window.
	if allowed < 50 {
		t.Errorf("allowed = %d, want >= burst 50", allowed)
	}
	maxRefill := int64(50 + (workers*iters/1000+1)*1000)
	if allowed > maxRefill {
		t.Errorf("allowed = %d, want <= %d (burst + refill bound)", allowed, maxRefill)
	}
}
