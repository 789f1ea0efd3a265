// Package tenant implements scand's multi-tenant admission state: API-key
// identities with per-tenant quotas (concurrent jobs, datasets, resident
// bytes) and token-bucket rate limits shaped by priority class.
//
// The package is deliberately free of HTTP: it answers the admission
// questions — who is this key (Registry.Authenticate, constant-time like
// the fleet token), may they send another request now (State.Allow), and
// may they hold another job (State.AdmitJob) — and internal/rpc turns the
// answers into 401/429/403 envelopes. Datasets are not counted here: each
// dataset records its owner in the registry, which checks the bounds
// State.DatasetLimits reports in the same step that stores the dataset.
// All per-tenant state is allocated once at config load and bounded by the
// tenants file: a client connecting, streaming, or vanishing mid-upload
// never allocates or leaks limiter state.
package tenant

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Priority classes pick a tenant's rate-limit defaults below; they do not
// order tenants under contention. An empty class means PriorityNormal.
const (
	PriorityHigh   = "high"
	PriorityNormal = "normal"
	PriorityLow    = "low"
)

// Default per-class token-bucket shapes: sustained requests/second and
// burst. Explicit RatePerSec/Burst in the config override them.
var classDefaults = map[string]struct {
	rate  float64
	burst float64
}{
	PriorityHigh:   {rate: 50, burst: 100},
	PriorityNormal: {rate: 20, burst: 40},
	PriorityLow:    {rate: 5, burst: 10},
}

// Default quotas applied where the config leaves a field zero. Negative
// config values mean unlimited.
const (
	DefaultMaxJobs     = 8
	DefaultMaxDatasets = 32
	DefaultMaxBytes    = 256 << 20
)

// Tenant is one configured identity, as written in the tenants file.
type Tenant struct {
	// Name labels the tenant in metrics and logs; it never leaves the
	// server, so it need not be secret.
	Name string `json:"name"`
	// Key is the API key presented as "Authorization: Bearer <Key>" (or
	// "X-API-Key: <Key>"). Compared in constant time.
	Key string `json:"key"`
	// Priority is the tenant's class: high, normal (default) or low.
	Priority string `json:"priority,omitempty"`
	// MaxJobs bounds concurrently held jobs (pending + running). 0 means
	// DefaultMaxJobs; negative means unlimited.
	MaxJobs int `json:"max_jobs,omitempty"`
	// MaxDatasets bounds live registered datasets owned by the tenant.
	// 0 means DefaultMaxDatasets; negative means unlimited.
	MaxDatasets int `json:"max_datasets,omitempty"`
	// MaxBytes bounds the summed registry bytes of the tenant's live
	// datasets. 0 means DefaultMaxBytes; negative means unlimited.
	MaxBytes int64 `json:"max_bytes,omitempty"`
	// RatePerSec and Burst override the priority class's token-bucket
	// shape when positive.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Burst      int     `json:"burst,omitempty"`
}

// config is the tenants file shape: {"tenants":[...]}.
type config struct {
	Tenants []Tenant `json:"tenants"`
}

// Registry holds every configured tenant. Immutable after Parse; all
// mutability lives inside the per-tenant States.
type Registry struct {
	states []*State
}

// State is one tenant's runtime admission state. All methods are safe for
// concurrent use.
type State struct {
	tenant Tenant
	// Resolved limits (defaults applied; negative = unlimited).
	maxJobs, maxDatasets int
	maxBytes             int64
	rate, burst          float64

	mu         sync.Mutex
	tokens     float64
	last       time.Time
	activeJobs int
}

// Parse loads a tenants config from JSON bytes and validates it: every
// tenant needs a non-empty name and key, names and keys must be unique,
// and the priority class must be known.
func Parse(raw []byte) (*Registry, error) {
	var cfg config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return nil, fmt.Errorf("tenant: bad config: %w", err)
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("tenant: config has no tenants")
	}
	names := map[string]bool{}
	keys := map[string]bool{}
	r := &Registry{}
	for i, t := range cfg.Tenants {
		if t.Name == "" || t.Key == "" {
			return nil, fmt.Errorf("tenant: entry %d needs both name and key", i)
		}
		if names[t.Name] {
			return nil, fmt.Errorf("tenant: duplicate name %q", t.Name)
		}
		if keys[t.Key] {
			return nil, fmt.Errorf("tenant: duplicate key (tenant %q)", t.Name)
		}
		names[t.Name], keys[t.Key] = true, true
		if t.Priority == "" {
			t.Priority = PriorityNormal
		}
		shape, ok := classDefaults[t.Priority]
		if !ok {
			return nil, fmt.Errorf("tenant: %q has unknown priority %q (want high, normal or low)", t.Name, t.Priority)
		}
		st := &State{
			tenant:      t,
			maxJobs:     resolveInt(t.MaxJobs, DefaultMaxJobs),
			maxDatasets: resolveInt(t.MaxDatasets, DefaultMaxDatasets),
			maxBytes:    resolveInt64(t.MaxBytes, DefaultMaxBytes),
			rate:        shape.rate,
			burst:       shape.burst,
		}
		if t.RatePerSec > 0 {
			st.rate = t.RatePerSec
		}
		if t.Burst > 0 {
			st.burst = float64(t.Burst)
		}
		st.tokens = st.burst // start full: a fresh tenant gets its burst
		r.states = append(r.states, st)
	}
	return r, nil
}

// Load reads a tenants config file (see Parse for the shape).
func Load(path string) (*Registry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	return Parse(raw)
}

// resolveInt applies the zero-means-default, negative-means-unlimited
// convention (unlimited is represented as -1 internally).
func resolveInt(v, def int) int {
	switch {
	case v == 0:
		return def
	case v < 0:
		return -1
	default:
		return v
	}
}

func resolveInt64(v, def int64) int64 {
	switch {
	case v == 0:
		return def
	case v < 0:
		return -1
	default:
		return v
	}
}

// Authenticate resolves an API key to its tenant state, or nil when no
// tenant matches. Every configured key is compared in constant time on
// every call — the same defense the fleet token uses — so response timing
// reveals neither a near-miss nor which tenant matched.
func (r *Registry) Authenticate(key string) *State {
	if key == "" {
		return nil
	}
	var found *State
	kb := []byte(key)
	for _, st := range r.states {
		if subtle.ConstantTimeCompare(kb, []byte(st.tenant.Key)) == 1 {
			found = st
		}
	}
	return found
}

// Tenants lists the configured tenants' states, in config order (for
// metrics enumeration; names are stable label values).
func (r *Registry) Tenants() []*State {
	return append([]*State(nil), r.states...)
}

// Name is the tenant's configured name.
func (s *State) Name() string { return s.tenant.Name }

// ---------------------------------------------------------------------------
// Token-bucket rate limiting
// ---------------------------------------------------------------------------

// Allow consumes one request token if available. When the bucket is empty
// it reports false plus how long until a token accrues — the Retry-After
// the 429 carries. now is injected for testability.
func (s *State) Allow(now time.Time) (ok bool, retryAfter time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.last.IsZero() {
		s.last = now
	}
	if dt := now.Sub(s.last).Seconds(); dt > 0 {
		s.tokens = min(s.burst, s.tokens+dt*s.rate)
		s.last = now
	}
	if s.tokens >= 1 {
		s.tokens--
		return true, 0
	}
	need := (1 - s.tokens) / s.rate
	return false, time.Duration(need * float64(time.Second))
}

// ---------------------------------------------------------------------------
// Job-slot quota
// ---------------------------------------------------------------------------

// AdmitJob claims one concurrent-job slot, reporting false when the tenant
// is at its MaxJobs quota. Every successful claim must be paired with
// exactly one ReleaseJob when the job can never run again.
func (s *State) AdmitJob() (ok bool, active, limit int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.maxJobs >= 0 && s.activeJobs >= s.maxJobs {
		return false, s.activeJobs, s.maxJobs
	}
	s.activeJobs++
	return true, s.activeJobs, s.maxJobs
}

// ReleaseJob returns one concurrent-job slot. Callers guarantee pairing
// (rpc releases through its exactly-once releaseSpecLocked path); a
// spurious release panics rather than silently widening the quota.
func (s *State) ReleaseJob() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.activeJobs <= 0 {
		panic("tenant: ReleaseJob without a matching AdmitJob")
	}
	s.activeJobs--
}

// ActiveJobs reports the currently held job slots.
func (s *State) ActiveJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.activeJobs
}

// DatasetLimits reports the tenant's dataset-count and byte bounds, -1 for
// unlimited. The registry enforces them against the datasets it records
// as the tenant's.
func (s *State) DatasetLimits() (maxDatasets int, maxBytes int64) {
	return s.maxDatasets, s.maxBytes
}
