package rpc

import (
	"context"
	"math"
	"net/http"
	"strconv"
	"strings"

	"scan/internal/registry"
	"scan/internal/route"
	"scan/internal/tenant"
)

// Multi-tenant admission for the v2 surface. With ServerOptions.Tenants
// set, every /api/v2 jobs/datasets/uploads request must present a
// configured API key ("Authorization: Bearer <key>" or "X-API-Key") and
// passes the tenant's token bucket before its handler runs; per-tenant
// quotas (concurrent jobs, datasets, resident bytes) are enforced at the
// resource handlers. Without a tenants registry the whole layer is inert
// and v2 stays unauthenticated — the default every pre-tenancy test,
// example and deployment relies on. /api/v1 is compat-frozen and never
// authenticated; /healthz, /metrics and the worker roster stay open; the
// fleet control plane keeps its own bearer token (fleet.Options.Token).
//
// The tenancy model, quota semantics and error codes are documented in
// docs/SERVING.md.

// tenantKey is the request-context key carrying the authenticated tenant.
type tenantKey struct{}

// requestTenant returns the authenticated tenant state, or nil when
// tenancy is disabled (v1 paths, or no tenants registry).
func requestTenant(r *http.Request) *tenant.State {
	st, _ := r.Context().Value(tenantKey{}).(*tenant.State)
	return st
}

// requestTenantName is the authenticated tenant's name, "" when tenancy is
// disabled: the owner recorded on the upload sessions the request opens.
func requestTenantName(r *http.Request) string {
	if st := requestTenant(r); st != nil {
		return st.Name()
	}
	return ""
}

// apiKey extracts the presented API key: the Bearer token, or the
// X-API-Key header for clients that cannot set Authorization.
func apiKey(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		if key, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return key
		}
		return ""
	}
	return r.Header.Get("X-API-Key")
}

// Admission rejection reasons (the tenantRejected metric's reason label).
const (
	reasonRateLimited   = "rate_limited"
	reasonQuotaExceeded = "quota_exceeded"
)

// admit wraps a v2 handler with authentication and rate limiting (the v2
// route table's Admit column). The tenant rides the request context to the
// handler, where resource quotas apply.
func (s *Server) admit(next http.HandlerFunc) http.HandlerFunc {
	if s.tenants == nil {
		return next
	}
	return func(w http.ResponseWriter, r *http.Request) {
		st := s.tenants.Authenticate(apiKey(r))
		if st == nil {
			route.V2.Error(w, http.StatusUnauthorized, CodeUnauthenticated,
				"a configured API key is required (Authorization: Bearer <key>)")
			return
		}
		if ok, retry := st.Allow(s.now()); !ok {
			// Retry-After is whole seconds, rounded up so a compliant
			// client never retries into an still-empty bucket.
			w.Header().Set("Retry-After",
				strconv.Itoa(int(math.Ceil(retry.Seconds()))))
			s.metrics.tenantRejected.With(st.Name(), reasonRateLimited).Inc()
			route.V2.Error(w, http.StatusTooManyRequests, CodeRateLimited,
				"tenant %q is over its request rate; retry in %v", st.Name(), retry)
			return
		}
		s.metrics.tenantRequests.With(st.Name()).Inc()
		next(w, r.WithContext(context.WithValue(r.Context(), tenantKey{}, st)))
	}
}

// datasetLive reports whether a dataset ID still resolves in the registry —
// the liveness callback that keeps tenant quota ledgers honest after
// evictions and deletes the tenants never saw.
func (s *Server) datasetLive(id string) bool {
	_, _, err := s.platform.Datasets().Resolve(id)
	return err == nil
}

// admitJobQuota claims a job slot for the request's tenant (no-op without
// tenancy). On rejection it releases the spec's source, writes the 429 and
// reports false; on success the state is recorded on the spec so
// releaseSpecLocked returns the slot exactly once.
func (s *Server) admitJobQuota(w http.ResponseWriter, r *http.Request, spec *jobSpec) bool {
	st := requestTenant(r)
	if st == nil {
		return true
	}
	ok, active, limit := st.AdmitJob()
	if !ok {
		spec.source.release(s.platform.Datasets())
		s.metrics.tenantRejected.With(st.Name(), reasonQuotaExceeded).Inc()
		route.V2.Error(w, http.StatusTooManyRequests, CodeQuotaExceeded,
			"tenant %q holds %d of %d concurrent jobs; wait for one to finish or cancel it",
			st.Name(), active, limit)
		return false
	}
	spec.tenant = st
	return true
}

// admitDatasetCount pre-checks the tenant's dataset-count quota before an
// upload decodes (the byte quota is only knowable post-commit; see
// settleDatasetQuota). Writes the 429 and reports false on rejection.
func (s *Server) admitDatasetCount(w http.ResponseWriter, st *tenant.State) bool {
	if st == nil {
		return true
	}
	ok, count, limit := st.CheckDataset(s.datasetLive)
	if !ok {
		s.metrics.tenantRejected.With(st.Name(), reasonQuotaExceeded).Inc()
		route.V2.Error(w, http.StatusTooManyRequests, CodeQuotaExceeded,
			"tenant %q holds %d of %d datasets; delete one first", st.Name(), count, limit)
		return false
	}
	return true
}

// settleDatasetQuota charges a just-committed dataset against its owner's
// byte quota. A dataset that busts the quota is deleted again — it was
// committed this request, so nothing can have pinned it — and the request
// answers 429. Reports whether the dataset survived.
func (s *Server) settleDatasetQuota(w http.ResponseWriter, st *tenant.State, id string, bytes int64) bool {
	if st == nil {
		return true
	}
	ok, used, limit := st.RecordDataset(id, bytes, s.datasetLive)
	if !ok {
		_, _ = s.platform.Datasets().Delete(id)
		s.metrics.tenantRejected.With(st.Name(), reasonQuotaExceeded).Inc()
		route.V2.Error(w, http.StatusTooManyRequests, CodeQuotaExceeded,
			"dataset of %d bytes would put tenant %q over its %d-byte quota (%d in use); delete datasets first",
			bytes, st.Name(), limit, used)
		return false
	}
	return true
}

// authorizeDatasetDelete enforces delete ownership: with tenancy enabled a
// dataset recorded by one tenant can only be deleted by that tenant.
// Unowned datasets (admin-seeded, or owned records already pruned) stay
// deletable by anyone authenticated — reads are shared by design, so
// ownership gates destruction only. Writes the 403 and reports false when
// the requester is someone else.
func (s *Server) authorizeDatasetDelete(w http.ResponseWriter, r *http.Request, id string) bool {
	st := requestTenant(r)
	if st == nil || st.Owns(id) {
		return true
	}
	for _, other := range s.tenants.Tenants() {
		if other != st && other.Owns(id) {
			s.metrics.tenantRejected.With(st.Name(), "forbidden").Inc()
			route.V2.Error(w, http.StatusForbidden, CodeForbidden,
				"dataset %q belongs to another tenant", id)
			return false
		}
	}
	return true
}

// authorizeUpload enforces session ownership on the mutating session verbs
// (append, commit, abort): with tenancy on, only the opener may touch a
// session. Writes the 403 and reports false otherwise.
func (s *Server) authorizeUpload(w http.ResponseWriter, r *http.Request, u *registry.UploadSession) bool {
	st := requestTenant(r)
	if st == nil || u.Owner() == st.Name() {
		return true
	}
	s.metrics.tenantRejected.With(st.Name(), "forbidden").Inc()
	route.V2.Error(w, http.StatusForbidden, CodeForbidden,
		"upload session %q belongs to another tenant", u.ID())
	return false
}
