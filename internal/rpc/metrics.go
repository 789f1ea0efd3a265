package rpc

import (
	"net/http"

	"scan/internal/metrics"
)

// The serving observability surface: GET /metrics in the Prometheus text
// format. Push-style instruments (request counts, shard latencies,
// per-tenant admission outcomes) are updated on the hot path; everything
// whose truth already lives in a subsystem — queue depth, job lifecycle
// totals, the advice cache, registry occupancy, the fleet roster — is
// scraped pull-style so no second counter can drift. Metric names and
// label sets are a contract (docs/SERVING.md), pinned by
// TestMetricsContract the way routes_test.go pins the route table.

// serverMetrics is the daemon's metric set.
type serverMetrics struct {
	reg *metrics.Registry
	// httpRequests counts every served request by the mux pattern it
	// matched and status code, so cardinality is bounded by the route
	// tables, not by client behaviour (unrouted paths count as "other").
	httpRequests *metrics.CounterVec
	// shardSeconds observes every completed shard's wall time by workflow
	// family — the per-family latency histograms the Data Broker's advice
	// ultimately shapes.
	shardSeconds *metrics.HistogramVec
	// tenantRequests counts requests admitted past authentication and
	// rate limiting, by tenant.
	tenantRequests *metrics.CounterVec
	// tenantRejected counts admission rejections by tenant and reason
	// (rate_limited, quota_exceeded).
	tenantRejected *metrics.CounterVec
}

// newServerMetrics builds the metric set. Pull callbacks close over the
// server and read subsystem state at scrape time; they take s.mu and the
// subsystems' own locks, so never call a scrape while holding s.mu.
func newServerMetrics(s *Server) *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		httpRequests: reg.Counter("scan_http_requests_total",
			"HTTP requests served, by normalized route and status code.",
			"route", "code"),
		shardSeconds: reg.Histogram("scan_shard_seconds",
			"Completed shard wall time in seconds, by workflow family.",
			nil, "family"),
		tenantRequests: reg.Counter("scan_tenant_requests_total",
			"Requests admitted past authentication and rate limiting, by tenant.",
			"tenant"),
		tenantRejected: reg.Counter("scan_tenant_rejected_total",
			"Admission rejections, by tenant and reason.",
			"tenant", "reason"),
	}

	reg.GaugeFunc("scan_queue_depth",
		"Jobs accepted but not yet claimed by an executor.", nil,
		func() []metrics.Sample { return metrics.Value0(float64(len(s.queue))) })
	reg.CounterFunc("scan_jobs_total",
		"Jobs reaching each terminal state since the daemon started.",
		[]string{"state"}, func() []metrics.Sample {
			s.mu.Lock()
			done, failed, canceled := s.statDone, s.statFailed, s.statCanceled
			s.mu.Unlock()
			return []metrics.Sample{
				{Values: []string{string(StateDone)}, Value: float64(done)},
				{Values: []string{string(StateFailed)}, Value: float64(failed)},
				{Values: []string{string(StateCanceled)}, Value: float64(canceled)},
			}
		})

	kb := s.platform.KB()
	reg.CounterFunc("scan_advice_cache_hits_total",
		"Data Broker shard-advice calls answered from the materialized profile cache.", nil,
		func() []metrics.Sample {
			hits, _ := kb.CacheStats()
			return metrics.Value0(float64(hits))
		})
	reg.CounterFunc("scan_advice_cache_misses_total",
		"Data Broker shard-advice calls that found the profile cache stale and rebuilt it from SPARQL.", nil,
		func() []metrics.Sample {
			_, misses := kb.CacheStats()
			return metrics.Value0(float64(misses))
		})
	reg.CounterFunc("scan_kb_runs_total",
		"Run-log observations accepted by the knowledge base (folded plus buffered).", nil,
		func() []metrics.Sample {
			total, _ := kb.RunCounts()
			return metrics.Value0(float64(total))
		})

	store := s.platform.Datasets()
	reg.GaugeFunc("scan_registry_datasets",
		"Datasets resident in the registry.", nil,
		func() []metrics.Sample {
			n, _, _ := store.Stats()
			return metrics.Value0(float64(n))
		})
	reg.GaugeFunc("scan_registry_resident_bytes",
		"Decoded payload bytes accounted against the registry's resident budget.", nil,
		func() []metrics.Sample {
			_, b, _ := store.Stats()
			return metrics.Value0(float64(b))
		})
	reg.CounterFunc("scan_registry_evicted_total",
		"Datasets evicted from the registry to admit new uploads.", nil,
		func() []metrics.Sample {
			_, _, e := store.Stats()
			return metrics.Value0(float64(e))
		})

	reg.GaugeFunc("scan_fleet_workers",
		"Live registered fleet workers.", nil,
		func() []metrics.Sample { return metrics.Value0(float64(s.fleet.ReadyWorkers())) })
	reg.CounterFunc("scan_fleet_events_total",
		"Fleet coordinator lifecycle events, by kind.",
		[]string{"event"}, func() []metrics.Sample {
			fm := s.fleet.FleetMetrics()
			return []metrics.Sample{
				{Values: []string{"hired"}, Value: float64(fm.Hires)},
				{Values: []string{"released"}, Value: float64(fm.Releases)},
				{Values: []string{"dispatched"}, Value: float64(fm.Dispatched)},
				{Values: []string{"redispatched"}, Value: float64(fm.Redispatched)},
				{Values: []string{"completed"}, Value: float64(fm.Completed)},
			}
		})

	if s.tenants != nil {
		states := s.tenants.Tenants()
		reg.GaugeFunc("scan_tenant_active_jobs",
			"Concurrent job slots currently held, by tenant.",
			[]string{"tenant"}, func() []metrics.Sample {
				out := make([]metrics.Sample, 0, len(states))
				for _, st := range states {
					out = append(out, metrics.Sample{
						Values: []string{st.Name()}, Value: float64(st.ActiveJobs())})
				}
				return out
			})
		reg.GaugeFunc("scan_tenant_dataset_bytes",
			"Registry bytes held by each tenant's live datasets.",
			[]string{"tenant"}, func() []metrics.Sample {
				out := make([]metrics.Sample, 0, len(states))
				for _, st := range states {
					_, b := store.Owned(st.Name())
					out = append(out, metrics.Sample{
						Values: []string{st.Name()}, Value: float64(b)})
				}
				return out
			})
	}
	return m
}

// handleMetrics serves GET /metrics. The endpoint is read-only operational
// telemetry and stays unauthenticated like /healthz — scrapers run inside
// the deployment perimeter.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.Render(w)
}
