package main

// The traced run. `--trace 1` replays a workload in-process — a
// core.Platform with decorated executors, behind rpc.NewServerOptions and
// httptest — once with the recorder off and once with it on, so the
// difference between the two is the tracing overhead. Spans come from the
// benchmark's own files only: the load generator (submit, SSE), the Job
// resource's timestamps (queue, run), a timing wrapper around
// Server.Handler(), and the executor decorators (stream set-up, split,
// transform, gather, execute). After the timed phase the layers with no
// call of their own on a job's path (tenant, registry, blobstore, knowledge,
// fleet encoding) are probed by direct calls on the workload's own
// platform and payloads.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scan/internal/core"
	"scan/internal/fleet"
	"scan/internal/rpc"
	"scan/internal/scheduler"
	"scan/internal/tenant"
	"scan/internal/workflow"
)

// inProcess is what a traced target exposes beyond its URL: the platform
// and coordinator the probes call into, and the outside-in counters.
type inProcess struct {
	platform *core.Platform
	coord    *fleet.Coordinator
	mu       sync.Mutex
	submits  []time.Duration // server-side handler time of POST /api/v2/jobs
	wire     atomic.Int64    // bytes the in-process fleet workers moved over HTTP
}

// timed wraps the server's handler to time job submissions from outside.
// The ResponseWriter passes through untouched, so SSE flushing still works.
func (p *inProcess) timed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/api/v2/jobs" {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(start)
		p.mu.Lock()
		p.submits = append(p.submits, d)
		p.mu.Unlock()
	})
}

// countingTransport counts request and response body bytes of a fleet
// worker's HTTP traffic.
type countingTransport struct {
	n    *atomic.Int64
	next http.RoundTripper
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (t countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		r.Body = countingBody{r.Body, t.n}
	}
	resp, err := t.next.RoundTrip(r)
	if err == nil {
		resp.Body = countingBody{resp.Body, t.n}
	}
	return resp, err
}

// launchInProcess returns a launcher that assembles scand's serve role in
// this process the way cmd/scand does, with rec's decorators installed
// when rec is non-nil.
func (e *env) launchInProcess(rec *recorder) launcher {
	return func(ctx context.Context, spec daemonSpec) (*target, error) {
		nproc := runtime.NumCPU()
		opts := core.Options{Workers: nproc}
		if rec != nil {
			rec.mu.Lock()
			rec.lifetime++ // job ids restart with every daemon
			rec.mu.Unlock()
			execs, err := tracedExecutors(rec, false)
			if err != nil {
				return nil, err
			}
			opts.Executors = execs
		}
		var dataDir string
		if spec.durable {
			dir, err := os.MkdirTemp(e.out, "data-trace-")
			if err != nil {
				return nil, err
			}
			dataDir, opts.DataDir = dir, dir
		}
		platform, err := core.OpenPlatform(opts)
		if err != nil {
			return nil, err
		}
		var tenants *tenant.Registry
		if spec.tenants {
			if tenants, err = tenant.Parse([]byte(benchTenants)); err != nil {
				return nil, err
			}
		}
		in := &inProcess{platform: platform}
		in.coord = fleet.NewCoordinator(fleet.Options{
			Scaling: scheduler.AlwaysScale, Allocation: scheduler.LongTermAdaptive,
			Baseline: 1, Blobs: platform.Datasets().Blobs(),
		})
		server := rpc.NewServerOptions(platform, rpc.ServerOptions{Executors: 2, Tenants: tenants, Fleet: in.coord})
		ts := httptest.NewServer(in.timed(server.Handler()))

		wctx, stopWorkers := context.WithCancel(context.Background())
		var workers sync.WaitGroup
		for w := 0; w < spec.workers; w++ {
			wopts := fleet.WorkerOptions{
				Coordinator: ts.URL, Name: fmt.Sprintf("w%d", w), Slots: 1,
				HTTPClient: &http.Client{Transport: countingTransport{&in.wire, http.DefaultTransport}},
			}
			if rec != nil {
				execs, err := tracedExecutors(rec, true)
				if err != nil {
					stopWorkers()
					return nil, err
				}
				wopts.Engine = workflow.NewEngine(workflow.EngineOptions{Workers: 1, Executors: execs})
			}
			workers.Add(1)
			go func() {
				defer workers.Done()
				_ = fleet.NewWorker(wopts).Run(wctx) // returns the context's error at stop
			}()
		}
		tg := &target{url: ts.URL, client: newClient(ts.URL, spec.tenants), rec: rec, inproc: in}
		tg.stop = func() {
			stopWorkers()
			workers.Wait()
			ts.Close()
			server.Close()
			platform.Close()
			if dataDir != "" {
				os.RemoveAll(dataDir)
			}
		}
		if err := waitWorkers(ctx, tg.client, spec.workers); err != nil {
			tg.stop()
			return nil, err
		}
		return tg, nil
	}
}

// traceStride separates the job ids of successive daemon lifetimes in a
// trace id: trace = lifetime × traceStride + job id.
const traceStride = 1000000

// job ties a finished job to its engine run and files the job-level spans:
// the root (client submit → terminal seen), the submit round trip, the
// queue wait and run time from the Job resource's own stamps, the engine
// run (first to last decorated call) and the SSE lag.
func (r *recorder) job(o op, final rpc.Job, start, submitted, end time.Time) {
	if r == nil || final.Started == nil || final.Finished == nil {
		return
	}
	started, finished := final.Started.UnixNano(), final.Finished.UnixNano()
	last := ""
	if final.Result != nil && len(final.Result.Stages) > 0 {
		last = final.Result.Stages[len(final.Result.Stages)-1].Name
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	trace := r.lifetime*traceStride + final.ID
	mk := func(name, layer string, parent int64, lo, hi int64) *span {
		return &span{ID: r.nextID.Add(1), Parent: parent, Trace: trace, Name: name, Layer: layer, Start: lo, End: hi}
	}
	root := mk("job", "unattributed", 0, start.UnixNano(), end.UnixNano())
	run := mk("rpc.run", "rpc", root.ID, started, finished)
	spans := []*span{root,
		mk("rpc.submit", "rpc", root.ID, start.UnixNano(), submitted.UnixNano()),
		mk("rpc.queue", "rpc", root.ID, final.Submitted.UnixNano(), started),
		run,
		mk("rpc.sse", "rpc", root.ID, finished, end.UnixNano()),
	}
	r.units[trace] = o.units
	// The job's engine run is the open chain that lies inside the run
	// window, has reached the workflow's last stage, and ended closest to
	// the job's finish. Server stamps and span stamps share one clock; the
	// slack absorbs the stamps being taken a few instructions apart.
	const slack = int64(200 * time.Microsecond)
	best, bestAt := -1, int64(0)
	for i, c := range r.open {
		lo, hi := c.bounds()
		if len(c.spans) == 0 || lo < started-slack || hi > finished+slack || !c.reached(last) {
			continue
		}
		if best < 0 || hi > bestAt {
			best, bestAt = i, hi
		}
	}
	if best < 0 {
		r.missed++
		r.spans = append(r.spans, spans...)
		return
	}
	c := r.open[best]
	r.open = append(r.open[:best], r.open[best+1:]...)
	for ds, owner := range r.chains {
		if owner == c {
			delete(r.chains, ds)
		}
	}
	lo, hi := c.bounds()
	engine := mk("engine", "workflow", run.ID, lo, hi)
	spans = append(spans, engine)
	for _, s := range c.spans {
		s.Parent, s.Trace, s.chain = engine.ID, trace, nil
	}
	spans = append(spans, c.spans...)
	// Fleet-worker spans inside the run window belong to this job (fleet
	// workloads run one job at a time); each hangs under the coordinator's
	// Execute of the same stage, which thereby becomes a fleet span: its
	// self time is what dispatch added around the remote transforms.
	rest := r.loose[:0]
	for _, s := range r.loose {
		var parent *span
		for _, p := range c.spans {
			if p.Name == "execute:"+stageOf(s.Name) && s.Start >= p.Start && s.End <= p.End {
				parent = p
			}
		}
		if parent == nil {
			if s.End > started { // may belong to a job still running
				rest = append(rest, s)
			}
			continue
		}
		parent.Layer = "fleet"
		s.Parent, s.Trace = parent.ID, trace
		spans = append(spans, s)
	}
	r.loose = rest
	r.spans = append(r.spans, spans...)
}

// stageOf strips a span name's call prefix ("transform:BWA" → "BWA").
func stageOf(name string) string {
	_, stage, _ := strings.Cut(name, ":")
	return stage
}

// reached reports whether the chain has completed the named stage.
func (c *chain) reached(stage string) bool {
	for _, s := range c.spans {
		if s.Name == "execute:"+stage || s.Name == "gather:"+stage {
			return true
		}
	}
	return false
}

// runTraced measures one workload's per-layer metrics.
func (e *env) runTraced(ctx context.Context, w *workload, seed int64, seconds float64, sz sizes) (*runResult, error) {
	// Both phases keep the end-to-end run's window per daemon lifetime, so
	// the knowledge base grows as it does there; a third of the rounds run
	// with the recorder off — the baseline the traced rounds are held to.
	plainW, tracedW := *w, *w
	plainW.rounds = max(1, w.rounds/3)
	tracedW.rounds = max(1, w.rounds-plainW.rounds)
	share := func(part *workload) float64 { return seconds * float64(part.rounds) / float64(w.rounds) }
	plain, _, err := runRounds(ctx, &plainW, seed, share(&plainW), sz, e.launchInProcess(nil), nil)
	if err != nil {
		return nil, fmt.Errorf("untraced phase: %w", err)
	}

	rec := newRecorder()
	m := newLayerMetrics()
	round := 0
	probe := func(tg *target, in *inputs, t *tally) {
		if round++; round == tracedW.rounds { // the last daemon stands for the workload
			e.probeLayers(m, w, tg, in, t)
		}
	}
	t, setups, err := runRounds(ctx, &tracedW, seed, share(&tracedW), sz, e.launchInProcess(rec), probe)
	if err != nil {
		return nil, fmt.Errorf("traced phase: %w", err)
	}
	rec.summarize(m, t)
	m.set("trace.overhead", t.typicalLatency()/plain.typicalLatency())
	for kind, d := range t.byKind {
		if kind != "dataset" {
			m.set("family."+kind+"_p50_ms", median(millis(d)))
		}
	}

	if w.daemon.workers > 0 {
		// The same jobs with no worker joined: what the fleet costs per job.
		local := plainW
		local.daemon.workers = 0
		lt, _, err := runRounds(ctx, &local, seed, share(&local), sz, e.launchInProcess(nil), nil)
		if err != nil {
			return nil, fmt.Errorf("local phase: %w", err)
		}
		m.set("fleet.overhead_ratio", plain.typicalLatency()/lt.typicalLatency())
	}
	if err := rec.write(filepath.Join(e.out, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	return report(w, seed, seconds, true, t, setups, m.values), nil
}

// traceFile is bench/out/trace-<workload>.json.
type traceFile struct {
	Spans  []*span `json:"spans"`
	Missed int     `json:"jobs_without_engine_run"`
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	raw, err := json.Marshal(traceFile{Spans: r.spans, Missed: r.missed})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// layerMetrics is the per-layer result: every declared name is present
// from the start, at 0 — a layer the workload does not exercise did no
// work, spent no time and moved no bytes.
type layerMetrics struct {
	values map[string]metric
}

func newLayerMetrics() *layerMetrics {
	m := &layerMetrics{values: map[string]metric{}}
	for _, d := range perLayer {
		m.values[d.name] = metric{0, d.unit}
	}
	return m
}

func (m *layerMetrics) set(name string, v float64) {
	cur, ok := m.values[name]
	if !ok {
		panic("bench: undeclared per-layer metric " + name) // a typo in this package
	}
	cur.Value = v
	m.values[name] = cur
}

// layerDecl declares one per-layer metric; BENCHMARK.json lists the same
// names and units (a test holds the two together).
type layerDecl struct{ name, unit, better string }

var perLayer = []layerDecl{
	// Shares of the summed self time of all traced jobs, by layer.
	{"rpc.self_share", "ratio", "lower"},
	{"knowledge.self_share", "ratio", "lower"},
	{"workflow.self_share", "ratio", "lower"},
	{"kernel.self_share", "ratio", "higher"},
	{"fleet.self_share", "ratio", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"trace.overhead", "ratio", "lower"},
	{"trace.jobs", "count", "higher"},
	{"trace.unmatched", "count", "lower"},
	// rpc: admission, decode, job store, queue, SSE.
	{"rpc.submit_ms", "ms", "lower"},
	{"rpc.queue_wait_ms", "ms", "lower"},
	{"rpc.materialize_ms", "ms", "lower"},
	{"rpc.sse_lag_ms", "ms", "lower"},
	{"rpc.job_p99_ms", "ms", "lower"},
	{"tenant.admit_us", "us", "lower"},
	{"tenant.rejected", "count", "lower"},
	// knowledge: the Data Broker.
	{"knowledge.rank_ms", "ms", "lower"},
	{"knowledge.refit_ms", "ms", "lower"},
	{"knowledge.advice_us", "us", "lower"},
	{"knowledge.fold_us_per_log", "us", "lower"},
	{"knowledge.wal_flush_ms", "ms", "lower"},
	{"knowledge.run_logs", "count", "lower"},
	{"knowledge.triples", "count", "lower"},
	{"knowledge.advice_hit_ratio", "ratio", "higher"},
	// workflow: the engine.
	{"workflow.split_ms", "ms", "lower"},
	{"workflow.transform_sum_ms", "ms", "lower"},
	{"workflow.transform_critical_ms", "ms", "lower"},
	{"workflow.gather_ms", "ms", "lower"},
	{"workflow.sched_ms", "ms", "lower"},
	{"workflow.shards", "count", "higher"},
	{"workflow.pool_occupancy", "ratio", "higher"},
	{"workflow.overlap", "ratio", "higher"},
	{"workflow.barrier_ratio", "ratio", "higher"},
	{"workflow.w1_ratio", "ratio", "higher"},
	// Family kernels.
	{"align.ns_per_read", "ns", "lower"},
	{"variant.ns_per_record", "ns", "lower"},
	{"proteome.ns_per_spectrum", "ns", "lower"},
	{"imaging.ns_per_pixel", "ns", "lower"},
	{"network.ns_per_pair", "ns", "lower"},
	{"family.genomic_p50_ms", "ms", "lower"},
	{"family.proteomic_p50_ms", "ms", "lower"},
	{"family.imaging_p50_ms", "ms", "lower"},
	{"family.integrative_p50_ms", "ms", "lower"},
	// Data plane.
	{"registry.decode_mb_per_s", "MB/s", "higher"},
	{"registry.put_ms", "ms", "lower"},
	{"registry.pin_us", "us", "lower"},
	{"blobstore.write_mb_per_s", "MB/s", "higher"},
	{"blobstore.get_us", "us", "lower"},
	// fleet.
	{"fleet.encode_ms", "ms", "lower"},
	{"fleet.context_bytes", "count", "lower"},
	{"fleet.wire_bytes", "count", "lower"},
	{"fleet.dispatch_ms", "ms", "lower"},
	{"fleet.dispatched", "count", "lower"},
	{"fleet.completed", "count", "higher"},
	{"fleet.redispatched", "count", "lower"},
	{"fleet.overhead_ratio", "ratio", "lower"},
}

// kernelLayers are the layers whose self time is family compute.
var kernelLayers = map[string]bool{"align": true, "variant": true, "proteome": true, "imaging": true, "network": true}

// kernelUnit names each kernel's per-unit metric; the unit count of a job
// comes from the op (the benchmark knows its inputs).
var kernelUnit = map[string]string{
	"align": "align.ns_per_read", "variant": "variant.ns_per_record", "proteome": "proteome.ns_per_spectrum",
	"imaging": "imaging.ns_per_pixel", "network": "network.ns_per_pair",
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// summarize turns the recorded spans into the span-derived metrics.
func (r *recorder) summarize(m *layerMetrics, t *tally) {
	r.mu.Lock()
	defer r.mu.Unlock()
	byTrace := map[int][]*span{}
	for _, s := range r.spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	var (
		layerSelf                     = map[string]int64{}
		latency, rootSelf             int64
		queue, materialize, sse, rank []float64
		split, tsum, tcrit, gather    []float64
		sched, shards, occupancy      []float64
		dispatch                      []float64
		kernelNs, kernelUnits         = map[string]int64{}, map[string]int64{}
		workers                       = int64(runtime.NumCPU())
	)
	for id, spans := range byTrace {
		self := selfTimes(spans)
		var run, engine, schedNs, splitNs, gatherNs, rankNs, dispatchNs int64
		var transforms []interval
		var busy int64
		heads := 0
		seenKernel := map[string]bool{}
		for _, s := range spans {
			layerSelf[s.Layer] += self[s.ID]
			call, _, _ := strings.Cut(s.Name, ":")
			switch {
			case s.Name == "job":
				latency += s.dur()
				rootSelf += self[s.ID]
			case s.Name == "rpc.queue":
				queue = append(queue, ms(s.dur()))
			case s.Name == "rpc.sse":
				sse = append(sse, ms(s.dur()))
			case s.Name == "rpc.run":
				run = s.dur()
			case s.Name == "engine":
				engine, schedNs = s.dur(), self[s.ID]
			case s.Name == "rank":
				rankNs += s.dur()
			case call == "split":
				splitNs += s.dur()
				heads++
			case call == "gather":
				gatherNs += s.dur()
			case call == "transform":
				transforms = append(transforms, interval{s.Start, s.End})
				busy += s.dur()
			}
			if s.Layer == "fleet" {
				dispatchNs += self[s.ID]
			}
			if kernelLayers[s.Layer] {
				kernelNs[s.Layer] += self[s.ID]
				seenKernel[s.Layer] = true
			}
		}
		for layer := range seenKernel {
			kernelUnits[layer] += r.units[id]
		}
		if engine > 0 {
			materialize = append(materialize, ms(run-engine))
		}
		if heads > 0 { // a pipelined run: the engine split, ranked, scheduled and gathered
			rank = append(rank, ms(rankNs))
			split = append(split, ms(splitNs))
			gather = append(gather, ms(gatherNs))
			sched = append(sched, ms(schedNs))
		}
		if len(transforms) > 0 {
			lo, hi := transforms[0].lo, transforms[0].hi
			for _, iv := range transforms {
				lo, hi = min(lo, iv.lo), max(hi, iv.hi)
			}
			crit := covered(lo, hi, transforms)
			tsum = append(tsum, ms(busy))
			tcrit = append(tcrit, ms(crit))
			shards = append(shards, float64(len(transforms)))
			occupancy = append(occupancy, float64(busy)/float64(workers*crit))
		}
		if dispatchNs > 0 {
			dispatch = append(dispatch, ms(dispatchNs))
		}
	}
	var total int64
	for layer, ns := range layerSelf {
		if layer != "unattributed" {
			total += ns
		}
	}
	if total > 0 {
		var kernel int64
		for layer := range kernelLayers {
			kernel += layerSelf[layer]
		}
		m.set("rpc.self_share", float64(layerSelf["rpc"])/float64(total))
		m.set("knowledge.self_share", float64(layerSelf["knowledge"])/float64(total))
		m.set("workflow.self_share", float64(layerSelf["workflow"])/float64(total))
		m.set("fleet.self_share", float64(layerSelf["fleet"])/float64(total))
		m.set("kernel.self_share", float64(kernel)/float64(total))
	}
	if latency > 0 {
		m.set("trace.coverage", 1-float64(rootSelf)/float64(latency))
	}
	m.set("trace.jobs", float64(len(byTrace)))
	m.set("trace.unmatched", float64(r.missed))
	m.set("rpc.queue_wait_ms", median(queue))
	m.set("rpc.materialize_ms", median(materialize))
	m.set("rpc.sse_lag_ms", median(sse))
	if lat := millis(t.latencies); len(lat) >= 1000 {
		m.set("rpc.job_p99_ms", percentile(lat, 0.99))
	}
	m.set("knowledge.rank_ms", median(rank))
	m.set("workflow.split_ms", median(split))
	m.set("workflow.transform_sum_ms", median(tsum))
	m.set("workflow.transform_critical_ms", median(tcrit))
	m.set("workflow.gather_ms", median(gather))
	m.set("workflow.sched_ms", median(sched))
	m.set("workflow.shards", median(shards))
	m.set("workflow.pool_occupancy", median(occupancy))
	m.set("fleet.dispatch_ms", median(dispatch))
	for layer, name := range kernelUnit {
		if kernelUnits[layer] > 0 {
			m.set(name, float64(kernelNs[layer])/float64(kernelUnits[layer]))
		}
	}
	m.set("workflow.overlap", median(t.overlaps))
}
