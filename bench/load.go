package main

// The load generator: closed-loop clients that submit a job, follow its SSE
// stream to the terminal state, check the result against the oracle and
// record the latency. SCAN's callers wait for their job, so a slow daemon
// receives less load — the loop is closed, with one client goroutine and
// one connection per client, at most nproc of them.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"scan/internal/rpc"
)

// target is one running scand the load generator drives, as a subprocess
// (end-to-end runs) or in-process behind httptest (traced runs).
type target struct {
	url    string
	client *rpc.Client
	stop   func()
	rec    *recorder  // nil unless this run records spans
	inproc *inProcess // nil for subprocess targets
}

// newClient returns an rpc client with its own connection pool, so one
// round's idle connections never serve the next round's daemon.
func newClient(url string, tenanted bool) *rpc.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	opts := []rpc.ClientOption{rpc.WithHTTPClient(&http.Client{Transport: tr, Timeout: rpc.DefaultTimeout})}
	if tenanted {
		opts = append(opts, rpc.WithAPIKey(benchTenantKey))
	}
	return rpc.NewClient(url, opts...)
}

// waitWorkers polls the fleet roster until n workers are ready.
func waitWorkers(ctx context.Context, c *rpc.Client, n int) error {
	if n == 0 {
		return nil
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		roster, err := c.Workers(ctx)
		ready := 0
		for _, w := range roster.Workers {
			if w.State != "gone" {
				ready++
			}
		}
		if err == nil && ready >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d fleet workers joined: %v", ready, n, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// op is one closed-loop operation: optionally upload a dataset, run one job
// and follow it to its terminal state, optionally delete the dataset.
type op struct {
	kind string // family label for per-family statistics
	req  rpc.SubmitJobRequest
	// key names the job's input: ops with equal keys must produce equal
	// results (the determinism half of the oracle).
	key  string
	want truth
	// units counts the job's kernel work (reads, spectra, pixels, node
	// pairs), for the traced run's per-unit kernel costs.
	units int64
	// upload, when set, is registered under uploadName before the job (which
	// then runs over it) and deleted afterwards; resumable picks the session
	// API over the one-shot POST.
	upload     *dataset
	uploadName string
	resumable  bool
}

// tally accumulates one run's observations across rounds and clients.
type tally struct {
	mu        sync.Mutex
	latencies []time.Duration            // submit → terminal, correct jobs
	byKind    map[string][]time.Duration // the same, per family
	attempted int
	failed    int
	failures  []string          // first few failure messages, for the report
	rates     []float64         // correct jobs per second, one entry per timed phase
	upBytes   int64             // payload bytes uploaded this round
	upTime    time.Duration     // time inside upload calls this round
	upRates   []float64         // MB/s inside upload calls, one entry per round
	digests   map[string]string // op key → digest of its first result
	runLogs   []int             // KB run logs at the end of each round
	refused   int               // ops refused at tenant admission
	overlaps  []float64         // per pipelined job, its stages' largest overlap with their upstream
}

func newTally() *tally {
	return &tally{byKind: map[string][]time.Duration{}, digests: map[string]string{}}
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if len(t.failures) < 8 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) uploaded(n int64, d time.Duration) {
	t.mu.Lock()
	t.upBytes += n
	t.upTime += d
	t.mu.Unlock()
}

// endRound closes the round's ingest account: bytes uploaded over the time
// spent inside upload calls, set-up and timed phase together.
func (t *tally) endRound() {
	if t.upTime > 0 {
		t.upRates = append(t.upRates, float64(t.upBytes)/1e6/t.upTime.Seconds())
	}
	t.upBytes, t.upTime = 0, 0
}

// upload registers a dataset and accounts the bytes and the time spent
// inside the upload call.
func (t *tally) upload(ctx context.Context, c *rpc.Client, name string, d *dataset, resumable bool) (rpc.DatasetInfo, error) {
	start := time.Now()
	var info rpc.DatasetInfo
	var err error
	if resumable {
		parts := make([]rpc.SeekablePart, len(d.parts))
		for i, p := range d.parts {
			parts[i] = rpc.SeekablePart{Field: p.field, R: bytes.NewReader(p.data)}
		}
		info, err = c.UploadDatasetResumable(ctx, name, d.family, parts...)
	} else {
		parts := make([]rpc.UploadPart, len(d.parts))
		for i, p := range d.parts {
			parts[i] = rpc.UploadPart{Field: p.field, R: bytes.NewReader(p.data)}
		}
		info, err = c.UploadDataset(ctx, name, d.family, parts...)
	}
	if err != nil {
		return info, fmt.Errorf("uploading %s (%s): %w", name, d.family, err)
	}
	t.uploaded(d.bytes(), time.Since(start))
	return info, nil
}

// runJob submits one job and follows it to its terminal state, returning
// the final resource and the submit → terminal-observed latency.
func runJob(ctx context.Context, tg *target, o op) (rpc.Job, time.Duration, error) {
	start := time.Now()
	job, err := tg.client.CreateJob(ctx, o.req)
	if err != nil {
		return rpc.Job{}, 0, err
	}
	submitted := time.Now()
	final, err := tg.client.Watch(ctx, job.ID, nil)
	end := time.Now()
	if err != nil {
		return rpc.Job{}, 0, fmt.Errorf("watching job %d: %w", job.ID, err)
	}
	tg.rec.job(o, final, start, submitted, end)
	return final, end.Sub(start), nil
}

// do runs one op and records its outcome.
func (t *tally) do(ctx context.Context, tg *target, o op) {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
	if o.upload != nil {
		info, err := t.upload(ctx, tg.client, o.uploadName, o.upload, o.resumable)
		if err != nil {
			t.fail("%v", err)
			return
		}
		o.req.Dataset = info.ID
	}
	final, lat, err := runJob(ctx, tg, o)
	if err == nil && o.upload != nil {
		_, err = tg.client.DeleteDataset(ctx, o.req.Dataset)
	}
	if err == nil {
		err = t.verify(o, final)
	}
	if err != nil {
		t.fail("%s: %v", o.kind, err)
		if refusedByAdmission(err) {
			t.mu.Lock()
			t.refused++
			t.mu.Unlock()
		}
		return
	}
	overlap, streamed := 0.0, false
	for _, st := range final.Result.Stages {
		streamed = streamed || st.Streamed
		overlap = max(overlap, st.Overlap)
	}
	t.mu.Lock()
	t.latencies = append(t.latencies, lat)
	t.byKind[o.kind] = append(t.byKind[o.kind], lat)
	if streamed {
		t.overlaps = append(t.overlaps, overlap)
	}
	t.mu.Unlock()
}

// drive runs ops from the given number of closed-loop clients while more()
// holds; an op in flight when it stops holding completes and counts. from
// numbers the ops across calls, so the mix continues where it left off.
func (t *tally) drive(ctx context.Context, tg *target, clients int, next func(i int) op, from *atomic.Int64, more func() bool) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && more() {
				t.do(ctx, tg, next(int(from.Add(1)-1)))
			}
		}()
	}
	wg.Wait()
}

// phase is the timed part of a round: drive for the window and record the
// rate of correct jobs over the wall time it took.
func (t *tally) phase(ctx context.Context, tg *target, clients int, window time.Duration, next func(i int) op, from *atomic.Int64) {
	before := len(t.latencies)
	start := time.Now()
	deadline := start.Add(window)
	t.drive(ctx, tg, clients, next, from, func() bool { return time.Now().Before(deadline) })
	t.rates = append(t.rates, float64(len(t.latencies)-before)/time.Since(start).Seconds())
}

// batch drives exactly count ops (set-up's ageing and warm-up).
func (t *tally) batch(ctx context.Context, tg *target, clients, count int, next func(i int) op, from *atomic.Int64) {
	var left atomic.Int64
	left.Store(int64(count))
	t.drive(ctx, tg, clients, next, from, func() bool { return left.Add(-1) >= 0 })
}
