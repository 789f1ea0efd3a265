package fleet

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"scan/internal/blobstore"
	"scan/internal/memo"
	"scan/internal/route"
	"scan/internal/scheduler"
	"scan/internal/workflow"
)

// The fleet's timing and retry constants.
const (
	// shardTimeout bounds one dispatch; past it the shard re-queues.
	shardTimeout = 60 * time.Second
	// maxAttempts bounds dispatches per shard, counting retries and
	// straggler duplicates.
	maxAttempts = 5
	// stragglerAfter is the minimum age before a running dispatch is raced
	// by a duplicate; stragglerFactor scales the stage's median completion
	// time into the effective threshold.
	stragglerAfter  = 2 * time.Second
	stragglerFactor = 3
	// workerExpiry is the heartbeat horizon: a worker silent for longer is
	// lost and its dispatches re-queue.
	workerExpiry = 10 * time.Second
	// pollWait is how long an empty poll is held before it returns no
	// task. It is well under workerExpiry, so a parked poll never outlives
	// its worker's heartbeat.
	pollWait = time.Second
	// sweepEvery is the active-stage bookkeeping cadence: timeouts, lost
	// workers, stragglers.
	sweepEvery = 25 * time.Millisecond
)

// Options configures a Coordinator. The zero value works.
type Options struct {
	// Token, when non-empty, is required as `Authorization: Bearer <Token>`
	// on the fleet control endpoints and the blob data plane.
	Token string
	// Scaling selects the Table I horizontal-scaling algorithm that
	// gates worker engagement (default AlwaysScale).
	Scaling scheduler.ScalingPolicy
	// Allocation selects the Table I resource-allocation policy, mapped
	// onto idle-release horizons (scheduler.FleetAdvisor.IdleRelease).
	Allocation scheduler.AllocationPolicy
	// Baseline is the FleetAdvisor's private-tier size (zero: its default).
	Baseline int
	// Blobs is the durable content-addressed store the dataset registry
	// keeps raw upload parts in. When set, blob GETs that miss the pinned
	// context parts fall back to it and serve a stored part's raw upload
	// bytes by hash. No worker fetches these: a task names only encoded
	// context parts. Nil keeps the data plane memory-only.
	Blobs *blobstore.Store
	// Logf receives coordinator events (default: silent).
	Logf func(format string, args ...any)
	// Now is the clock every fleet decision reads: heartbeat expiry,
	// dispatch timeouts, straggler races and idle release (default
	// time.Now). Parking a poll and the sweep cadence stay on the wall
	// clock, so a test that steps Now decides when each path fires.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Coordinator owns the fleet's server half: the worker roster, the
// dispatch queue, the content-addressed blob store, and the engagement
// decisions. It implements workflow.ShardPool, so a run whose
// RunOptions.ShardPool points here executes its streaming stages on the
// fleet. All state is in-memory and mutex-guarded; the coordinator spawns
// no goroutines of its own (sweeps ride the RunShards callers' tickers,
// long-polls ride their requests).
type Coordinator struct {
	opts    Options
	advisor scheduler.FleetAdvisor

	mu      sync.Mutex
	wake    chan struct{} // closed + replaced whenever work arrives
	seq     int
	taskSeq int
	workers map[string]*workerState
	order   []string         // registration order, for stable rosters
	queue   []*task          // shards still waiting for a worker
	tasks   map[string]*task // dispatched and still routable
	stages  map[*stageRun]struct{}
	blobs   map[string]*blob // context parts, live while a stage pins them
	metrics Metrics
	// hashes remembers the content hash of the context parts the
	// coordinator encoded, under each part's key
	// (workflow.ContextPart.Key). A key holds the part's storage, so no
	// other slice can take its identity while it is remembered.
	hashes memo.Memo[any, string]
	// lastDrain and gapSec observe the spacing of work bursts for the
	// LongTermAdaptive idle-release horizon.
	lastDrain time.Time
	gapSec    float64
}

// NewCoordinator builds a coordinator.
func NewCoordinator(opts Options) *Coordinator {
	opts = opts.withDefaults()
	return &Coordinator{
		opts:    opts,
		advisor: scheduler.FleetAdvisor{Policy: opts.Scaling, Baseline: opts.Baseline},
		wake:    make(chan struct{}),
		workers: make(map[string]*workerState),
		tasks:   make(map[string]*task),
		stages:  make(map[*stageRun]struct{}),
		blobs:   make(map[string]*blob),
		hashes:  memo.Memo[any, string]{Max: partMemoMax},
	}
}

// blob is a context part that live stages pin: refs counts them, and
// bytes returns the part's encoding, made at most once — when the stage
// hashed it, or else when a worker first fetches it.
type blob struct {
	refs  int
	bytes func() ([]byte, error)
}

var _ workflow.ShardPool = (*Coordinator)(nil)

type workerState struct {
	id, name, addr string
	slots          int
	engaged        bool
	lastSeen       time.Time
	lastWork       time.Time
	inflight       map[string]*task
	done           int
}

type stageRun struct {
	spec        Task // template: workflow, stage, type, context parts, options
	estSec      float64
	n           int
	done        []bool
	outs        []workflow.StreamShard
	elaps       []time.Duration
	attempts    []int
	outstanding []int // queued + dispatched, per shard
	remaining   int
	closed      bool
	err         error
	lastErr     error
	finished    chan struct{}
	completions []float64 // accepted shard durations, seconds
}

type task struct {
	id         string
	sr         *stageRun
	shard      int
	worker     *workerState
	dispatched time.Time
	deadline   time.Time
	// superseded dispatches timed out or lost their worker; a late result
	// still routes (first result wins) but the shard has re-queued.
	superseded bool
}

// RunShards implements workflow.ShardPool: publish the stage's input on
// the data plane as content-addressed parts, enqueue one task per shard,
// and wait for first-wins results while sweeping timeouts, lost workers
// and stragglers. A fleet with no live workers answers ErrNoWorkers, so
// the engine runs the stage locally.
func (c *Coordinator) RunShards(ctx context.Context, env *workflow.StageEnv, shards []workflow.StreamShard) ([]workflow.StreamShard, []time.Duration, error) {
	if len(shards) == 0 {
		return []workflow.StreamShard{}, []time.Duration{}, ctx.Err()
	}
	if c.ReadyWorkers() == 0 {
		return nil, nil, workflow.ErrNoWorkers
	}
	in := env.Input()
	parts := workflow.ContextParts(in)
	hashes, encs, err := c.hashParts(parts)
	if err != nil {
		return nil, nil, err
	}
	n := len(shards)
	sr := &stageRun{
		spec: Task{
			Workflow:     env.Workflow(),
			Stage:        env.StageIndex(),
			Shards:       len(shards),
			Type:         in.Type,
			ContextParts: hashes,
			Options:      PinOptions(env.RemoteOptions()),
		},
		n:           n,
		done:        make([]bool, n),
		outs:        make([]workflow.StreamShard, n),
		elaps:       make([]time.Duration, n),
		attempts:    make([]int, n),
		outstanding: make([]int, n),
		remaining:   n,
		finished:    make(chan struct{}),
	}
	total := 0
	for _, s := range shards {
		total += s.Records
	}
	sr.estSec = env.EstimateShardCost(total/n, 1.0)

	c.mu.Lock()
	for i, p := range parts {
		if encs[i] != nil {
			c.metrics.PartsEncoded++
		} else {
			c.metrics.PartsRecalled++
		}
		c.pinLocked(hashes[i], p.Data, encs[i])
	}
	c.stages[sr] = struct{}{}
	c.metrics.RemoteStages++
	now := c.opts.Now()
	if len(c.queue) == 0 && len(c.tasks) == 0 && !c.lastDrain.IsZero() {
		gap := now.Sub(c.lastDrain).Seconds()
		if c.gapSec == 0 {
			c.gapSec = gap
		} else {
			c.gapSec = 0.3*gap + 0.7*c.gapSec
		}
	}
	for i := 0; i < n; i++ {
		c.enqueueLocked(&task{sr: sr, shard: i}, false)
	}
	c.mu.Unlock()
	c.opts.Logf("fleet: stage %s[%d]: dispatching %d shards over %d context parts (est %.3fs/shard)",
		sr.spec.Workflow, sr.spec.Stage, n, len(hashes), sr.estSec)

	sweep := time.NewTicker(sweepEvery)
	defer sweep.Stop()
wait:
	for {
		select {
		case <-ctx.Done():
			c.mu.Lock()
			c.failStageLocked(sr, ctx.Err())
			c.cleanupStageLocked(sr)
			c.mu.Unlock()
			return nil, nil, ctx.Err()
		case <-sr.finished:
			break wait
		case <-sweep.C:
			c.mu.Lock()
			c.sweepLocked(c.opts.Now())
			c.mu.Unlock()
		}
	}
	c.mu.Lock()
	err = sr.err
	c.cleanupStageLocked(sr)
	c.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	return sr.outs, sr.elaps, nil
}

// hashParts returns each part's content hash, and the encoding of each
// part it had to encode to hash it. A part whose key the memo holds is
// neither encoded nor hashed; its encoding is nil.
func (c *Coordinator) hashParts(parts []workflow.ContextPart) ([]string, [][]byte, error) {
	hashes, encs := make([]string, len(parts)), make([][]byte, len(parts))
	for i, p := range parts {
		var err error
		hashes[i], err = c.hashes.Get(p.Key, func() (string, error) {
			enc, err := workflow.EncodeDataset(p.Data)
			if err != nil {
				return "", err
			}
			sum := sha256.Sum256(enc)
			encs[i] = enc
			return hex.EncodeToString(sum[:]), nil
		})()
		if err != nil {
			return nil, nil, err
		}
	}
	return hashes, encs, nil
}

// pinLocked pins a part for one more live stage. A part no stage pins yet
// keeps enc, its encoding, when the stage had to make it, and is otherwise
// encoded only if a worker fetches it.
func (c *Coordinator) pinLocked(hash string, part *workflow.Dataset, enc []byte) {
	b := c.blobs[hash]
	if b == nil {
		b = &blob{bytes: func() ([]byte, error) { return enc, nil }}
		if enc == nil {
			b.bytes = sync.OnceValues(func() ([]byte, error) {
				c.mu.Lock()
				c.metrics.PartsEncoded++
				c.mu.Unlock()
				return workflow.EncodeDataset(part)
			})
		}
		c.blobs[hash] = b
	}
	b.refs++
}

// ReadyWorkers reports live registered workers.
func (c *Coordinator) ReadyWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aliveLocked(c.opts.Now())
}

// FleetMetrics snapshots the coordinator's counters.
func (c *Coordinator) FleetMetrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.metrics
}

func (c *Coordinator) aliveLocked(now time.Time) int {
	n := 0
	for _, ws := range c.workers {
		if now.Sub(ws.lastSeen) <= workerExpiry {
			n++
		}
	}
	return n
}

func (c *Coordinator) engagedLocked(now time.Time) int {
	n := 0
	for _, ws := range c.workers {
		if ws.engaged && now.Sub(ws.lastSeen) <= workerExpiry {
			n++
		}
	}
	return n
}

func (c *Coordinator) desiredLocked(now time.Time) int {
	est := 1.0
	if len(c.queue) > 0 {
		est = c.queue[0].sr.estSec
	}
	return c.advisor.DesiredWorkers(len(c.queue), c.engagedLocked(now), c.aliveLocked(now), est)
}

func (c *Coordinator) notifyLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

func (c *Coordinator) enqueueLocked(t *task, redispatch bool) {
	sr := t.sr
	if sr.closed || sr.done[t.shard] {
		return
	}
	if sr.attempts[t.shard] >= maxAttempts {
		if sr.outstanding[t.shard] == 0 {
			err := sr.lastErr
			if err == nil {
				err = errors.New("fleet: dispatch attempts exhausted")
			}
			c.failStageLocked(sr, fmt.Errorf("fleet: shard %d failed after %d dispatches: %w",
				t.shard, sr.attempts[t.shard], err))
		}
		return
	}
	sr.outstanding[t.shard]++
	c.queue = append(c.queue, t)
	if redispatch {
		c.metrics.Redispatched++
	}
	c.notifyLocked()
}

// grantLocked hands the polling worker a task if policy allows: engaged
// workers (or workers the ScalingPolicy says to engage now) take the queue
// head; everyone else waits.
func (c *Coordinator) grantLocked(ws *workerState, now time.Time) *Task {
	if len(c.queue) == 0 {
		c.maybeReleaseLocked(ws, now)
		return nil
	}
	if !ws.engaged {
		if c.engagedLocked(now) >= c.desiredLocked(now) {
			return nil
		}
		ws.engaged = true
		c.metrics.Hires++
		c.opts.Logf("fleet: engaged worker %s (%s): queue %d", ws.id, ws.name, len(c.queue))
	}
	if len(ws.inflight) >= ws.slots {
		return nil
	}
	t := c.queue[0]
	c.queue = c.queue[1:]
	c.taskSeq++
	t.id = fmt.Sprintf("t%d", c.taskSeq)
	t.worker = ws
	t.dispatched = now
	t.deadline = now.Add(shardTimeout)
	t.sr.attempts[t.shard]++
	ws.inflight[t.id] = t
	ws.lastWork = now
	c.tasks[t.id] = t
	c.metrics.Dispatched++
	wire := t.sr.spec
	wire.ID = t.id
	wire.Shard = t.shard
	wire.Attempt = t.sr.attempts[t.shard]
	return &wire
}

func (c *Coordinator) maybeReleaseLocked(ws *workerState, now time.Time) {
	if !ws.engaged || len(ws.inflight) > 0 {
		return
	}
	hold := c.advisor.IdleRelease(c.opts.Allocation, c.gapSec)
	if ws.lastWork.IsZero() || now.Sub(ws.lastWork) >= hold {
		ws.engaged = false
		c.metrics.Releases++
		c.opts.Logf("fleet: released worker %s (%s) after %s idle", ws.id, ws.name, hold)
	}
}

// sweepLocked is the periodic bookkeeping pass: expire silent workers and
// re-queue their dispatches, time out overdue dispatches, race stragglers
// with duplicates, and fail active stages with ErrNoWorkers when the whole
// fleet is gone (the engine then falls back to its local pool).
func (c *Coordinator) sweepLocked(now time.Time) {
	for _, ws := range c.workers {
		if now.Sub(ws.lastSeen) <= workerExpiry {
			continue
		}
		if len(ws.inflight) > 0 {
			c.opts.Logf("fleet: worker %s (%s) lost with %d shards in flight; re-queueing",
				ws.id, ws.name, len(ws.inflight))
		}
		for id, t := range ws.inflight {
			delete(ws.inflight, id)
			t.superseded = true
			t.sr.outstanding[t.shard]--
			if t.sr.lastErr == nil {
				t.sr.lastErr = fmt.Errorf("fleet: worker %s lost mid-shard", ws.id)
			}
			c.enqueueLocked(&task{sr: t.sr, shard: t.shard}, true)
		}
		ws.engaged = false
	}
	for id, t := range c.tasks {
		if t.superseded || !now.After(t.deadline) {
			continue
		}
		t.superseded = true
		if t.worker != nil {
			delete(t.worker.inflight, id)
		}
		t.sr.outstanding[t.shard]--
		if !t.sr.done[t.shard] {
			t.sr.lastErr = fmt.Errorf("fleet: shard %d dispatch timed out after %s", t.shard, shardTimeout)
		}
		c.enqueueLocked(&task{sr: t.sr, shard: t.shard}, true)
	}
	// Straggler duplicates: one extra dispatch for a shard whose only
	// outstanding dispatch has outlived the stage's straggler threshold.
	for sr := range c.stages {
		if sr.closed {
			continue
		}
		median := time.Duration(medianSeconds(sr.completions) * float64(time.Second))
		threshold := max(stragglerAfter, stragglerFactor*median)
		for _, t := range c.tasks {
			if t.sr != sr || t.superseded || sr.done[t.shard] {
				continue
			}
			if sr.outstanding[t.shard] != 1 || now.Sub(t.dispatched) < threshold {
				continue
			}
			c.opts.Logf("fleet: shard %d straggling on worker %s for %s; racing a duplicate",
				t.shard, t.worker.id, now.Sub(t.dispatched))
			c.enqueueLocked(&task{sr: sr, shard: t.shard}, true)
		}
	}
	if c.aliveLocked(now) == 0 {
		for sr := range c.stages {
			c.failStageLocked(sr, fmt.Errorf("%w: every fleet worker expired mid-stage", workflow.ErrNoWorkers))
		}
	}
	// Forget long-gone workers so the roster does not grow without bound.
	for id, ws := range c.workers {
		if now.Sub(ws.lastSeen) > 6*workerExpiry && len(ws.inflight) == 0 {
			delete(c.workers, id)
			for i, oid := range c.order {
				if oid == id {
					c.order = append(c.order[:i], c.order[i+1:]...)
					break
				}
			}
		}
	}
}

// failStageLocked closes sr with err and drops its queued shards. A
// stageRun is guarded by c.mu, so the *Locked obligation roots at the
// coordinator, not the run.
func (c *Coordinator) failStageLocked(sr *stageRun, err error) {
	if sr.closed {
		return
	}
	sr.closed = true
	sr.err = err
	close(sr.finished)
	c.unqueueLocked(sr, -1)
}

// unqueueLocked drops sr's queued dispatches of one shard, or of every
// shard when shard is negative, so the queue holds only shards still
// waiting for a worker.
func (c *Coordinator) unqueueLocked(sr *stageRun, shard int) {
	kept := c.queue[:0]
	for _, t := range c.queue {
		if t.sr == sr && (shard < 0 || t.shard == shard) {
			sr.outstanding[t.shard]--
			continue
		}
		kept = append(kept, t)
	}
	c.queue = kept
}

// cleanupStageLocked releases a finished stage's coordinator-side state:
// its queued and dispatched shards, and its pins on the context parts. A
// part is dropped with its last pin; workers cache the decoded parts by
// hash, so no later fetch needs it.
func (c *Coordinator) cleanupStageLocked(sr *stageRun) {
	delete(c.stages, sr)
	c.unqueueLocked(sr, -1)
	for id, t := range c.tasks {
		if t.sr != sr {
			continue
		}
		if t.worker != nil {
			delete(t.worker.inflight, id)
		}
		delete(c.tasks, id)
	}
	for _, hash := range sr.spec.ContextParts {
		b := c.blobs[hash]
		if b.refs--; b.refs == 0 {
			delete(c.blobs, hash)
		}
	}
	if len(c.queue) == 0 && len(c.tasks) == 0 {
		c.lastDrain = c.opts.Now()
	}
}

func medianSeconds(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// --- HTTP surface -----------------------------------------------------

// Routes is the fleet's route table, in the route.V2 envelope: the
// token-guarded control plane and blob data plane, and the open roster.
// rpc.Server and the in-process tests register the same rows.
func (c *Coordinator) Routes() []route.Route {
	return []route.Route{
		{Method: "POST", Pattern: "/api/v2/fleet/register", Admit: c.admit, Handler: c.handleRegister},
		{Method: "POST", Pattern: "/api/v2/fleet/poll", Admit: c.admit, Handler: c.handlePoll},
		{Method: "POST", Pattern: "/api/v2/fleet/result", Admit: c.admit, Handler: c.handleResult},
		{Method: "GET", Pattern: "/api/v2/blobs/{hash}", Admit: c.admit, Handler: c.handleBlob},
		{Method: "GET", Pattern: "/api/v2/workers", Handler: c.handleWorkers},
	}
}

// admit requires the fleet bearer token, when one is configured.
func (c *Coordinator) admit(next http.HandlerFunc) http.HandlerFunc {
	if c.opts.Token == "" {
		return next
	}
	want := []byte("Bearer " + c.opts.Token)
	return func(w http.ResponseWriter, r *http.Request) {
		if subtle.ConstantTimeCompare([]byte(r.Header.Get("Authorization")), want) != 1 {
			route.V2.Error(w, http.StatusUnauthorized, "unauthorized", "missing or invalid fleet token")
			return
		}
		next(w, r)
	}
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		route.V2.Error(w, http.StatusBadRequest, "invalid_argument", "bad register body: %v", err)
		return
	}
	if req.Slots <= 0 {
		req.Slots = 1
	}
	c.mu.Lock()
	c.seq++
	id := fmt.Sprintf("w%d", c.seq)
	name := req.Name
	if name == "" {
		name = id
	}
	c.workers[id] = &workerState{
		id: id, name: name, addr: r.RemoteAddr, slots: req.Slots,
		lastSeen: c.opts.Now(), inflight: make(map[string]*task),
	}
	c.order = append(c.order, id)
	c.mu.Unlock()
	c.opts.Logf("fleet: worker %s registered as %s (%s, %d slots)", name, id, r.RemoteAddr, req.Slots)
	route.JSON(w, http.StatusOK, RegisterResponse{ID: id})
}

func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req PollRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		route.V2.Error(w, http.StatusBadRequest, "invalid_argument", "bad poll body: %v", err)
		return
	}
	// The hold runs on the wall clock, not Options.Now.
	timer := time.NewTimer(pollWait)
	defer timer.Stop()
	for {
		c.mu.Lock()
		ws, ok := c.workers[req.WorkerID]
		if !ok {
			c.mu.Unlock()
			route.V2.Error(w, http.StatusNotFound, "unknown_worker", "no worker %q (re-register)", req.WorkerID)
			return
		}
		now := c.opts.Now()
		ws.lastSeen = now
		t := c.grantLocked(ws, now)
		wake := c.wake
		c.mu.Unlock()
		if t != nil {
			route.JSON(w, http.StatusOK, PollResponse{Task: t})
			return
		}
		select {
		case <-wake:
		case <-timer.C:
			route.JSON(w, http.StatusOK, PollResponse{})
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	res, payload, err := ReadResult(http.MaxBytesReader(w, r.Body, maxEnvelope+maxPayload))
	if err != nil {
		route.V2.Error(w, http.StatusBadRequest, "invalid_argument", "bad result body: %v", err)
		return
	}

	// Phase 1: detach the task under the lock; decide whether a decode is
	// even worth paying for.
	c.mu.Lock()
	now := c.opts.Now()
	ws, ok := c.workers[res.WorkerID]
	if !ok {
		c.mu.Unlock()
		route.V2.Error(w, http.StatusNotFound, "unknown_worker", "no worker %q (re-register)", res.WorkerID)
		return
	}
	ws.lastSeen = now
	ws.lastWork = now
	t, routable := c.tasks[res.TaskID]
	if routable {
		delete(c.tasks, res.TaskID)
		if t.worker != nil {
			delete(t.worker.inflight, res.TaskID)
		}
		if !t.superseded {
			t.sr.outstanding[t.shard]--
		}
	}
	var sr *stageRun
	var shard int
	wanted := false
	if routable {
		sr, shard = t.sr, t.shard
		wanted = !sr.closed && !sr.done[shard]
	}
	if routable && wanted && res.Error != "" {
		sr.lastErr = fmt.Errorf("fleet: worker %s: %s", res.WorkerID, res.Error)
		c.enqueueLocked(&task{sr: sr, shard: shard}, true)
		c.mu.Unlock()
		route.JSON(w, http.StatusOK, ResultResponse{})
		return
	}
	c.mu.Unlock()
	if !routable || !wanted {
		// Unknown task (stage already gathered) or shard already complete:
		// idempotent discard — the first result won.
		c.mu.Lock()
		c.metrics.DuplicatesDiscarded++
		c.mu.Unlock()
		route.JSON(w, http.StatusOK, ResultResponse{})
		return
	}

	// Phase 2: outside the lock, read exactly OutputBytes bytes off the
	// body, with nothing after them, and decode them; then commit if still
	// first.
	var out workflow.StreamShard
	b, err := readPayload(payload, res.OutputBytes)
	if err == nil {
		out, err = workflow.DecodeShard(b)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if sr.closed || sr.done[shard] {
		c.metrics.DuplicatesDiscarded++
		route.JSON(w, http.StatusOK, ResultResponse{})
		return
	}
	if err != nil {
		sr.lastErr = fmt.Errorf("fleet: worker %s shard %d: %v", res.WorkerID, shard, err)
		c.enqueueLocked(&task{sr: sr, shard: shard}, true)
		route.JSON(w, http.StatusOK, ResultResponse{})
		return
	}
	sr.done[shard] = true
	c.unqueueLocked(sr, shard) // a straggler duplicate no longer waits
	sr.outs[shard] = out
	sr.elaps[shard] = time.Duration(res.ElapsedMS * float64(time.Millisecond))
	sr.completions = append(sr.completions, res.ElapsedMS/1000)
	sr.remaining--
	ws.done++
	c.metrics.Completed++
	if sr.remaining == 0 {
		sr.closed = true
		close(sr.finished)
	}
	route.JSON(w, http.StatusOK, ResultResponse{Accepted: true})
}

// readPayload reads the n-byte shard payload behind a result envelope in
// one read; a body that ends before n bytes or runs past them is an error.
func readPayload(body io.Reader, n int64) ([]byte, error) {
	b := make([]byte, n)
	if got, err := io.ReadFull(body, b); err != nil {
		return nil, fmt.Errorf("payload is %d bytes, envelope declares %d", got, n)
	}
	var one [1]byte
	if _, err := io.ReadFull(body, one[:]); err != io.EOF {
		return nil, fmt.Errorf("payload runs past the %d bytes its envelope declares", n)
	}
	return b, nil
}

func (c *Coordinator) handleBlob(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	c.mu.Lock()
	part, ok := c.blobs[hash]
	c.mu.Unlock()
	if !ok {
		// Not a pinned context part: fall back to the durable store, which
		// streams from disk (pread off the chunk file — the bytes never
		// become coordinator heap).
		if c.opts.Blobs != nil {
			if blob, err := c.opts.Blobs.Get(hash); err == nil {
				defer blob.Close()
				w.Header().Set("Content-Type", "application/octet-stream")
				w.Header().Set("Content-Length", fmt.Sprint(blob.Size()))
				_, _ = io.Copy(w, blob.Reader())
				return
			}
		}
		route.V2.Error(w, http.StatusNotFound, "not_found", "no blob %q", hash)
		return
	}
	b, err := part.bytes()
	if err != nil {
		route.V2.Error(w, http.StatusInternalServerError, "internal", "encode blob %q: %v", hash, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(b)))
	_, _ = w.Write(b)
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	route.JSON(w, http.StatusOK, c.Snapshot())
}

// Snapshot builds the roster response: one row per registered worker in
// registration order, plus queue depth and metrics.
func (c *Coordinator) Snapshot() Roster {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Now()
	roster := Roster{Workers: make([]WorkerStatus, 0, len(c.order)), Queued: len(c.queue), Metrics: c.metrics}
	for _, id := range c.order {
		ws, ok := c.workers[id]
		if !ok {
			continue
		}
		state := "idle"
		switch {
		case now.Sub(ws.lastSeen) > workerExpiry:
			state = "gone"
		case ws.engaged:
			state = "active"
		}
		roster.Workers = append(roster.Workers, WorkerStatus{
			ID: ws.id, Name: ws.name, Addr: ws.addr, State: state,
			Slots: ws.slots, Inflight: len(ws.inflight), ShardsDone: ws.done,
			LastHeartbeatMS: now.Sub(ws.lastSeen).Milliseconds(),
		})
	}
	return roster
}
