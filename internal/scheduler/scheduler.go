package scheduler

import (
	"fmt"
	"math"

	"scan/internal/cloud"
	"scan/internal/gatk"
	"scan/internal/reward"
	"scan/internal/sim"
	"scan/internal/stats"
)

// Config assembles a scheduler.
type Config struct {
	Pipeline     gatk.Pipeline
	RewardScheme reward.Scheme
	RewardParams reward.Params
	Scaling      ScalingPolicy
	Allocation   AllocationPolicy

	// ShardSize is the knowledge-base-advised chunk size: a job of size d
	// is split into ceil(d/ShardSize) parallel shards per stage (the
	// paper's "the inputs will be 2GB for each task").
	ShardSize float64
	// FixedPlan, when non-nil, overrides the allocation policy with a
	// static execution plan (used by the Figure 5 sweep).
	FixedPlan *gatk.Plan
	// HeterogeneousWorkers allows idle workers to be reconfigured to a
	// different core width (paying the startup penalty) instead of hiring
	// anew — Figure 5's dynamic heterogeneous configuration.
	HeterogeneousWorkers bool
	// IdleReleasePrivate is how long a private-tier worker may sit idle
	// before release (default 1.5 TU — private cores are cheap, so keeping
	// a warm pool beats paying the boot penalty again).
	IdleReleasePrivate float64
	// PredictiveMargin scales the hire cost in the predictive decision:
	// the public hire happens only when the queue-wide delay cost exceeds
	// margin × hire cost. Equation 1 charges the delay to every queued
	// job, but one hire only relieves the queue head, so a margin > 1
	// compensates for that over-counting (default 3).
	PredictiveMargin float64
}

// eqtAlpha is the smoothing factor of the queue-time estimators.
const eqtAlpha = 0.2

func (c *Config) fill() {
	if c.ShardSize <= 0 {
		c.ShardSize = 2
	}
	if c.IdleReleasePrivate <= 0 {
		c.IdleReleasePrivate = 1.5
	}
	if c.PredictiveMargin <= 0 {
		c.PredictiveMargin = 3
	}
}

// Job is one pipeline request travelling through the scheduler.
type Job struct {
	ID      int
	Size    float64
	Arrival float64

	Shards    int
	ShardSize float64
	Plan      gatk.Plan

	Done      bool
	Completed float64
	Reward    float64

	stage         int
	pendingShards int
}

// Latency returns the job's end-to-end latency; valid once Done.
func (j *Job) Latency() float64 { return j.Completed - j.Arrival }

// task is one (job, stage, shard) unit of work.
type task struct {
	job      *Job
	stage    int
	threads  int
	enqueued float64
}

// workerState wraps a hired VM with scheduling state.
type workerState struct {
	vm        *cloud.VM
	busyUntil float64
	idleEvent *sim.Event
}

// Metrics aggregates a run's outcomes.
type Metrics struct {
	JobsArrived   int
	JobsCompleted int
	TotalReward   float64
	TotalCost     float64
	Latency       stats.Running
	QueueWait     stats.Running
	PublicHires   int
	PrivateHires  int
	Reconfigs     int
	CoreStages    stats.Running // plan core-stages per completed job
}

// ProfitPerJob returns (ΣR − cost)/jobs — Figure 4's y-axis.
func (m Metrics) ProfitPerJob() float64 {
	if m.JobsCompleted == 0 {
		return 0
	}
	return (m.TotalReward - m.TotalCost) / float64(m.JobsCompleted)
}

// RewardToCost returns ΣR/cost — Figure 5's y-axis.
func (m Metrics) RewardToCost() float64 {
	if m.TotalCost == 0 {
		return 0
	}
	return m.TotalReward / m.TotalCost
}

// Scheduler wires queues, pools, the cloud and the policies together.
type Scheduler struct {
	eng   *sim.Engine
	cloud *cloud.Cloud
	cfg   Config

	nextJobID int
	queues    [][]*task              // per stage FIFO (slice with head at 0)
	idle      map[int][]*workerState // by core width
	busy      map[*workerState]struct{}
	eqt       []ewma

	constantPlan gatk.Plan
	metrics      Metrics
}

// New builds a scheduler on the engine and cloud.
func New(eng *sim.Engine, cl *cloud.Cloud, cfg Config) (*Scheduler, error) {
	cfg.fill()
	n := len(cfg.Pipeline.Stages)
	if n == 0 {
		return nil, gatk.ErrNoStages
	}
	if cfg.FixedPlan != nil {
		if err := cfg.FixedPlan.Validate(n); err != nil {
			return nil, err
		}
	}
	s := &Scheduler{
		eng:    eng,
		cloud:  cl,
		cfg:    cfg,
		queues: make([][]*task, n),
		idle:   make(map[int][]*workerState),
		busy:   make(map[*workerState]struct{}),
		eqt:    make([]ewma, n),
	}
	for i := range s.eqt {
		s.eqt[i] = newEWMA(eqtAlpha)
	}
	// The best-constant baseline is optimised offline against private-tier
	// pricing and the mean shard size.
	plan, err := cfg.Pipeline.OptimalConstantPlan(cfg.ShardSize, gatk.PlanObjective{
		LatencyCostPerTU: s.latencyCostPerTU(meanJobSize),
		PricePerCoreTU:   cl.Price(0),
		Shards:           1,
		OverheadTU:       s.perTaskOverhead(),
	})
	if err != nil {
		return nil, err
	}
	s.constantPlan = plan
	return s, nil
}

// meanJobSize is the Table III mean job size used by offline plan searches.
const meanJobSize = 5

// latencyCostPerTU converts the reward scheme into an equivalent linear
// latency price for plan optimisation. The time-based scheme is exactly
// linear (d·Rpenalty); for the throughput scheme we linearise around the
// typical total time.
func (s *Scheduler) latencyCostPerTU(d float64) float64 {
	switch s.cfg.RewardScheme {
	case reward.ThroughputBased:
		// d(R/t − R/(t+1)) ≈ d·Rscale/t² around a nominal t.
		const t = float64(nominalLatency)
		return d * s.cfg.RewardParams.RScale / (t * t)
	default:
		return d * s.cfg.RewardParams.RPenalty
	}
}

// nominalLatency is the linearisation point for the throughput scheme.
const nominalLatency = 10

// Metrics returns a snapshot of the run metrics with the cost filled in
// from the cloud ledger.
func (s *Scheduler) Metrics() Metrics {
	m := s.metrics
	m.TotalCost = s.cloud.Cost()
	return m
}

// Submit admits one job of the given input size at the current time.
func (s *Scheduler) Submit(size float64) *Job {
	j := &Job{
		ID:      s.nextJobID,
		Size:    size,
		Arrival: s.eng.Now(),
	}
	s.nextJobID++
	s.metrics.JobsArrived++
	j.Shards = int(math.Ceil(size / s.cfg.ShardSize))
	if j.Shards < 1 {
		j.Shards = 1
	}
	j.ShardSize = size / float64(j.Shards)
	j.Plan = s.planFor(j)
	s.enqueueStage(j)
	s.dispatch()
	return j
}

// planFor chooses the job's execution plan at admission.
func (s *Scheduler) planFor(j *Job) gatk.Plan {
	if s.cfg.FixedPlan != nil {
		return *s.cfg.FixedPlan
	}
	switch s.cfg.Allocation {
	case LongTerm, LongTermAdaptive:
		return s.optimisePlan(j, s.blendedPrice())
	case Greedy:
		// Planned stage by stage; seed with the constant plan.
		return s.constantPlan
	default:
		return s.constantPlan
	}
}

// replanStage updates the job's plan on entering a stage, for the policies
// that adapt mid-flight.
func (s *Scheduler) replanStage(j *Job) {
	if s.cfg.FixedPlan != nil {
		return
	}
	switch s.cfg.Allocation {
	case Greedy:
		// Use the price of the tier that would actually supply a core now.
		tier := s.cloud.CheapestTierWithCapacity(1)
		price := s.cloud.Price(0)
		if tier >= 0 {
			price = s.cloud.Price(tier)
		}
		j.Plan = s.optimisePlan(j, price)
	case LongTermAdaptive:
		j.Plan = s.optimisePlan(j, s.blendedPrice())
	}
}

// blendedPrice mixes private and public prices by private utilisation —
// the expected marginal core price over the job's lifetime.
func (s *Scheduler) blendedPrice() float64 {
	u := s.cloud.Utilization(0)
	return (1-u)*s.cloud.Price(0) + u*s.cloud.Price(1)
}

func (s *Scheduler) optimisePlan(j *Job, price float64) gatk.Plan {
	plan, err := s.cfg.Pipeline.OptimalConstantPlan(j.ShardSize, gatk.PlanObjective{
		LatencyCostPerTU: s.latencyCostPerTU(j.Size),
		PricePerCoreTU:   price,
		Shards:           j.Shards,
		OverheadTU:       s.perTaskOverhead(),
	})
	if err != nil {
		return s.constantPlan
	}
	return plan
}

// perTaskOverhead estimates the billed-but-idle worker time attributable to
// one stage-task: the boot penalty on a fresh hire plus half the private
// idle window (on average a reused worker sits idle half the window).
func (s *Scheduler) perTaskOverhead() float64 {
	return s.cloud.StartupDelay() + s.cfg.IdleReleasePrivate/2
}

// enqueueStage adds one task per shard of the job's current stage.
func (s *Scheduler) enqueueStage(j *Job) {
	j.pendingShards = j.Shards
	threads := j.Plan.Threads[j.stage]
	for i := 0; i < j.Shards; i++ {
		s.queues[j.stage] = append(s.queues[j.stage], &task{
			job:      j,
			stage:    j.stage,
			threads:  threads,
			enqueued: s.eng.Now(),
		})
	}
}

// dispatch assigns queued tasks to workers while policies permit. Later
// stages drain first so in-flight jobs finish ahead of new admissions.
func (s *Scheduler) dispatch() {
	for st := len(s.queues) - 1; st >= 0; st-- {
		for len(s.queues[st]) > 0 {
			tk := s.queues[st][0]
			ws := s.acquireWorker(tk)
			if ws == nil {
				break // FIFO head blocked; try other stages
			}
			s.queues[st] = s.queues[st][1:]
			s.assign(tk, ws)
		}
	}
}

// acquireWorker finds or creates a worker able to run tk, or returns nil
// when the scaling policy says to wait. The search order keeps the cluster
// efficient: an exactly-fitting warm worker, then a fresh private hire
// (cheap cores, right width), then — capacity exhausted — salvage options:
// reconfiguring an idle worker (heterogeneous mode) or squeezing the task
// onto a wider idle worker, and only then public money.
func (s *Scheduler) acquireWorker(tk *task) *workerState {
	// 1. An idle worker of the exact width.
	if ws := s.takeIdle(tk.threads); ws != nil {
		return ws
	}
	// 2. A fresh private-tier hire.
	if vm, err := s.cloud.Hire(0, tk.threads); err == nil {
		s.metrics.PrivateHires++
		return &workerState{vm: vm}
	}
	// 3. Reconfigure an idle worker of another width (dynamic
	// heterogeneous configuration), paying the startup penalty again.
	if s.cfg.HeterogeneousWorkers {
		for _, w := range gatk.InstanceSizes {
			if w == tk.threads || len(s.idle[w]) == 0 {
				continue
			}
			pool := s.idle[w]
			ws := pool[len(pool)-1]
			if err := s.cloud.Reconfigure(ws.vm, tk.threads); err != nil {
				continue // e.g. growing past tier capacity
			}
			s.idle[w] = pool[:len(pool)-1]
			if ws.idleEvent != nil {
				ws.idleEvent.Cancel()
				ws.idleEvent = nil
			}
			s.metrics.Reconfigs++
			return ws
		}
	}
	// 4. Public money, policy permitting. (A wider idle worker is
	// deliberately NOT used as a fallback: letting narrow tasks squat on
	// wide workers wastes cores exactly when the private tier is full,
	// collapsing throughput under load — workers stay statically matched
	// to their width, as in the paper's per-phase pools.)
	switch s.cfg.Scaling {
	case AlwaysScale:
		if vm, err := s.cloud.Hire(1, tk.threads); err == nil {
			s.metrics.PublicHires++
			return &workerState{vm: vm}
		}
	case PredictiveScale:
		if s.shouldHirePublic(tk) {
			if vm, err := s.cloud.Hire(1, tk.threads); err == nil {
				s.metrics.PublicHires++
				return &workerState{vm: vm}
			}
		}
	}
	return nil
}

// takeIdle pops an idle worker of exactly width w, cancelling its pending
// release. Private (tier 0) workers are preferred so that warm public
// machines do not intercept work the owned tier could do at a tenth of the
// price.
func (s *Scheduler) takeIdle(w int) *workerState {
	pool := s.idle[w]
	if len(pool) == 0 {
		return nil
	}
	pick := -1
	for i := len(pool) - 1; i >= 0; i-- {
		if pool[i].vm.Tier == 0 {
			pick = i
			break
		}
	}
	if pick < 0 {
		pick = len(pool) - 1
	}
	ws := pool[pick]
	s.idle[w] = append(pool[:pick], pool[pick+1:]...)
	if ws.idleEvent != nil {
		ws.idleEvent.Cancel()
		ws.idleEvent = nil
	}
	return ws
}

// shouldHirePublic implements the paper's core scheduling question: "should
// a worker be hired from the elastic cloud to run it immediately, or should
// it be delayed until an existing worker becomes available?" It compares
// the delay cost of waiting (Equation 1, over the jobs queued at this
// stage) against the cost of the public hire.
func (s *Scheduler) shouldHirePublic(tk *task) bool {
	delay := s.estimateWait(tk.threads)
	if math.IsInf(delay, 1) {
		return true // nothing will ever free: waiting starves the queue
	}
	if delay <= s.cloud.StartupDelay() {
		// A fresh worker would not boot before an existing one frees.
		return false
	}
	queue := s.queueEstimates(tk.stage)
	dc := s.cfg.RewardParams.DelayCost(s.cfg.RewardScheme, queue, delay)
	eet := s.cfg.Pipeline.StageTime(tk.stage, tk.threads, tk.job.ShardSize)
	hireCost := s.cloud.Price(1) * float64(tk.threads) * (s.cloud.StartupDelay() + eet)
	return dc > s.cfg.PredictiveMargin*hireCost
}

// estimateWait predicts how long the queue head waits for a worker if no
// hire happens: the earliest completion among busy workers of the needed
// width (any width under heterogeneous reconfiguration).
func (s *Scheduler) estimateWait(threads int) float64 {
	now := s.eng.Now()
	min := math.Inf(1)
	for ws := range s.busy {
		if !s.cfg.HeterogeneousWorkers && ws.vm.Cores != threads {
			continue
		}
		if t := ws.busyUntil - now; t < min {
			min = t
		}
	}
	if min < 0 {
		min = 0
	}
	return min
}

// queueEstimates builds Equation 1's job set for one stage queue: each
// distinct queued job with its ETT (Equation 2). The scan is capped at the
// first maxDelayCostJobs distinct jobs so a deeply backlogged queue does
// not make every hire decision quadratic; beyond that depth the decision
// is already saturated in favour of hiring.
func (s *Scheduler) queueEstimates(stage int) []reward.JobEstimate {
	const maxDelayCostJobs = 64
	seen := map[int]bool{}
	var out []reward.JobEstimate
	for _, tk := range s.queues[stage] {
		if seen[tk.job.ID] {
			continue
		}
		seen[tk.job.ID] = true
		out = append(out, reward.JobEstimate{
			Size: tk.job.Size,
			ETT:  s.estimateTotalTime(tk.job),
		})
		if len(out) >= maxDelayCostJobs {
			break
		}
	}
	return out
}

// estimateTotalTime implements Equation 2: elapsed time plus estimated
// queueing and execution time for the current and future stages.
func (s *Scheduler) estimateTotalTime(j *Job) float64 {
	elapsed := s.eng.Now() - j.Arrival
	remaining := 0.0
	for i := j.stage; i < len(s.cfg.Pipeline.Stages); i++ {
		remaining += s.eqt[i].Value() +
			s.cfg.Pipeline.StageTime(i, j.Plan.Threads[i], j.ShardSize)
	}
	return elapsed + remaining
}

// assign starts tk on ws and schedules its completion.
func (s *Scheduler) assign(tk *task, ws *workerState) {
	now := s.eng.Now()
	start := now
	if ws.vm.ReadyAt > start {
		start = ws.vm.ReadyAt
	}
	wait := start - tk.enqueued
	s.eqt[tk.stage].Add(wait)
	s.metrics.QueueWait.Add(wait)
	dur := s.cfg.Pipeline.StageTime(tk.stage, tk.threads, tk.job.ShardSize)
	ws.busyUntil = start + dur
	s.busy[ws] = struct{}{}
	s.eng.Schedule(ws.busyUntil, func() { s.onTaskDone(tk, ws) })
}

// onTaskDone returns the worker to its pool and advances the job.
func (s *Scheduler) onTaskDone(tk *task, ws *workerState) {
	delete(s.busy, ws)
	s.parkWorker(ws)

	j := tk.job
	j.pendingShards--
	if j.pendingShards == 0 {
		if j.stage == len(s.cfg.Pipeline.Stages)-1 {
			s.completeJob(j)
		} else {
			j.stage++
			s.replanStage(j)
			s.enqueueStage(j)
		}
	}
	s.dispatch()
}

// parkWorker idles the worker and schedules its release. Tier 0 is the
// private (owned) tier by construction; its warm pool lingers. A public
// worker stays warm only while the private tier is saturated — once owned
// cores could host its width again, burning public money on idling is
// pointless.
func (s *Scheduler) parkWorker(ws *workerState) {
	width := ws.vm.Cores
	s.idle[width] = append(s.idle[width], ws)
	var window float64
	switch {
	case ws.vm.Tier == 0:
		window = s.cfg.IdleReleasePrivate
	case s.cloud.FreeCores(0) >= width:
		window = publicDrainWindow
	default:
		window = publicIdleWindow
	}
	ws.idleEvent = s.eng.After(window, func() {
		s.releaseIdle(ws)
	})
}

// publicIdleWindow is the idle window (1 TU) for public-tier workers while the
// private tier is saturated: warm public workers absorb the sustained
// overflow without a fresh boot penalty. When the private tier has spare
// capacity a parked public worker is released almost immediately instead
// (publicDrainWindow): future work can run on owned cores at a tenth of
// the price.
const publicIdleWindow = 1

// publicDrainWindow is the near-immediate release delay for public workers
// that are no longer needed (kept nonzero so a task completing at the same
// instant can still reuse the worker).
const publicDrainWindow = 0.05

// releaseIdle releases a worker that stayed idle for the full window.
func (s *Scheduler) releaseIdle(ws *workerState) {
	pool := s.idle[ws.vm.Cores]
	for i, w := range pool {
		if w == ws {
			s.idle[ws.vm.Cores] = append(pool[:i], pool[i+1:]...)
			break
		}
	}
	ws.idleEvent = nil
	if err := s.cloud.Release(ws.vm); err != nil {
		// Double release indicates a scheduler bug; surface loudly in
		// simulation rather than corrupting the ledger.
		panic(fmt.Sprintf("scheduler: release: %v", err))
	}
	// The release may have freed the last private cores a queued task of a
	// different width was waiting for.
	s.dispatch()
}

// completeJob books the reward and metrics.
func (s *Scheduler) completeJob(j *Job) {
	j.Done = true
	j.Completed = s.eng.Now()
	j.Reward = s.cfg.RewardParams.Reward(s.cfg.RewardScheme, j.Size, j.Latency())
	s.metrics.JobsCompleted++
	s.metrics.TotalReward += j.Reward
	s.metrics.Latency.Add(j.Latency())
	s.metrics.CoreStages.Add(float64(j.Plan.CoreStages()))
}

// Drain releases every idle worker immediately (used at end of run so the
// final ledger reflects only work actually performed plus idle windows).
func (s *Scheduler) Drain() {
	for width, pool := range s.idle {
		for _, ws := range pool {
			if ws.idleEvent != nil {
				ws.idleEvent.Cancel()
				ws.idleEvent = nil
			}
			if err := s.cloud.Release(ws.vm); err != nil {
				panic(fmt.Sprintf("scheduler: drain: %v", err))
			}
		}
		s.idle[width] = nil
	}
}

// ConstantPlan exposes the offline-optimised baseline plan (for tests and
// the experiment harness).
func (s *Scheduler) ConstantPlan() gatk.Plan { return s.constantPlan }
