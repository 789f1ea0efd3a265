package scheduler

// FleetAdvisor adapts the Section III-A2 scaling economics from the
// simulator's event clock to a live worker fleet's wall clock — the policy
// brain internal/fleet's coordinator consults before engaging registered
// workers. The structure mirrors Scheduler.shouldHirePublic: a baseline of
// workers plays the private tier (engaged unconditionally while work
// exists), and each engagement beyond it is a "public hire" that must pay
// for itself — the Equation 1 delay cost the hire removes from the queue
// has to exceed the hire's cost by the predictive margin. Inputs are live
// observations instead of simulated ones: the coordinator's queue depth
// and the Data Broker's fitted per-task cost (knowledge.ChainCosts /
// StageEnv.EstimateShardCost).

import "time"

// The prices of the wall-clock hire decision: the simulator's unit prices
// and its default predictive margin (Config.PredictiveMargin).
const (
	// hirePrice is the public-tier price of one worker-second.
	hirePrice = 1.0
	// delayCostPerSec converts one queued task-second into reward-scheme
	// delay cost.
	delayCostPerSec = 1.0
	// hireMargin is the hire-cost multiplier the delay cost must exceed.
	hireMargin = 3.0
	// startupDelaySec estimates a fresh worker's engage-to-first-result
	// overhead.
	startupDelaySec = 0.1
)

// FleetAdvisor holds the policy of the wall-clock scaling decision. The
// zero value is usable.
type FleetAdvisor struct {
	// Policy selects the Table I horizontal-scaling algorithm.
	Policy ScalingPolicy
	// Baseline is the private-tier size: workers engaged whenever work
	// exists, with no hire decision (default 1).
	Baseline int
}

// DesiredWorkers answers "how many of the available workers should be
// engaged right now": queued is the number of tasks waiting for a worker,
// engaged how many workers are currently engaged, available how many live
// workers are registered, and estTaskSec the fitted serial cost of one
// queued task. The result is always within [0, available]; release of
// workers above it is idle-driven (IdleRelease), never preemptive.
func (a FleetAdvisor) DesiredWorkers(queued, engaged, available int, estTaskSec float64) int {
	if available <= 0 {
		return 0
	}
	if engaged > available {
		engaged = available
	}
	if queued <= 0 {
		// Nothing waiting: keep what is engaged, hire nothing.
		return engaged
	}
	base := min(max(a.Baseline, 1), available)
	switch a.Policy {
	case NeverScale:
		// Private tier only: queue rather than hire.
		return base
	case AlwaysScale:
		// Every waiting task justifies a hire — private first, public
		// overflow, capacity permitting.
		return min(available, max(base, engaged+queued))
	}
	// PredictiveScale: grow k one worker at a time while the marginal
	// Equation 1 delay-cost reduction exceeds hireMargin × hire cost. With k
	// workers task j of the queue waits ≈ (j-1)/k · estTaskSec, so the
	// aggregate delay cost is delayCostPerSec · estTaskSec · q(q-1)/(2k)
	// and the k→k+1 hire removes the 1/k − 1/(k+1) share of it. The hire
	// costs its startup plus one task's execution at the public price —
	// the same shape as shouldHirePublic's hireCost.
	if estTaskSec <= 0 {
		return max(base, engaged)
	}
	k := max(base, engaged)
	q := float64(queued)
	aggregate := delayCostPerSec * estTaskSec * q * (q - 1) / 2
	hireCost := hirePrice * (startupDelaySec + estTaskSec)
	for k < available {
		if q*estTaskSec/float64(k) <= startupDelaySec {
			break // an existing worker frees before a fresh one would boot
		}
		saved := aggregate * (1/float64(k) - 1/float64(k+1))
		if saved <= hireMargin*hireCost {
			break
		}
		k++
	}
	return k
}

// IdleRelease maps a Table I resource-allocation policy onto the live
// fleet's one allocatable resource — how long an engaged worker is held
// once idle before its engagement is released. Greedy re-plans at every
// stage, so it holds capacity only as long as rehiring would cost;
// LongTerm commits for a long horizon; LongTermAdaptive tracks the
// observed gap between work bursts (gapSec, an EWMA the coordinator
// maintains; ≤0 when unobserved); BestConstant holds a fixed default.
func (a FleetAdvisor) IdleRelease(policy AllocationPolicy, gapSec float64) time.Duration {
	const def = 2 * time.Second
	const startup = time.Duration(startupDelaySec * float64(time.Second))
	switch policy {
	case Greedy:
		return startup
	case LongTerm:
		return 10 * def
	case LongTermAdaptive:
		if gapSec <= 0 {
			return def
		}
		hold := time.Duration(2 * gapSec * float64(time.Second))
		return min(max(hold, startup), 10*def)
	default: // BestConstant
		return def
	}
}
