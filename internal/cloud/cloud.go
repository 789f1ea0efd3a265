// Package cloud models the elastic, tiered cloud the SCAN scheduler hires
// workers from: a private tier with bounded capacity and cheap cores, and a
// public tier with effectively unbounded capacity at a higher price
// (Section IV-A's hybrid configuration). It tracks per-VM hire time and
// accrues cost at each tier's per-core-per-TU price, and charges the 30 s
// (0.5 TU) startup penalty on hires and reconfigurations, standing in for
// the CELAR middleware's provisioning behaviour.
package cloud

import (
	"errors"
	"fmt"
)

// Unbounded marks a tier without a capacity limit.
const Unbounded = -1

// Tier is one class of purchasable cores.
type Tier struct {
	Name           string
	PricePerCoreTU float64
	// Cores is the tier capacity in cores; Unbounded for public clouds.
	Cores int
}

// Clock supplies the current simulation time; satisfied by *sim.Engine.
type Clock interface {
	Now() float64
}

// VM is one hired worker machine.
type VM struct {
	ID    int
	Tier  int // index into the cloud's tier list
	Cores int
	// ReadyAt is when the machine finishes booting/reconfiguring.
	ReadyAt float64

	hiredAt  float64
	released bool
}

// Cloud tracks hired VMs and accrued cost.
type Cloud struct {
	clock   Clock
	tiers   []Tier
	startup float64

	nextID  int
	inUse   map[int]int // tier index -> cores currently hired
	vms     map[int]*VM
	settled float64 // cost of released VMs
}

// Errors returned by hire operations.
var (
	ErrNoCapacity = errors.New("cloud: no tier has sufficient free capacity")
	ErrReleased   = errors.New("cloud: VM already released")
)

// New returns a cloud with the given tiers (tried in order by Hire) and
// startup penalty in TU.
func New(clock Clock, startup float64, tiers ...Tier) *Cloud {
	return &Cloud{
		clock:   clock,
		tiers:   tiers,
		startup: startup,
		inUse:   make(map[int]int),
		vms:     make(map[int]*VM),
	}
}

// DefaultTiers returns the paper's hybrid configuration: a 624-core private
// tier at 5 CU/core/TU and an unbounded public tier at publicPrice.
func DefaultTiers(publicPrice float64) []Tier {
	return []Tier{
		{Name: "private", PricePerCoreTU: 5, Cores: 624},
		{Name: "public", PricePerCoreTU: publicPrice, Cores: Unbounded},
	}
}

// StartupDelay returns the configured boot/reconfigure penalty.
func (c *Cloud) StartupDelay() float64 { return c.startup }

// FreeCores reports the remaining capacity of tier i (a large sentinel for
// unbounded tiers).
func (c *Cloud) FreeCores(i int) int {
	t := c.tiers[i]
	if t.Cores == Unbounded {
		return 1 << 30
	}
	return t.Cores - c.inUse[i]
}

// CoresInUse reports the cores currently hired from tier i.
func (c *Cloud) CoresInUse(i int) int { return c.inUse[i] }

// ActiveVMs returns the number of currently hired machines.
func (c *Cloud) ActiveVMs() int { return len(c.vms) }

// Hire acquires a VM with the given core count from the first tier with
// free capacity, or from a specific tier when tier >= 0. The VM is billed
// from now and becomes ready after the startup delay.
func (c *Cloud) Hire(tier, cores int) (*VM, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("cloud: invalid core count %d", cores)
	}
	idx := -1
	if tier >= 0 {
		if tier >= len(c.tiers) {
			return nil, fmt.Errorf("cloud: no tier %d", tier)
		}
		if c.FreeCores(tier) >= cores {
			idx = tier
		}
	} else {
		for i := range c.tiers {
			if c.FreeCores(i) >= cores {
				idx = i
				break
			}
		}
	}
	if idx < 0 {
		return nil, ErrNoCapacity
	}
	now := c.clock.Now()
	vm := &VM{
		ID:      c.nextID,
		Tier:    idx,
		Cores:   cores,
		ReadyAt: now + c.startup,
		hiredAt: now,
	}
	c.nextID++
	c.inUse[idx] += cores
	c.vms[vm.ID] = vm
	return vm, nil
}

// CheapestTierWithCapacity returns the index of the lowest-price tier able
// to supply cores, or -1.
func (c *Cloud) CheapestTierWithCapacity(cores int) int {
	best, bestPrice := -1, 0.0
	for i, t := range c.tiers {
		if c.FreeCores(i) >= cores && (best < 0 || t.PricePerCoreTU < bestPrice) {
			best, bestPrice = i, t.PricePerCoreTU
		}
	}
	return best
}

// Release returns the VM's cores and settles its bill.
func (c *Cloud) Release(vm *VM) error {
	if vm.released {
		return ErrReleased
	}
	vm.released = true
	now := c.clock.Now()
	c.settled += c.vmCost(vm, now)
	c.inUse[vm.Tier] -= vm.Cores
	delete(c.vms, vm.ID)
	return nil
}

// Reconfigure resizes a running VM to newCores (the dynamic heterogeneous-
// worker configuration of Figure 5: CELAR shuts the worker down, adjusts
// its VCPUs, and restarts it). The VM becomes ready again after the startup
// penalty. Cost accrues at the new size from now; the old usage is settled.
func (c *Cloud) Reconfigure(vm *VM, newCores int) error {
	if vm.released {
		return ErrReleased
	}
	if newCores <= 0 {
		return fmt.Errorf("cloud: invalid core count %d", newCores)
	}
	delta := newCores - vm.Cores
	if delta > 0 && c.FreeCores(vm.Tier) < delta {
		return ErrNoCapacity
	}
	now := c.clock.Now()
	c.settled += c.vmCost(vm, now)
	c.inUse[vm.Tier] += delta
	vm.Cores = newCores
	vm.hiredAt = now
	vm.ReadyAt = now + c.startup
	return nil
}

// vmCost is the accrued cost of vm between its hire time and now.
func (c *Cloud) vmCost(vm *VM, now float64) float64 {
	dt := now - vm.hiredAt
	if dt < 0 {
		dt = 0
	}
	return dt * float64(vm.Cores) * c.tiers[vm.Tier].PricePerCoreTU
}

// Cost returns the total accrued cost: settled bills plus the running cost
// of currently hired VMs up to now.
func (c *Cloud) Cost() float64 {
	now := c.clock.Now()
	total := c.settled
	for _, vm := range c.vms {
		total += c.vmCost(vm, now)
	}
	return total
}

// Price returns tier i's per-core-TU price.
func (c *Cloud) Price(i int) float64 { return c.tiers[i].PricePerCoreTU }

// Utilization returns the fraction of tier i's capacity in use (0 for
// unbounded tiers).
func (c *Cloud) Utilization(i int) float64 {
	t := c.tiers[i]
	if t.Cores == Unbounded || t.Cores == 0 {
		return 0
	}
	return float64(c.inUse[i]) / float64(t.Cores)
}
