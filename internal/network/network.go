package network

import (
	"fmt"
	"math/rand"
)

// Measurement is one gene-level observation, the integrative input row.
type Measurement struct {
	Name  string
	Value float64
}

// moduleSpacing separates planted module centers; moduleSpread bounds the
// within-module jitter. Spread is well under the default edge epsilon and
// spacing well over it, so planted modules are exactly the connected
// components the builder recovers.
const (
	moduleSpacing = 10.0
	moduleSpread  = 1.0
)

// SimulateMeasurements draws `genes` measurements from `modules` planted
// modules: genes are assigned round-robin, and each value sits within
// ±moduleSpread/2 of its module center. Seeded generation regenerates
// identical tables. Returns the measurements and each gene's true module.
func SimulateMeasurements(rng *rand.Rand, genes, modules int) ([]Measurement, []int, error) {
	if genes < 1 {
		return nil, nil, fmt.Errorf("network: gene count %d invalid", genes)
	}
	if modules < 1 || modules > genes {
		return nil, nil, fmt.Errorf("network: module count %d invalid for %d genes", modules, genes)
	}
	ms := make([]Measurement, genes)
	truth := make([]int, genes)
	for i := range ms {
		m := i % modules
		center := moduleSpacing * float64(m+1)
		ms[i] = Measurement{
			Name:  fmt.Sprintf("gene%04d", i),
			Value: center + (rng.Float64()-0.5)*moduleSpread,
		}
		truth[i] = m
	}
	return ms, truth, nil
}

// Node is one network node.
type Node struct {
	Name  string
	Value float64
}

// Edge is one undirected similarity edge; A < B index into the node list.
type Edge struct {
	A, B   int
	Weight float64
}

// Network is the integrative output: the interaction graph plus its
// detected modules (connected components, each a sorted node-index list,
// ordered by first member).
type Network struct {
	Nodes   []Node
	Edges   []Edge
	Modules [][]int
}

// Config tunes network construction.
type Config struct {
	// Epsilon is the measurement-distance ceiling for an edge (default 2).
	Epsilon float64
}

func (c Config) withDefaults() Config {
	if c.Epsilon <= 0 {
		c.Epsilon = 2
	}
	return c
}

// Modules returns the connected components the edges imply over n nodes:
// each component's node indexes sorted ascending, components ordered by
// their smallest member. Isolated nodes form singleton modules.
func Modules(n int, edges []Edge) [][]int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		ra, rb := find(e.A), find(e.B)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	// A union hangs the larger root under the smaller, so a root is its
	// component's smallest member: an ascending pass meets it first.
	out := [][]int{}
	at := make([]int, n) // a root's index in out
	for i := range n {
		r := find(i)
		if r == i {
			at[i] = len(out)
			out = append(out, nil)
		}
		out[at[r]] = append(out[at[r]], i)
	}
	return out
}

// Build constructs the full network in one pass — the unscattered
// reference implementation tiled executions must reproduce.
func Build(nodes []Node, cfg Config) *Network {
	edges, _ := NewIndex(nodes, cfg).Slab(nil, 0, len(nodes), nil)
	return &Network{Nodes: nodes, Edges: edges, Modules: Modules(len(nodes), edges)}
}
