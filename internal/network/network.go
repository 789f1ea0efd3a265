package network

import (
	"fmt"
	"math/rand"
)

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
// identical tables. Returns the measurements, one node each, and each
// gene's true module.
func SimulateMeasurements(rng *rand.Rand, genes, modules int) ([]Node, []int, error) {
	if genes < 1 {
		return nil, nil, fmt.Errorf("network: gene count %d invalid", genes)
	}
	if modules < 1 || modules > genes {
		return nil, nil, fmt.Errorf("network: module count %d invalid for %d genes", modules, genes)
	}
	ms := make([]Node, genes)
	truth := make([]int, genes)
	for i := range ms {
		m := i % modules
		center := moduleSpacing * float64(m+1)
		ms[i] = Node{
			Name:  fmt.Sprintf("gene%04d", i),
			Value: center + (rng.Float64()-0.5)*moduleSpread,
		}
		truth[i] = m
	}
	return ms, truth, nil
}

// Node is one network node: a gene-level measurement, the integrative
// input row.
type Node struct {
	Name  string
	Value float64
}

// Network is the integrative output: the interaction graph's nodes, its
// edge count and its detected modules (connected components, each a
// sorted node-index list, ordered by first member). An edge joins two
// nodes whose values lie within Epsilon; the sorted Index counts them
// without listing them.
type Network struct {
	Nodes   []Node
	Edges   int
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
