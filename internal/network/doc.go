// Package network implements SCAN's integrative substrate: interaction-
// network construction and module detection standing in for Cytoscape in
// the paper's Figure 1 integration path.
//
// The input is a table of gene-level measurements (the FeatureTable the
// other families produce); the output is an interaction network — nodes,
// similarity edges, and the connected-component modules the edges imply.
//
// Scatter/gather shape: the graph partition is the scatter unit. An Index
// sorts the node values once per stage. Node index ranges split edge
// construction into independent slabs: each range emits the edges (a, b>a)
// of its nodes, walking each node's value window in the Index and carrying
// overlapping windows' sorted members from node to node in value order, so
// every pair is decided exactly once. A Network keeps the slabs as built,
// in range order, never concatenated. Modules come from the Index, not the
// edges: they are the maximal runs of rank-adjacent values within Epsilon.
//
// Determinism guarantee: generation is seeded, edge construction is a pure
// function of the node values, every slab is in (A, B) order, and modules
// list members ascending and modules by first member — so the slabs'
// concatenation and the modules equal the full build's for any partition
// (proven by the package's partitioned-equals-full tests).
package network
