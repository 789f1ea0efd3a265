// Package network implements SCAN's integrative substrate: interaction-
// network construction and module detection standing in for Cytoscape in
// the paper's Figure 1 integration path.
//
// The input is a table of gene-level measurements (the FeatureTable the
// other families produce); the output is an interaction network — nodes,
// similarity edges, and the connected-component modules the edges imply.
//
// Scatter/gather shape: the graph partition is the scatter unit. Node
// index ranges split edge construction into independent slabs: each range
// emits the edges (a, b>a) of its nodes, walking each node's value window
// in an Index sorted once per stage and carrying overlapping windows'
// sorted members from node to node in value order, so every pair is
// decided exactly once. Consecutive slabs concatenate, in range order,
// into the full edge set for a single union-find module-detection pass.
//
// Determinism guarantee: generation is seeded (SimulateMeasurements
// regenerates identical tables from equal seeds), edge construction is a
// pure function of the node values, every slab is in (A, B) order, and
// module detection emits members ascending and modules by first member —
// so the partitioned build equals the full build for any partition size
// (proven by the package's partitioned-equals-full tests) and repeated
// runs are byte-identical.
package network
