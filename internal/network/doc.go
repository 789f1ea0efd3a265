// Package network implements SCAN's integrative substrate: interaction-
// network construction and module detection standing in for Cytoscape in
// the paper's Figure 1 integration path.
//
// The input is a table of gene-level measurements (the FeatureTable the
// other families produce); the output is an interaction network — nodes,
// the count of similarity edges (pairs of nodes within Epsilon), and the
// connected-component modules the edges imply.
//
// The network is its index. An Index sorts the node values once per stage;
// a node's edges are the ranks of its value window, so the edge set is
// never listed. Scatter/gather shape: rank ranges are the scatter unit.
// Index.Pairs counts the edges whose lower-ranked end lies in a range, in
// one sweep of the range, and the counts of consecutive ranges sum to the
// edge count. Modules come from the Index too: they are the maximal runs
// of rank-adjacent values within Epsilon.
//
// Determinism guarantee: generation is seeded, the count and the modules
// are pure functions of the node values, and modules list members
// ascending and modules by first member — so any cut into rank ranges
// gives the same network (proven by the package's tests against a
// brute-force pairwise scan).
package network
