package shard

import (
	"fmt"
	"io"

	"scan/internal/genomics"
)

// MergeSBAM gathers SBAM shards into one coordinate-sorted container. All
// shards must agree on the reference dictionary. A shard is a file, not a
// promise, so each is sorted before the merge.
func MergeSBAM(w io.Writer, inputs ...io.Reader) (int, error) {
	var header genomics.Header
	var groups [][]genomics.Alignment
	for i, in := range inputs {
		h, alns, err := genomics.ReadSBAM(in)
		if err != nil {
			return 0, fmt.Errorf("shard: reading SBAM shard %d: %w", i, err)
		}
		if i == 0 {
			header = h
		} else if !sameRefs(header.Refs, h.Refs) {
			return 0, fmt.Errorf("shard: SBAM shard %d has a different reference dictionary", i)
		}
		genomics.SortAlignments(alns)
		groups = append(groups, alns)
	}
	merged := genomics.MergeSorted(groups...)
	header.SortOrder = "coordinate"
	if err := genomics.WriteSBAM(w, header, merged); err != nil {
		return 0, err
	}
	return len(merged), nil
}

// MergeVCF gathers per-shard VCF call sets into one sorted, deduplicated
// document — the paper's VariantsToVCF-style merge task.
func MergeVCF(w io.Writer, source string, inputs ...io.Reader) (int, error) {
	var groups [][]genomics.Variant
	for i, in := range inputs {
		vars, err := genomics.ReadVCF(in)
		if err != nil {
			return 0, fmt.Errorf("shard: reading VCF shard %d: %w", i, err)
		}
		groups = append(groups, vars)
	}
	merged := genomics.MergeVariants(groups...)
	if err := genomics.WriteVCF(w, source, merged); err != nil {
		return 0, err
	}
	return len(merged), nil
}

func sameRefs(a, b []genomics.RefInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
