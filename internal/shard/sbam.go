package shard

import (
	"fmt"
	"io"

	"scan/internal/genomics"
)

// SplitSBAM fragments an SBAM stream into shards of at most recordsPerShard
// alignments. The header (reference dictionary) is replicated into every
// shard so each subtask is self-contained, mirroring how BAM scatter tools
// behave. Returns the shard count and total records.
func SplitSBAM(r io.Reader, recordsPerShard int, newShard func(int) (io.Writer, error)) (shards, total int, err error) {
	if recordsPerShard <= 0 {
		return 0, 0, ErrBadShardSize
	}
	h, alns, err := genomics.ReadSBAM(r)
	if err != nil {
		return 0, 0, err
	}
	chunks, err := ChunkAlignments(alns, recordsPerShard)
	if err != nil {
		return 0, 0, err
	}
	for i, chunk := range chunks {
		w, err := newShard(i)
		if err != nil {
			return shards, total, err
		}
		if err := genomics.WriteSBAM(w, h, chunk); err != nil {
			return shards, total, err
		}
		shards++
		total += len(chunk)
	}
	return shards, total, nil
}

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

// MergeSAM gathers SAM text shards into one coordinate-sorted document,
// sorting each shard before the merge as MergeSBAM does.
func MergeSAM(w io.Writer, inputs ...io.Reader) (int, error) {
	var header genomics.Header
	var groups [][]genomics.Alignment
	for i, in := range inputs {
		h, alns, err := genomics.ReadSAM(in)
		if err != nil {
			return 0, fmt.Errorf("shard: reading SAM shard %d: %w", i, err)
		}
		if i == 0 {
			header = h
		} else if !sameRefs(header.Refs, h.Refs) {
			return 0, fmt.Errorf("shard: SAM shard %d has a different reference dictionary", i)
		}
		genomics.SortAlignments(alns)
		groups = append(groups, alns)
	}
	merged := genomics.MergeSorted(groups...)
	header.SortOrder = "coordinate"
	if err := genomics.WriteSAM(w, header, merged); err != nil {
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
