// Package shard implements SCAN's Data Sharders: record-boundary-aware
// splitting and merging, so a large input can be fanned out to parallel
// analysis subtasks and the per-shard outputs gathered back (the paper's
// example: divide a 100 GB FASTQ file into 25 4 GB files and create 25
// subtasks; merge small files for gather stages such as VariantsToVCF).
// The split is in memory, with no intermediate files: Chunk splits record
// sets, and Regions with SliceByRegion scatter coordinate-sorted
// alignments by locus, each region's shard a run of them.
//
// The shard size itself is chosen by the knowledge base (package
// knowledge); this package is the mechanical layer.
package shard

import (
	"errors"
	"fmt"
)

// ErrBadShardSize is returned for non-positive shard sizing parameters.
var ErrBadShardSize = errors.New("shard: shard size must be positive")

// Plan describes how one input will be fragmented.
type Plan struct {
	TotalRecords    int
	RecordsPerShard int
	NumShards       int
}

// PlanByRecords sizes shards at recordsPerShard records each.
func PlanByRecords(totalRecords, recordsPerShard int) (Plan, error) {
	if recordsPerShard <= 0 {
		return Plan{}, ErrBadShardSize
	}
	if totalRecords < 0 {
		return Plan{}, fmt.Errorf("shard: negative record count %d", totalRecords)
	}
	n := (totalRecords + recordsPerShard - 1) / recordsPerShard
	if n == 0 {
		n = 1
	}
	return Plan{TotalRecords: totalRecords, RecordsPerShard: recordsPerShard, NumShards: n}, nil
}

// PlanByShards divides totalRecords into at most numShards near-equal
// shards of ⌈total/numShards⌉ records. NumShards is the count those shards
// actually take — what Chunk produces — which can be fewer than asked
// (9 records over 4 shards is 3 shards of 3) and is 1 for an empty input.
func PlanByShards(totalRecords, numShards int) (Plan, error) {
	if numShards <= 0 {
		return Plan{}, ErrBadShardSize
	}
	return PlanByRecords(totalRecords, max((totalRecords+numShards-1)/numShards, 1))
}

// Bounds returns the [start, end) record range of shard i under the plan.
func (p Plan) Bounds(i int) (start, end int) {
	start = i * p.RecordsPerShard
	end = start + p.RecordsPerShard
	if end > p.TotalRecords {
		end = p.TotalRecords
	}
	if start > p.TotalRecords {
		start = p.TotalRecords
	}
	return start, end
}

// Chunk splits an in-memory record set into shards of at most maxPerShard
// records, preserving order; the last shard may be smaller. An empty input
// yields one empty shard, so scatter loops always have at least one unit.
// Shards alias the input slice — no records are copied.
func Chunk[T any](records []T, maxPerShard int) ([][]T, error) {
	if maxPerShard <= 0 {
		return nil, ErrBadShardSize
	}
	var out [][]T
	for start := 0; start < len(records); start += maxPerShard {
		end := start + maxPerShard
		if end > len(records) {
			end = len(records)
		}
		out = append(out, records[start:end])
	}
	if out == nil {
		out = [][]T{{}}
	}
	return out, nil
}
