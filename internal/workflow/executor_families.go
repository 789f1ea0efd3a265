package workflow

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"scan/internal/imaging"
	"scan/internal/network"
	"scan/internal/proteome"
	"scan/internal/shard"
)

// This file binds the non-genomic data-process families of the paper's
// Figure 1 to the engine. Each executor owns the scatter/gather shape its
// tool family needs — spectrum shards for database search, frame-row bands
// for segmentation, rank ranges for the network's edge count — and the
// engine logs its shards under its tool name, so the Data Broker
// accumulates performance profiles for every family, not just the GATK
// chain.

// spectralSearchExecutor implements the proteomic stages (MaxQuant
// Quantify, GPM Search): scatter spectra into Data-Broker-sized shards,
// search each shard against the dataset's peptide database on the pool,
// and gather the per-shard matches into one sorted ProteinTable. In
// quantify mode the table carries summed match scores (label-free
// quantification); in search mode it carries identification counts only.
type spectralSearchExecutor struct{ quantify bool }

// Stream implements streamer. The fragment-ion index every shard shares,
// which also numbers the proteins Gather quantifies by, comes from the
// engine's memo: built by the first Transform of the first job over the
// peptide database, or by Gather on a fleet coordinator whose shards all
// ran remotely.
func (e spectralSearchExecutor) Stream(env *StageEnv, in *Dataset) (StageStream, bool, error) {
	if len(in.PeptideDB.Peptides) == 0 {
		return nil, false, errors.New("spectral search needs a peptide database")
	}
	db := in.PeptideDB
	index := env.engine.peptideIndexes.Get(keyOf(db.Peptides), func() (*proteome.Index, error) { return proteome.NewIndex(db, proteome.Config{}), nil })
	return &spectralStream{env: env, in: in, quantify: e.quantify, index: index}, true, nil
}

type spectralStream struct {
	env      *StageEnv
	in       *Dataset
	quantify bool
	index    func() (*proteome.Index, error)
}

func (s *spectralStream) Split() ([]StreamShard, error) {
	plan, err := s.env.ShardPlan(len(s.in.Spectra))
	if err != nil {
		return nil, err
	}
	chunks, err := shard.Chunk(s.in.Spectra, plan.RecordsPerShard)
	if err != nil {
		return nil, err
	}
	return chunkShards(chunks), nil
}

func (s *spectralStream) Transform(ctx context.Context, _ int, in StreamShard) (StreamShard, error) {
	index, err := s.index()
	if err != nil {
		return StreamShard{}, err
	}
	spectra := in.Data.([]proteome.Spectrum)
	ms := make([]proteome.Match, 0, len(spectra))
	var scratch proteome.Scratch
	for i, sp := range spectra {
		if i%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return StreamShard{}, err
			}
		}
		ms = append(ms, index.Search(sp, &scratch))
	}
	return StreamShard{Records: len(ms), Data: ms}, nil
}

// Gather quantifies the shards' matches in spectrum order, so the
// abundance sums do not depend on the plan.
func (s *spectralStream) Gather(shards []StreamShard) (*Dataset, error) {
	matches, err := shardData[[]proteome.Match](shards)
	if err != nil {
		return nil, err
	}
	index, err := s.index()
	if err != nil {
		return nil, err
	}
	quants := index.Quantify(slices.Concat(matches...))
	if !s.quantify {
		for i := range quants {
			quants[i].Abundance = 0
		}
	}
	out := *s.in
	out.Type = ProteinTable
	out.Spectra = nil // the caller's own input; release once consumed
	out.Proteins = quants
	return &out, nil
}

// recordRange is a per-shard input payload: the half-open range [Lo, Hi)
// of the stage's records (frame rows, sorted-index ranks) the shard owns.
// It never crosses the fleet wire: a worker re-Splits the stage's context
// dataset.
type recordRange struct {
	Lo, Hi int
}

// rangeShards makes one shard of each of the plan's record ranges.
func rangeShards(plan shard.Plan) []StreamShard {
	shards := make([]StreamShard, plan.NumShards)
	for i := range shards {
		lo, hi := plan.Bounds(i)
		shards[i] = StreamShard{Records: hi - lo, Data: recordRange{lo, hi}}
	}
	return shards
}

// cellProfileExecutor implements the imaging Profile stage: stack the
// frames' rows in order, cut them into the Data Broker's plan of equal row
// ranges, segment on the pool the full-width band of each frame a range
// crosses — each cell is reported by the band holding its first pixel,
// however far it reaches — and gather per-cell features into one
// FeatureTable row per detected cell. The plan only splits work: every
// cut returns the whole-frame cells.
type cellProfileExecutor struct{}

// Stream implements streamer.
func (cellProfileExecutor) Stream(env *StageEnv, in *Dataset) (StageStream, bool, error) {
	return &cellStream{env: env, in: in}, true, nil
}

type cellStream struct {
	env  *StageEnv
	in   *Dataset
	plan shard.Plan
	// first[i] is frame i's first row in the stack; first[len(Images)]
	// is the stack's height.
	first []int
}

// Split plans the stacked frame rows: a record is one row.
func (s *cellStream) Split() ([]StreamShard, error) {
	s.first = make([]int, len(s.in.Images)+1)
	for i, im := range s.in.Images {
		s.first[i+1] = s.first[i] + im.H
	}
	plan, err := s.env.ShardPlan(s.first[len(s.in.Images)])
	if err != nil {
		return nil, err
	}
	s.plan = plan
	return rangeShards(plan), nil
}

// band is one frame's share of a row range: its full-width rows.
type band struct {
	img  int
	tile imaging.Tile
}

// bands returns the full-width band of each frame that shard i's stacked
// rows cross, in frame order.
func (s *cellStream) bands(i int) []band {
	var out []band
	start, end := s.plan.Bounds(i)
	for f := range s.in.Images {
		if lo, hi := max(start, s.first[f]), min(end, s.first[f+1]); lo < hi {
			out = append(out, band{f, imaging.Tile{X1: s.in.Images[f].W, Y0: lo - s.first[f], Y1: hi - s.first[f]}})
		}
	}
	return out
}

// Transform segments the shard's bands, one region list per band.
func (s *cellStream) Transform(ctx context.Context, i int, in StreamShard) (StreamShard, error) {
	bands := s.bands(i)
	regions := make([][]imaging.Region, len(bands))
	for j, b := range bands {
		if err := ctx.Err(); err != nil {
			return StreamShard{}, err
		}
		regions[j] = imaging.SegmentTile(&s.in.Images[b.img], b.tile, imaging.SegConfig{})
	}
	return StreamShard{Records: in.Records, Data: regions}, nil
}

// Gather concatenates each frame's bands' regions and sorts them, so the
// cells come back in one order whatever the cut.
func (s *cellStream) Gather(shards []StreamShard) (*Dataset, error) {
	outs, err := shardData[[][]imaging.Region](shards)
	if err != nil {
		return nil, err
	}
	perFrame := make([][]imaging.Region, len(s.in.Images))
	for i := range shards {
		bands := s.bands(i)
		if len(outs[i]) != len(bands) {
			return nil, fmt.Errorf("workflow: shard %d returned %d region lists for %d frames", i, len(outs[i]), len(bands))
		}
		for j, b := range bands {
			perFrame[b.img] = append(perFrame[b.img], outs[i][j]...)
		}
	}
	var features []Feature
	for i, regions := range perFrame {
		imaging.SortRegions(regions) // canonical order regardless of the cut
		for n, r := range regions {
			features = append(features, Feature{
				Name:  fmt.Sprintf("%s:cell%03d", s.in.Images[i].ID, n),
				Count: r.Area,
				Value: r.Mean,
			})
		}
	}
	out := *s.in
	out.Type = FeatureTable
	out.Images = nil // the caller's own input; release once consumed
	out.Features = features
	return &out, nil
}

// integrateExecutor implements the integrative Integrate stage: treat each
// feature as a network node, sort the node values into an index once,
// scatter the edge count over the Data Broker's count of equal rank
// ranges on the pool, then sum the counts and take the modules as runs of
// rank-adjacent values in the index — the Cytoscape-style network build.
// No edge is ever listed: the index holds them all.
type integrateExecutor struct{}

// Stream implements streamer. Split builds the stage's index, so a
// shard's Transform, and the run log the engine makes of it, is its own
// count and nothing else.
func (integrateExecutor) Stream(env *StageEnv, in *Dataset) (StageStream, bool, error) {
	nodes := make([]network.Node, len(in.Features))
	for i, f := range in.Features {
		nodes[i] = network.Node{Name: f.Name, Value: f.Value}
	}
	return &integrateStream{env: env, in: in, nodes: nodes}, true, nil
}

type integrateStream struct {
	env   *StageEnv
	in    *Dataset
	nodes []network.Node
	index *network.Index
}

// Split sorts the nodes into the index and cuts the ranks into the
// broker's plan of equal record ranges: once the index is sorted, every
// rank costs the same to count.
func (s *integrateStream) Split() ([]StreamShard, error) {
	plan, err := s.env.ShardPlan(len(s.nodes))
	if err != nil {
		return nil, err
	}
	s.index = network.NewIndex(s.nodes, network.Config{})
	return rangeShards(plan), nil
}

// Transform counts the edges whose lower-ranked end lies in the shard's
// range, one sweep of the range.
func (s *integrateStream) Transform(ctx context.Context, _ int, in StreamShard) (StreamShard, error) {
	if err := ctx.Err(); err != nil {
		return StreamShard{}, err
	}
	r := in.Data.(recordRange)
	return StreamShard{Records: in.Records, Data: s.index.Pairs(r.Lo, r.Hi)}, nil
}

// Gather sums the ranges' counts into the edge count and reads the
// modules off the sorted index.
func (s *integrateStream) Gather(shards []StreamShard) (*Dataset, error) {
	counts, err := shardData[int](shards)
	if err != nil {
		return nil, err
	}
	edges := 0
	for _, c := range counts {
		edges += c
	}
	out := *s.in
	out.Type = Network
	out.Net = &network.Network{Nodes: s.nodes, Edges: edges, Modules: s.index.Modules()}
	return &out, nil
}
