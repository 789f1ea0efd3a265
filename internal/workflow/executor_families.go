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
// tool family needs — spectrum shards for database search, image tiles for
// segmentation, rank ranges for the network's edge count — and the
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
	db, cfg := in.PeptideDB, proteome.Config{}
	key := struct {
		peptides any
		cfg      proteome.Config
	}{keyOf(db.Peptides), cfg}
	index := env.engine.peptideIndexes.get(key, func() (*proteome.Index, error) { return proteome.NewIndex(db, cfg), nil })
	return &spectralStream{env: env, in: in, quantify: e.quantify, index: index}, true, nil
}

type spectralStream struct {
	env      *StageEnv
	in       *Dataset
	quantify bool
	index    func() (*proteome.Index, error)
}

func (s *spectralStream) Split() ([]StreamShard, error) {
	per, err := s.env.RecordShardSize(len(s.in.Spectra))
	if err != nil {
		return nil, err
	}
	chunks, err := shard.Chunk(s.in.Spectra, per)
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

// tileShard is the imaging Profile stage's per-shard input payload: which
// frame to segment and the tile of it the shard owns. It never crosses the
// fleet wire: a worker re-Splits the stage's context dataset, which holds
// the pixels.
type tileShard struct {
	Img  int
	Tile imaging.Tile
}

// cellProfileExecutor implements the imaging Profile stage: scatter every
// frame into tiles that partition it, segment tiles on the pool — each
// cell is reported by the tile holding its first pixel, however far it
// reaches — and gather per-cell features into one FeatureTable row per
// detected cell. The tile count only splits work: every tiling returns the
// whole-frame cells.
type cellProfileExecutor struct{}

// Stream implements streamer.
func (cellProfileExecutor) Stream(env *StageEnv, in *Dataset) (StageStream, bool, error) {
	return &cellStream{env: env, in: in}, true, nil
}

type cellStream struct {
	env   *StageEnv
	in    *Dataset
	units []tileShard
}

func (s *cellStream) Split() ([]StreamShard, error) {
	tilesPerImage := s.env.RegionCount()
	for i := range s.in.Images {
		im := &s.in.Images[i]
		for _, t := range imaging.TileGrid(im.W, im.H, tilesPerImage) {
			s.units = append(s.units, tileShard{Img: i, Tile: t})
		}
	}
	shards := make([]StreamShard, len(s.units))
	for i, u := range s.units {
		// A tile reads its own pixels once, so telemetry records them as
		// the shard's input size.
		t := u.Tile
		shards[i] = StreamShard{Records: (t.X1 - t.X0) * (t.Y1 - t.Y0), Data: u}
	}
	return shards, nil
}

func (s *cellStream) Transform(ctx context.Context, _ int, in StreamShard) (StreamShard, error) {
	if err := ctx.Err(); err != nil {
		return StreamShard{}, err
	}
	u := in.Data.(tileShard)
	regions := imaging.SegmentTile(&s.in.Images[u.Img], u.Tile, imaging.SegConfig{})
	return StreamShard{Records: in.Records, Data: regions}, nil
}

func (s *cellStream) Gather(shards []StreamShard) (*Dataset, error) {
	tiles, err := shardData[[]imaging.Region](shards)
	if err != nil {
		return nil, err
	}
	var features []Feature
	for i := range s.in.Images {
		var regions []imaging.Region
		for j, u := range s.units {
			if u.Img == i {
				regions = append(regions, tiles[j]...)
			}
		}
		imaging.SortRegions(regions) // canonical order regardless of tiling
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

// rankRange is the Integrate stage's per-shard input payload: a half-open
// range [Lo, Hi) of sorted-index ranks whose edges the shard counts.
// Workers rebuild the node list and re-Split it from the stage's context
// dataset.
type rankRange struct {
	Lo, Hi int
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
	per, err := s.env.RecordShardSize(len(s.nodes))
	if err != nil {
		return nil, err
	}
	plan, err := shard.PlanByRecords(len(s.nodes), per)
	if err != nil {
		return nil, err
	}
	s.index = network.NewIndex(s.nodes, network.Config{})
	shards := make([]StreamShard, plan.NumShards)
	for i := range shards {
		lo, hi := plan.Bounds(i)
		shards[i] = StreamShard{Records: hi - lo, Data: rankRange{lo, hi}}
	}
	return shards, nil
}

// Transform counts the edges whose lower-ranked end lies in the shard's
// range, one sweep of the range.
func (s *integrateStream) Transform(ctx context.Context, _ int, in StreamShard) (StreamShard, error) {
	if err := ctx.Err(); err != nil {
		return StreamShard{}, err
	}
	r := in.Data.(rankRange)
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
