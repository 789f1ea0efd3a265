// Package imaging implements SCAN's microscopy substrate: a deterministic
// cell-segmentation and feature-extraction toolkit standing in for
// CellProfiler in the paper's Figure 1 microscopy path.
//
// Images are synthetic fluorescence fields — bright cell disks over a dim
// noise background — segmented by intensity thresholding and connected
// components, with per-cell features (area, centroid, mean intensity)
// extracted from each region.
//
// Scatter/gather shape: the image tile is the scatter unit; the workflow
// engine's Profile stage cuts each frame into full-width bands of rows.
// A tile reads only its own rows, once. A pixel is foreground iff its intensity is >= the threshold, so a
// NaN pixel is background. A cell belongs to the tile that holds its first
// pixel in row-major frame order, and that tile flood-fills it across the
// whole frame, however many tiles it spans — the 2-D form of keying a
// record by its location rather than by the worker that saw it. A tile
// floods each component at most once, so segmenting a frame costs at most
// one frame of flood work per tile. Per-tile region sets gather into one
// per-frame feature list.
//
// Determinism guarantee: generation is seeded (Generate regenerates
// identical frames from equal seeds), segmentation is a pure function of
// the pixels, and gathered regions are sorted into canonical order
// (SortRegions), so tiled and whole-frame segmentation of the same image
// produce identical region sets, bit for bit, however tiles partition the
// frame — proven by the package's tiled-equals-whole tests and FuzzSegmentTile,
// and relied on by the workflow engine's Profile stage.
package imaging
