package imaging

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// DefaultMinRadius and DefaultMaxRadius bound simulated cell radii in
// pixels.
const (
	DefaultMinRadius = 3
	DefaultMaxRadius = 6
)

// Image is one grayscale microscopy frame: row-major intensities in [0,1].
type Image struct {
	ID   string
	W, H int
	Pix  []float64
}

// Cell is one planted ground-truth cell.
type Cell struct {
	X, Y      int // center
	R         int // radius
	Intensity float64
}

// SimConfig controls image generation.
type SimConfig struct {
	// W, H are the frame dimensions in pixels (default 128×128).
	W, H int
	// Cells is the number of planted cells.
	Cells int
}

// backgroundNoise is a generated frame's background intensity ceiling,
// below the default segmentation threshold so background never segments.
const backgroundNoise = 0.3

// Generate builds one synthetic frame: uniform background noise with Cells
// bright disks planted at mutually separated positions, so thresholding
// recovers exactly the planted count. Cell centers keep at least one
// diameter of clearance from each other and from the frame border;
// generation fails if the frame is too small to place them all.
func Generate(rng *rand.Rand, id string, cfg SimConfig) (Image, []Cell, error) {
	if cfg.W <= 0 {
		cfg.W = 128
	}
	if cfg.H <= 0 {
		cfg.H = 128
	}
	if cfg.Cells < 0 {
		return Image{}, nil, fmt.Errorf("imaging: negative cell count %d", cfg.Cells)
	}
	im := Image{ID: id, W: cfg.W, H: cfg.H, Pix: make([]float64, cfg.W*cfg.H)}
	for i := range im.Pix {
		im.Pix[i] = rng.Float64() * backgroundNoise
	}
	margin := DefaultMaxRadius + 2
	if cfg.Cells > 0 && (cfg.W <= 2*margin || cfg.H <= 2*margin) {
		return Image{}, nil, fmt.Errorf("imaging: %dx%d frame too small for cells (need > %d per side)",
			cfg.W, cfg.H, 2*margin)
	}
	minSep := 2*DefaultMaxRadius + 3 // disjoint components under 4-connectivity
	cells := make([]Cell, 0, cfg.Cells)
	const maxTries = 10000
	for len(cells) < cfg.Cells {
		placed := false
		for try := 0; try < maxTries; try++ {
			x := margin + rng.Intn(cfg.W-2*margin)
			y := margin + rng.Intn(cfg.H-2*margin)
			ok := true
			for _, c := range cells {
				dx, dy := float64(x-c.X), float64(y-c.Y)
				if math.Hypot(dx, dy) < float64(minSep) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			r := DefaultMinRadius + rng.Intn(DefaultMaxRadius-DefaultMinRadius+1)
			cell := Cell{X: x, Y: y, R: r, Intensity: 0.7 + 0.25*rng.Float64()}
			for py := y - r; py <= y+r; py++ {
				for px := x - r; px <= x+r; px++ {
					dx, dy := float64(px-x), float64(py-y)
					if dx*dx+dy*dy <= float64(r*r) {
						im.Pix[py*im.W+px] = cell.Intensity
					}
				}
			}
			cells = append(cells, cell)
			placed = true
			break
		}
		if !placed {
			return Image{}, nil, fmt.Errorf("imaging: cannot place %d separated cells in %dx%d",
				cfg.Cells, cfg.W, cfg.H)
		}
	}
	return im, cells, nil
}

// Tile is one scatter unit: the half-open pixel rectangle [X0,X1)×[Y0,Y1)
// of a frame.
type Tile struct {
	X0, Y0, X1, Y1 int
}

// Region is one segmented connected component — a detected cell.
type Region struct {
	// Area is the component's pixel count.
	Area int
	// CX, CY is the intensity-unweighted centroid.
	CX, CY float64
	// Mean is the mean intensity over the component.
	Mean float64
	// Bounding box (inclusive).
	MinX, MinY, MaxX, MaxY int
}

// SegConfig controls segmentation.
type SegConfig struct {
	// Threshold separates cells from background (default 0.5: above the
	// default noise ceiling, below the cell intensity floor).
	Threshold float64
	// MinArea drops components smaller than this many pixels (default 4).
	MinArea int
}

func (c SegConfig) withDefaults() SegConfig {
	if c.Threshold <= 0 {
		c.Threshold = 0.5
	}
	if c.MinArea <= 0 {
		c.MinArea = 4
	}
	return c
}

// SegmentTile extracts the 4-connected foreground components whose first
// pixel in row-major frame order lies in the tile, in frame coordinates.
// A pixel is foreground iff its intensity is >= the threshold, so a NaN
// pixel is background. The tile reads its own rows once; a component that
// starts in the tile is flood-filled across the whole frame, so every
// tiling of a frame yields exactly the whole-frame region set, each
// region once, from the tile holding its first pixel.
//
// A background pixel costs one compare. A foreground pixel with a
// foreground left or upper neighbour is never a first pixel and starts no
// flood. Any other unvisited foreground pixel starts one, and the tile
// keeps the component iff the flood's least frame index is that start
// pixel. The visited bitmap spans the frame, so a tile floods each
// component at most once: a frame's segmentation costs at most one frame
// of flood work per tile, and the whole frame once when the components
// are tile-sized or smaller.
func SegmentTile(im *Image, t Tile, cfg SegConfig) []Region {
	cfg = cfg.withDefaults()
	w, thr := im.W, cfg.Threshold
	var (
		regions []Region
		f       *flood
	)
	for y := t.Y0; y < t.Y1; y++ {
		for i, v := range im.Pix[y*w+t.X0 : y*w+t.X1] {
			if !(v >= thr) {
				continue
			}
			x := t.X0 + i
			start := y*w + x
			if (x > 0 && im.Pix[start-1] >= thr) || (y > 0 && im.Pix[start-w] >= thr) {
				continue
			}
			if f == nil {
				f = &flood{im: im, thr: thr, visited: make([]uint64, (len(im.Pix)+63)/64)}
			} else if f.seen(start) {
				continue
			}
			if reg, first := f.fill(start); first == start && reg.Area >= cfg.MinArea {
				regions = append(regions, reg)
			}
		}
	}
	sortRegions(regions)
	return regions
}

// flood is one tile's flood-fill state: the frame, the threshold, a
// frame-wide visited bitmap and the reused DFS stack of frame indices.
type flood struct {
	im      *Image
	thr     float64
	visited []uint64
	stack   []int
}

// fill floods the unvisited component holding frame index start
// depth-first, neighbours in the order +x, −x, +y, −y, and returns its
// region and the component's least frame index.
func (f *flood) fill(start int) (Region, int) {
	w, h, pix := f.im.W, f.im.H, f.im.Pix
	sx, sy := start%w, start/w
	reg := Region{MinX: sx, MinY: sy, MaxX: sx, MaxY: sy}
	sumX, sumY, sumI := 0.0, 0.0, 0.0
	first := start
	f.visit(start)
	for len(f.stack) > 0 {
		idx := f.stack[len(f.stack)-1]
		f.stack = f.stack[:len(f.stack)-1]
		x, y := idx%w, idx/w
		first = min(first, idx)
		reg.Area++
		sumX += float64(x)
		sumY += float64(y)
		sumI += pix[idx]
		reg.MinX, reg.MaxX = min(reg.MinX, x), max(reg.MaxX, x)
		reg.MinY, reg.MaxY = min(reg.MinY, y), max(reg.MaxY, y)
		if x+1 < w {
			f.visit(idx + 1)
		}
		if x > 0 {
			f.visit(idx - 1)
		}
		if y+1 < h {
			f.visit(idx + w)
		}
		if y > 0 {
			f.visit(idx - w)
		}
	}
	reg.CX = sumX / float64(reg.Area)
	reg.CY = sumY / float64(reg.Area)
	reg.Mean = sumI / float64(reg.Area)
	return reg, first
}

func (f *flood) seen(idx int) bool { return f.visited[idx>>6]&(1<<(idx&63)) != 0 }

// visit marks and queues frame index idx if it is unvisited foreground.
func (f *flood) visit(idx int) {
	if !f.seen(idx) && f.im.Pix[idx] >= f.thr {
		f.visited[idx>>6] |= 1 << (idx & 63)
		f.stack = append(f.stack, idx)
	}
}

// Segment runs single-tile segmentation over the whole frame.
func Segment(im *Image, cfg SegConfig) []Region {
	return SegmentTile(im, Tile{X1: im.W, Y1: im.H}, cfg)
}

// sortRegions orders regions by centroid (row-major), the deterministic
// gather order regardless of tiling.
func sortRegions(rs []Region) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].CY != rs[j].CY {
			return rs[i].CY < rs[j].CY
		}
		return rs[i].CX < rs[j].CX
	})
}

// SortRegions exposes the canonical region order for gathers that merge
// per-tile outputs.
func SortRegions(rs []Region) { sortRegions(rs) }
