package imaging

import (
	"math"
	"math/rand"
	"testing"
)

// oracleHalo is the halo width the replaced segmentation read around each
// tile: one full cell diameter plus margin.
const oracleHalo = 2*DefaultMaxRadius + 2

// haloSegmentTile is the segmentation SegmentTile replaced, kept as the
// oracle: it thresholds the tile widened by oracleHalo (clipped to the
// frame) into a window-sized visited set, flood-fills 4-connected
// components inside the window only, and keeps the regions whose centroid
// lies in the tile. It is exact only while every component fits in the
// halo; a NaN pixel can start a flood there but never join one.
func haloSegmentTile(im *Image, core Tile, cfg SegConfig) []Region {
	cfg = cfg.withDefaults()
	halo := Tile{
		X0: max(0, core.X0-oracleHalo), Y0: max(0, core.Y0-oracleHalo),
		X1: min(im.W, core.X1+oracleHalo), Y1: min(im.H, core.Y1+oracleHalo),
	}
	w := halo.X1 - halo.X0
	h := halo.Y1 - halo.Y0
	if w <= 0 || h <= 0 {
		return nil
	}
	visited := make([]bool, w*h)
	var regions []Region
	var stack []int
	for start := 0; start < w*h; start++ {
		sx, sy := halo.X0+start%w, halo.Y0+start/w
		if visited[start] || im.Pix[sy*im.W+sx] < cfg.Threshold {
			continue
		}
		reg := Region{MinX: sx, MinY: sy, MaxX: sx, MaxY: sy}
		sumX, sumY, sumI := 0.0, 0.0, 0.0
		visited[start] = true
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			idx := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x, y := halo.X0+idx%w, halo.Y0+idx/w
			reg.Area++
			sumX += float64(x)
			sumY += float64(y)
			sumI += im.Pix[y*im.W+x]
			reg.MinX, reg.MaxX = min(reg.MinX, x), max(reg.MaxX, x)
			reg.MinY, reg.MaxY = min(reg.MinY, y), max(reg.MaxY, y)
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < halo.X0 || nx >= halo.X1 || ny < halo.Y0 || ny >= halo.Y1 {
					continue
				}
				nidx := (ny-halo.Y0)*w + (nx - halo.X0)
				if !visited[nidx] && im.Pix[ny*im.W+nx] >= cfg.Threshold {
					visited[nidx] = true
					stack = append(stack, nidx)
				}
			}
		}
		if reg.Area < cfg.MinArea {
			continue
		}
		reg.CX = sumX / float64(reg.Area)
		reg.CY = sumY / float64(reg.Area)
		reg.Mean = sumI / float64(reg.Area)
		if reg.CX >= float64(core.X0) && reg.CX < float64(core.X1) &&
			reg.CY >= float64(core.Y0) && reg.CY < float64(core.Y1) {
			regions = append(regions, reg)
		}
	}
	sortRegions(regions)
	return regions
}

// segmentTiles segments every tile with seg and gathers the regions in
// canonical order.
func segmentTiles(im *Image, tiles []Tile, seg func(*Image, Tile, SegConfig) []Region) []Region {
	var out []Region
	for _, t := range tiles {
		out = append(out, seg(im, t, SegConfig{})...)
	}
	SortRegions(out)
	return out
}

// rowTiles is the one-tile-per-row grid.
func rowTiles(im *Image) []Tile {
	tiles := make([]Tile, im.H)
	for y := range tiles {
		tiles[y] = Tile{X0: 0, Y0: y, X1: im.W, Y1: y + 1}
	}
	return tiles
}

// bandTiles cuts the frame into full-width bands, a new band starting at
// every row y whose bit is set in cuts — the row ranges a Profile shard
// segments.
func bandTiles(im *Image, cuts uint64) []Tile {
	var tiles []Tile
	y0 := 0
	for y := 1; y <= im.H; y++ {
		if y == im.H || cuts&(1<<y) != 0 {
			tiles = append(tiles, Tile{X0: 0, Y0: y0, X1: im.W, Y1: y})
			y0 = y
		}
	}
	return tiles
}

// sameRegions compares region lists bit for bit, so equal NaN fields
// compare equal and a −0 differs from a +0.
func sameRegions(a, b []Region) bool {
	if len(a) != len(b) {
		return false
	}
	bits := math.Float64bits
	for i := range a {
		x, y := a[i], b[i]
		if x.Area != y.Area || x.MinX != y.MinX || x.MinY != y.MinY || x.MaxX != y.MaxX || x.MaxY != y.MaxY ||
			bits(x.CX) != bits(y.CX) || bits(x.CY) != bits(y.CY) || bits(x.Mean) != bits(y.Mean) {
			return false
		}
	}
	return true
}

// TestSegmentTileMatchesHaloScan: on frames of separated cells, which the
// halo scan segments exactly, the row-pass segmentation returns the halo
// scan's regions under every tiling from 1 to 16 tiles and one tile per
// row.
func TestSegmentTileMatchesHaloScan(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w, h := 40+rng.Intn(160), 40+rng.Intn(160)
		im, _, err := Generate(rng, "img", SimConfig{W: w, H: h, Cells: 1 + w*h/1500})
		if err != nil {
			t.Fatal(err)
		}
		grids := [][]Tile{rowTiles(&im)}
		for tiles := 1; tiles <= 16; tiles++ {
			grids = append(grids, tileGrid(im.W, im.H, tiles))
		}
		for _, grid := range grids {
			want := segmentTiles(&im, grid, haloSegmentTile)
			got := segmentTiles(&im, grid, SegmentTile)
			if len(want) == 0 || !sameRegions(got, want) {
				t.Fatalf("seed %d, %dx%d in %d tiles: regions\n%+v\nhalo scan\n%+v", seed, w, h, len(grid), got, want)
			}
		}
	}
}

// TestWideComponentSegmentsOnce: a bright square wider than any tile is one
// cell of its full area under every tiling — the halo scan split it into
// one piece per tile and counted overlapping pieces twice.
func TestWideComponentSegmentsOnce(t *testing.T) {
	im := Image{ID: "square", W: 128, H: 128, Pix: make([]float64, 128*128)}
	for y := 29; y < 99; y++ {
		for x := 29; x < 99; x++ {
			im.Pix[y*im.W+x] = 0.9
		}
	}
	for _, tiles := range []int{1, 2, 4, 9, 16} {
		got := segmentTiles(&im, tileGrid(im.W, im.H, tiles), SegmentTile)
		if len(got) != 1 || got[0].Area != 70*70 {
			t.Fatalf("%d tiles: %+v, want one 4900-pixel region", tiles, got)
		}
	}
}

// fuzzValues are the intensities a fuzz byte selects: the threshold
// itself, values on either side of it, signed zeros, infinities and NaN.
var fuzzValues = [...]float64{
	0, 0.1, 0.5, 0.9, 1, math.Nextafter(0.5, 0), math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1), math.NaN(), 0.7, 2,
}

// FuzzSegmentTile: on any frame, every tiling (a near-square grid of any
// count, full-width bands cut at any rows, or one tile per row) returns
// the whole-frame regions bit for bit, and on a NaN-free frame the
// whole-frame regions are the halo scan's.
func FuzzSegmentTile(f *testing.F) {
	f.Add(uint8(8), uint8(4), uint64(0b100), []byte{3, 3, 3, 0, 3, 3, 3, 0, 9, 3, 0, 0, 2, 2, 2, 2, 3, 3, 3, 3, 6, 7, 8, 9})
	f.Add(uint8(5), uint8(2), uint64(0b1010), []byte{4, 4, 4, 4, 4, 0, 0, 0, 0, 4, 4, 4, 4, 0, 4, 4, 0, 4, 4, 4, 4, 0, 0, 0, 0})
	f.Add(uint8(3), uint8(9), uint64(0), []byte{9, 3, 3, 3, 9, 3, 2, 5, 2})
	f.Fuzz(func(t *testing.T, width, tiles uint8, cuts uint64, px []byte) {
		w := 1 + int(width)%64
		h := (len(px) + w - 1) / w
		if h == 0 || h > 64 {
			return
		}
		im := Image{W: w, H: h, Pix: make([]float64, w*h)}
		nan := false
		for i := range im.Pix {
			if i < len(px) {
				im.Pix[i] = fuzzValues[int(px[i])%len(fuzzValues)]
			}
			nan = nan || math.IsNaN(im.Pix[i])
		}
		want := Segment(&im, SegConfig{})
		for _, grid := range [][]Tile{tileGrid(w, h, 1+int(tiles)%24), bandTiles(&im, cuts), rowTiles(&im)} {
			if got := segmentTiles(&im, grid, SegmentTile); !sameRegions(got, want) {
				t.Fatalf("%dx%d in %d tiles: %+v, whole frame %+v", w, h, len(grid), got, want)
			}
		}
		if !nan {
			if oracle := haloSegmentTile(&im, Tile{X1: w, Y1: h}, SegConfig{}); !sameRegions(want, oracle) {
				t.Fatalf("%dx%d: whole frame %+v, halo scan %+v", w, h, want, oracle)
			}
		}
	})
}

// BenchmarkSegmentFrame segments one 512² frame of 12 cells in two tiles,
// the shape of a benchmark imaging job, with the row-pass kernel and with
// the halo-scan oracle it replaced.
func BenchmarkSegmentFrame(b *testing.B) {
	im, _, err := Generate(rand.New(rand.NewSource(3)), "img", SimConfig{W: 512, H: 512, Cells: 12})
	if err != nil {
		b.Fatal(err)
	}
	grid := tileGrid(im.W, im.H, 2)
	for _, bc := range []struct {
		name string
		seg  func(*Image, Tile, SegConfig) []Region
	}{{"kernel=rows", SegmentTile}, {"kernel=halo-oracle", haloSegmentTile}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				n += len(segmentTiles(&im, grid, bc.seg))
			}
			if n != 12*b.N {
				b.Fatalf("%d regions over %d frames, want 12 each", n, b.N)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(im.Pix)), "ns/pixel")
		})
	}
}
