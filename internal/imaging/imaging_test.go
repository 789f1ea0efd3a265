package imaging

import (
	"math"
	"math/rand"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	a, cellsA, err := Generate(rand.New(rand.NewSource(5)), "img", SimConfig{Cells: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, cellsB, err := Generate(rand.New(rand.NewSource(5)), "img", SimConfig{Cells: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(cellsA) != 6 || len(cellsB) != 6 {
		t.Fatalf("cells = %d, %d", len(cellsA), len(cellsB))
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatalf("pixel %d differs", i)
		}
	}
}

func TestSegmentRecoversPlantedCells(t *testing.T) {
	im, cells, err := Generate(rand.New(rand.NewSource(9)), "img", SimConfig{W: 160, H: 120, Cells: 8})
	if err != nil {
		t.Fatal(err)
	}
	regions := Segment(&im, SegConfig{})
	if len(regions) != len(cells) {
		t.Fatalf("segmented %d regions, planted %d cells", len(regions), len(cells))
	}
	for _, r := range regions {
		if r.Area < 9 { // a radius-3 disk covers ≥ 29 px; noise never segments
			t.Fatalf("implausible region %+v", r)
		}
		if r.Mean < 0.7 {
			t.Fatalf("region mean %v below cell intensity floor", r.Mean)
		}
	}
}

// TestTiledSegmentationMatchesWholeFrame is the tiling-correctness check:
// every tiling yields exactly the whole-frame region set — a cell across a
// tile boundary is counted once, by the tile holding its first pixel.
func TestTiledSegmentationMatchesWholeFrame(t *testing.T) {
	im, _, err := Generate(rand.New(rand.NewSource(21)), "img", SimConfig{W: 200, H: 140, Cells: 12})
	if err != nil {
		t.Fatal(err)
	}
	want := Segment(&im, SegConfig{})
	for _, tiles := range []int{2, 4, 9, 16} {
		grid := tileGrid(im.W, im.H, tiles)
		var got []Region
		for _, tile := range grid {
			got = append(got, SegmentTile(&im, tile, SegConfig{})...)
		}
		SortRegions(got)
		if len(got) != len(want) {
			t.Fatalf("%d tiles: %d regions, whole frame found %d", tiles, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%d tiles: region %d = %+v, whole frame %+v", tiles, i, got[i], want[i])
			}
		}
	}
}

func TestTileGridPartitionsFrame(t *testing.T) {
	for _, tc := range []struct{ w, h, tiles int }{
		{128, 128, 1}, {128, 128, 4}, {100, 60, 7}, {16, 16, 64},
	} {
		tiles := tileGrid(tc.w, tc.h, tc.tiles)
		if len(tiles) == 0 {
			t.Fatalf("%+v: no tiles", tc)
		}
		covered := make([]int, tc.w*tc.h)
		for _, c := range tiles {
			for y := c.Y0; y < c.Y1; y++ {
				for x := c.X0; x < c.X1; x++ {
					covered[y*tc.w+x]++
				}
			}
		}
		for i, n := range covered {
			if n != 1 {
				t.Fatalf("%+v: pixel %d covered %d times; tiles must partition the frame", tc, i, n)
			}
		}
	}
}

// tileGrid covers a w×h frame with approximately `tiles` tiles arranged in
// a near-square grid. At least one tile is returned for a non-empty frame,
// and the tiles partition the frame exactly.
func tileGrid(w, h, tiles int) []Tile {
	if tiles < 1 {
		tiles = 1
	}
	gx := int(math.Ceil(math.Sqrt(float64(tiles))))
	gy := (tiles + gx - 1) / gx
	if gx > w {
		gx = w
	}
	if gy > h {
		gy = h
	}
	out := make([]Tile, 0, gx*gy)
	for ty := 0; ty < gy; ty++ {
		y0, y1 := ty*h/gy, (ty+1)*h/gy
		for tx := 0; tx < gx; tx++ {
			out = append(out, Tile{X0: tx * w / gx, Y0: y0, X1: (tx + 1) * w / gx, Y1: y1})
		}
	}
	return out
}

func TestGenerateRejectsOvercrowdedFrame(t *testing.T) {
	// 32×32 cannot hold 50 separated cells.
	if _, _, err := Generate(rand.New(rand.NewSource(1)), "x", SimConfig{W: 32, H: 32, Cells: 50}); err == nil {
		t.Fatal("overcrowded frame accepted")
	}
}
