// Package vis renders EBBI frames, histograms and tracker boxes as ASCII
// art, reproducing the visual content of the paper's Fig. 3 without any
// graphics dependency.
package vis

import (
	"fmt"
	"strings"

	"ebbiot/internal/geometry"
	"ebbiot/internal/imgproc"
)

// ASCIIFrame renders the bitmap with optional boxes overlaid, downscaled by
// the given factor so a DAVIS frame fits a terminal (scale 4 gives 60x45
// characters). Box borders render as '+', set pixels as '#'.
func ASCIIFrame(b *imgproc.Bitmap, boxes []geometry.Box, scale int) string {
	if scale < 1 {
		scale = 1
	}
	w := (b.W + scale - 1) / scale
	h := (b.H + scale - 1) / scale
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(".", w))
	}
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			if b.Get(x, y) != 0 {
				grid[y/scale][x/scale] = '#'
			}
		}
	}
	mark := func(x, y int) {
		sx, sy := x/scale, y/scale
		if sx >= 0 && sx < w && sy >= 0 && sy < h {
			grid[sy][sx] = '+'
		}
	}
	for _, box := range boxes {
		for x := box.X; x < box.MaxX(); x++ {
			mark(x, box.Y)
			mark(x, box.MaxY()-1)
		}
		for y := box.Y; y < box.MaxY(); y++ {
			mark(box.X, y)
			mark(box.MaxX()-1, y)
		}
	}
	var sb strings.Builder
	sb.Grow((w + 1) * h)
	for y := h - 1; y >= 0; y-- { // row 0 at the bottom
		sb.Write(grid[y])
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ASCIIHistogram renders a histogram as horizontal bars, one row per bin
// group, for the Fig. 3 side panels.
func ASCIIHistogram(h []int, maxWidth int) string {
	if maxWidth < 1 {
		maxWidth = 40
	}
	peak := 0
	for _, v := range h {
		if v > peak {
			peak = v
		}
	}
	var sb strings.Builder
	for i, v := range h {
		bar := 0
		if peak > 0 {
			bar = v * maxWidth / peak
		}
		fmt.Fprintf(&sb, "%3d |%s %d\n", i, strings.Repeat("*", bar), v)
	}
	return sb.String()
}
