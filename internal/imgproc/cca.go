package imgproc

import (
	"sort"

	"ebbiot/internal/geometry"
)

// Component is one 8-connected region of set pixels found by
// ConnectedComponents.
type Component struct {
	// Box is the tight bounding box of the component.
	Box geometry.Box
	// Size is the number of pixels in the component.
	Size int
}

// ConnectedComponents labels the 8-connected regions of set pixels and
// returns one Component per region, largest first. This is the classical
// CCA region detector the paper cites as the general alternative to its
// histogram-based proposal scheme (and names as future work); it serves as
// the RPN baseline in the ablation benchmarks.
//
// The implementation is a two-pass union-find over rows, the standard
// embedded-friendly formulation.
func ConnectedComponents(b *Bitmap) []Component {
	if b.W == 0 || b.H == 0 {
		return nil
	}
	labels := make([]int32, b.W*b.H)
	parent := make([]int32, 1, 64) // parent[0] unused; labels start at 1
	parent[0] = 0

	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}

	// First pass: provisional labels with 8-connectivity (check W, NW, N, NE).
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			if b.Pix[y*b.W+x] == 0 {
				continue
			}
			var neighbor int32
			check := func(nx, ny int) {
				if nx < 0 || nx >= b.W || ny < 0 {
					return
				}
				l := labels[ny*b.W+nx]
				if l == 0 {
					return
				}
				if neighbor == 0 {
					neighbor = l
				} else if l != neighbor {
					union(neighbor, l)
				}
			}
			check(x-1, y)
			check(x-1, y-1)
			check(x, y-1)
			check(x+1, y-1)
			if neighbor == 0 {
				label := int32(len(parent))
				parent = append(parent, label)
				labels[y*b.W+x] = label
			} else {
				labels[y*b.W+x] = neighbor
			}
		}
	}

	// Second pass: resolve labels and accumulate bounding boxes.
	type acc struct {
		minX, minY, maxX, maxY int
		size                   int
	}
	regions := map[int32]*acc{}
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			l := labels[y*b.W+x]
			if l == 0 {
				continue
			}
			root := find(l)
			a := regions[root]
			if a == nil {
				a = &acc{minX: x, minY: y, maxX: x, maxY: y}
				regions[root] = a
			}
			a.size++
			if x < a.minX {
				a.minX = x
			}
			if x > a.maxX {
				a.maxX = x
			}
			if y < a.minY {
				a.minY = y
			}
			if y > a.maxY {
				a.maxY = y
			}
		}
	}

	out := make([]Component, 0, len(regions))
	for _, a := range regions {
		out = append(out, Component{
			Box:  geometry.NewBox(a.minX, a.minY, a.maxX-a.minX+1, a.maxY-a.minY+1),
			Size: a.size,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Size != out[j].Size {
			return out[i].Size > out[j].Size
		}
		if out[i].Box.X != out[j].Box.X {
			return out[i].Box.X < out[j].Box.X
		}
		return out[i].Box.Y < out[j].Box.Y
	})
	return out
}

// Dilate returns the morphological dilation of b by a square structuring
// element of radius r (so a (2r+1) x (2r+1) square). Used by the CCA-based
// RPN baseline to close small gaps before labelling.
func Dilate(b *Bitmap, r int) *Bitmap {
	out := NewBitmap(b.W, b.H)
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			if b.Pix[y*b.W+x] == 0 {
				continue
			}
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					out.Set(x+dx, y+dy)
				}
			}
		}
	}
	return out
}
