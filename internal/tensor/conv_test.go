package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/stsl/stsl/internal/mathx"
)

func TestConvGeomOutputDims(t *testing.T) {
	cases := []struct {
		name       string
		g          ConvGeom
		outH, outW int
	}{
		{
			name: "same-pad 3x3 stride 1",
			g:    ConvGeom{Channels: 3, Height: 32, Width: 32, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
			outH: 32, outW: 32,
		},
		{
			name: "2x2 pool stride 2",
			g:    ConvGeom{Channels: 16, Height: 32, Width: 32, KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2},
			outH: 16, outW: 16,
		},
		{
			name: "valid 5x5",
			g:    ConvGeom{Channels: 1, Height: 28, Width: 28, KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1},
			outH: 24, outW: 24,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.g.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if got := tc.g.OutHeight(); got != tc.outH {
				t.Fatalf("OutHeight = %d, want %d", got, tc.outH)
			}
			if got := tc.g.OutWidth(); got != tc.outW {
				t.Fatalf("OutWidth = %d, want %d", got, tc.outW)
			}
		})
	}
}

func TestConvGeomValidateRejects(t *testing.T) {
	bad := []ConvGeom{
		{},
		{Channels: 1, Height: 4, Width: 4, KernelH: 0, KernelW: 3, StrideH: 1, StrideW: 1},
		{Channels: 1, Height: 4, Width: 4, KernelH: 3, KernelW: 3, StrideH: 0, StrideW: 1},
		{Channels: 1, Height: 4, Width: 4, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: -1},
		{Channels: 1, Height: 2, Width: 2, KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Fatalf("case %d: Validate accepted invalid geometry %+v", i, g)
		}
	}
}

// lower returns the K × N·P lowering of the batch x. The buffer starts
// as NaN, so an element im2col forgot to write shows.
func lower(x *Tensor, g ConvGeom) *Tensor {
	n := x.shape[0]
	ld := n * g.OutHeight() * g.OutWidth()
	cols := Full(math.NaN(), g.Channels*g.KernelH*g.KernelW, ld)
	im2col(cols.data, ld, x.data, g, 0, n)
	return cols
}

// raise is col2im of a whole K × N·P matrix into a fresh (N, C, H, W)
// gradient.
func raise(cols *Tensor, n int, g ConvGeom) *Tensor {
	dx := New(n, g.Channels, g.Height, g.Width)
	col2im(dx.data, cols.data, cols.shape[1], g, 0, n)
	return dx
}

// randomGeom draws a valid geometry with strides, padding and
// non-square kernels, or reports false.
func randomGeom(r *mathx.RNG) (ConvGeom, bool) {
	g := ConvGeom{
		Channels: 1 + r.Intn(3),
		Height:   3 + r.Intn(6),
		Width:    3 + r.Intn(6),
		KernelH:  1 + r.Intn(3),
		KernelW:  1 + r.Intn(3),
		StrideH:  1 + r.Intn(2),
		StrideW:  1 + r.Intn(2),
		PadH:     r.Intn(2),
		PadW:     r.Intn(2),
	}
	return g, g.Validate() == nil
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// A 1x1 kernel with stride 1 and no padding: the lowering is one row
	// holding the input pixels in order.
	x := FromSlice([]float64{
		1, 2,
		3, 4,
	}, 1, 1, 2, 2)
	g := ConvGeom{Channels: 1, Height: 2, Width: 2, KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}
	want := FromSlice([]float64{1, 2, 3, 4}, 1, 4)
	if cols := lower(x, g); !cols.Equal(want, 0) {
		t.Fatalf("im2col = %v, want %v", cols, want)
	}
}

func TestIm2ColKnownValues(t *testing.T) {
	for _, tc := range []struct {
		name      string
		x         *Tensor
		g         ConvGeom
		wantRows  int
		wantElems []float64
	}{{
		// 3x3 input, 2x2 kernel, stride 1, no pad: row (ky,kx) holds the
		// input shifted by (ky,kx) at each of the 4 output pixels.
		name:     "2x2 kernel",
		x:        FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 1, 3, 3),
		g:        ConvGeom{Channels: 1, Height: 3, Width: 3, KernelH: 2, KernelW: 2, StrideH: 1, StrideW: 1},
		wantRows: 4,
		wantElems: []float64{
			1, 2, 4, 5, // (0,0)
			2, 3, 5, 6, // (0,1)
			4, 5, 7, 8, // (1,0)
			5, 6, 8, 9, // (1,1)
		},
	}, {
		// Two images of two channels, 2x2 each, 1x2 kernel with stride 2
		// horizontally: columns run image-major, rows channel-major.
		name: "batch of two",
		x: FromSlice([]float64{
			1, 2, 3, 4, 5, 6, 7, 8, // image 0, channels 0 and 1
			9, 10, 11, 12, 13, 14, 15, 16, // image 1
		}, 2, 2, 2, 2),
		g:        ConvGeom{Channels: 2, Height: 2, Width: 2, KernelH: 1, KernelW: 2, StrideH: 1, StrideW: 2},
		wantRows: 4,
		wantElems: []float64{
			1, 3, 9, 11, // c0 kx0
			2, 4, 10, 12, // c0 kx1
			5, 7, 13, 15, // c1 kx0
			6, 8, 14, 16, // c1 kx1
		},
	}} {
		want := FromSlice(tc.wantElems, tc.wantRows, len(tc.wantElems)/tc.wantRows)
		if cols := lower(tc.x, tc.g); !cols.Equal(want, 0) {
			t.Errorf("%s: im2col = %v, want %v", tc.name, cols, want)
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	x := FromSlice([]float64{5}, 1, 1, 1, 1)
	g := ConvGeom{Channels: 1, Height: 1, Width: 1, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	cols := lower(x, g)
	// One output pixel, nine rows: the centre tap sees the pixel, the
	// rest see padding.
	if s := cols.Shape(); s[0] != 9 || s[1] != 1 {
		t.Fatalf("cols shape = %v", s)
	}
	for i, v := range cols.Data() {
		want := 0.0
		if i == 4 {
			want = 5
		}
		if v != want {
			t.Fatalf("cols[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestIm2ColMatchesDefinition(t *testing.T) {
	// Every element of the lowering, over random strided, padded and
	// non-square geometries, is the input pixel its (row, column) names.
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		g, ok := randomGeom(r)
		if !ok {
			return true
		}
		n := 1 + r.Intn(3)
		x := Randn(r, 1, n, g.Channels, g.Height, g.Width)
		cols := lower(x, g)
		oh, ow := g.OutHeight(), g.OutWidth()
		for c := 0; c < g.Channels; c++ {
			for ky := 0; ky < g.KernelH; ky++ {
				for kx := 0; kx < g.KernelW; kx++ {
					row := (c*g.KernelH+ky)*g.KernelW + kx
					for img := 0; img < n; img++ {
						for oy := 0; oy < oh; oy++ {
							for ox := 0; ox < ow; ox++ {
								iy, ix := oy*g.StrideH-g.PadH+ky, ox*g.StrideW-g.PadW+kx
								want := 0.0
								if iy >= 0 && iy < g.Height && ix >= 0 && ix < g.Width {
									want = x.At(img, c, iy, ix)
								}
								if got := cols.At(row, (img*oh+oy)*ow+ox); got != want {
									return false
								}
							}
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCol2ImAdjointProperty(t *testing.T) {
	// The defining property of the adjoint: <im2col(x), y> == <x, col2im(y)>
	// for all x, y. Verified over random tensors and geometries.
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		g, ok := randomGeom(r)
		if !ok {
			return true
		}
		n := 1 + r.Intn(2)
		x := Randn(r, 1, n, g.Channels, g.Height, g.Width)
		cols := lower(x, g)
		y := Randn(r, 1, cols.Shape()...)
		lhs := cols.Dot(y)
		rhs := x.Reshape(-1).Dot(raise(y, n, g).Reshape(-1))
		return mathx.AlmostEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPad2D(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	p := Pad2D(x, 1, 1)
	if got := p.Shape(); got[2] != 4 || got[3] != 4 {
		t.Fatalf("padded shape = %v", got)
	}
	if p.At(0, 0, 0, 0) != 0 || p.At(0, 0, 3, 3) != 0 {
		t.Fatal("padding not zero")
	}
	if p.At(0, 0, 1, 1) != 1 || p.At(0, 0, 2, 2) != 4 {
		t.Fatal("interior values misplaced")
	}
	if got := p.Sum(); got != x.Sum() {
		t.Fatalf("padding changed sum: %v vs %v", got, x.Sum())
	}
}

func TestPad2DZeroIsClone(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	p := Pad2D(x, 0, 0)
	if !p.Equal(x, 0) {
		t.Fatal("Pad2D(0,0) changed values")
	}
	p.Set(9, 0, 0, 0, 0)
	if x.At(0, 0, 0, 0) == 9 {
		t.Fatal("Pad2D(0,0) aliases input")
	}
}
