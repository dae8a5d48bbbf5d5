package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling window
// applied to an input of C channels and H×W spatial extent.
type ConvGeom struct {
	Channels, Height, Width int // input geometry
	KernelH, KernelW        int
	StrideH, StrideW        int
	PadH, PadW              int
}

// OutHeight returns the spatial height of the operation's output.
func (g ConvGeom) OutHeight() int {
	return (g.Height+2*g.PadH-g.KernelH)/g.StrideH + 1
}

// OutWidth returns the spatial width of the operation's output.
func (g ConvGeom) OutWidth() int {
	return (g.Width+2*g.PadW-g.KernelW)/g.StrideW + 1
}

// Validate reports whether the geometry is internally consistent.
func (g ConvGeom) Validate() error {
	switch {
	case g.Channels <= 0 || g.Height <= 0 || g.Width <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive input dims %+v", g)
	case g.KernelH <= 0 || g.KernelW <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive kernel %+v", g)
	case g.StrideH <= 0 || g.StrideW <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive stride %+v", g)
	case g.PadH < 0 || g.PadW < 0:
		return fmt.Errorf("tensor: conv geometry has negative padding %+v", g)
	case g.OutHeight() <= 0 || g.OutWidth() <= 0:
		return fmt.Errorf("tensor: conv geometry yields empty output %+v", g)
	}
	return nil
}

// The convolution lowering. A batch of N images (N, C, H, W) becomes
// one matrix cols of shape K × N·P, with K = C·kh·kw and P = oh·ow: row
// (c·kh + ky)·kw + kx holds channel c shifted by (ky, kx), and column
// img·P + oy·ow + ox is one output pixel of one image. With the weight
// W as (outC × K), every product of a conv step is a short, wide matrix
// product with N·P-long rows:
//
//	forward   Y     = W·cols       (outC × N·P), into a bias-prefilled Y
//	weights   dW   += dY·colsᵀ     dots of length N·P
//	input     dcols = Wᵀ·dY        (K × N·P), scattered back by col2im
//
// Each pass runs through fanOut: the forward as one region split by
// images, the backward as two — dW and db split by output channel, then
// dcols and col2im split by images. Every output element is owned by
// one unit of its region and accumulated in an order fixed by the
// problem alone, so results are bitwise identical at any GOMAXPROCS.

// convChunkFloats bounds the lowered input of one inference chunk
// (2 MiB): ConvForward lowers this many floats at a time, however large
// the batch.
const convChunkFloats = 1 << 18

// Stages of a convPass.
const (
	passForward = iota
	passGradParams
	passGradInput
)

// convPass is one pass of the lowering over n images. It is the task
// fanOut splits.
type convPass struct {
	stage   int
	g       ConvGeom
	outC, n int
	x       []float64 // input images (n, C, H, W)
	w, bias []float64 // weight (outC × K) and bias (outC)
	cols    []float64 // K × n·P; dcols during passGradInput
	y       []float64 // outC × n·P: Y forward, dY backward
	out     []float64 // forward output (n, outC, oh, ow)
	dy      []float64 // incoming gradient (n, outC, oh, ow)
	wt      []float64 // Wᵀ (K × outC)
	dx      []float64 // input gradient (n, C, H, W)
	dw, db  []float64 // gradient accumulators of w and bias
}

func (p *convPass) run(lo, hi int) {
	switch p.stage {
	case passForward:
		p.forward(lo, hi)
	case passGradParams:
		p.gradParams(lo, hi)
	case passGradInput:
		p.gradInput(lo, hi)
	}
}

func (p *convPass) dims() (k, pix, ld int) {
	g := p.g
	k = g.Channels * g.KernelH * g.KernelW
	pix = g.OutHeight() * g.OutWidth()
	return k, pix, p.n * pix
}

// forward computes the output of images [i0,i1): lower them, prefill
// their Y columns with the bias, add W·cols, and copy each image's
// channel rows into the NCHW output.
func (p *convPass) forward(i0, i1 int) {
	k, pix, ld := p.dims()
	im2col(p.cols, ld, p.x, p.g, i0, i1)
	j0, j1 := i0*pix, i1*pix
	for oc, b := range p.bias[:p.outC] {
		row := p.y[oc*ld+j0 : oc*ld+j1]
		for j := range row {
			row[j] = b
		}
	}
	gemmAcc(p.w, k, p.cols, ld, p.y, ld, k, 0, p.outC, j0, j1)
	for img := i0; img < i1; img++ {
		for oc := 0; oc < p.outC; oc++ {
			copy(p.out[(img*p.outC+oc)*pix:][:pix], p.y[oc*ld+img*pix:][:pix])
		}
	}
}

// gradParams handles output channels [r0,r1): gather their dY rows from
// the NCHW gradient, add the rows' sums to db and dY·colsᵀ to dW.
func (p *convPass) gradParams(r0, r1 int) {
	k, pix, ld := p.dims()
	for oc := r0; oc < r1; oc++ {
		row := p.y[oc*ld:][:ld]
		for img := 0; img < p.n; img++ {
			copy(row[img*pix:][:pix], p.dy[(img*p.outC+oc)*pix:][:pix])
		}
		s := 0.0
		for _, v := range row {
			s += v
		}
		p.db[oc] += s
	}
	dotRowsAcc(p.y, p.cols, p.dw, ld, k, r0, r1)
}

// gradInput handles images [i0,i1): dcols = Wᵀ·dY over their columns,
// written over cols (which the weight gradient no longer needs), then
// scattered into dx.
func (p *convPass) gradInput(i0, i1 int) {
	k, pix, ld := p.dims()
	j0, j1 := i0*pix, i1*pix
	for r := 0; r < k; r++ {
		clear(p.cols[r*ld+j0 : r*ld+j1])
	}
	gemmAcc(p.wt, p.outC, p.y, ld, p.cols, ld, p.outC, 0, k, j0, j1)
	col2im(p.dx, p.cols, ld, p.g, i0, i1)
}

// convArgs validates a conv call and returns the batch size.
func convArgs(op string, x, w, bias *Tensor, g ConvGeom) int {
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("tensor: %s: %v", op, err))
	}
	if x.Dims() != 4 || x.shape[1] != g.Channels || x.shape[2] != g.Height || x.shape[3] != g.Width {
		panic(fmt.Sprintf("tensor: %s input %v does not match geometry %+v", op, x.shape, g))
	}
	k := g.Channels * g.KernelH * g.KernelW
	if w.Dims() != 2 || w.shape[1] != k || bias.Dims() != 1 || bias.shape[0] != w.shape[0] {
		panic(fmt.Sprintf("tensor: %s weight %v and bias %v do not fit geometry %+v", op, w.shape, bias.shape, g))
	}
	return x.shape[0]
}

// ConvWorkspace is the training state of one convolution layer: the
// lowered input Forward keeps for Backward, and the buffers both passes
// reuse from step to step, grown to the largest batch seen. It belongs
// to one layer (each replica of a model has its own) and is not safe
// for concurrent use.
type ConvWorkspace struct {
	p           convPass
	r           region
	cols, y, wt []float64
	armed       bool // Forward has run and its Backward has not
}

// grow returns buf resized to n elements, reallocating only when its
// capacity is short. The contents are unspecified.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Forward returns the convolution of x (N, C, H, W) with w (outC × K)
// plus bias, shaped (N, outC, oh, ow), and keeps the lowered input for
// one Backward. Apart from the returned tensor it allocates nothing
// once the workspace has seen a batch this large.
func (ws *ConvWorkspace) Forward(x, w, bias *Tensor, g ConvGeom) *Tensor {
	n := convArgs("ConvWorkspace.Forward", x, w, bias, g)
	outC := w.shape[0]
	out := New(n, outC, g.OutHeight(), g.OutWidth())
	ws.p = convPass{g: g, outC: outC, n: n}
	k, _, ld := ws.p.dims()
	ws.cols = grow(ws.cols, k*ld)
	ws.y = grow(ws.y, outC*ld)
	ws.forward(x.data, w.data, bias.data, out.data)
	ws.p.x, ws.p.out = nil, nil
	ws.armed = true
	return out
}

// forward runs one forward region over the images in x, set up in ws.p.
func (ws *ConvWorkspace) forward(x, w, bias, out []float64) {
	p := &ws.p
	k, _, ld := p.dims()
	p.stage = passForward
	p.x, p.w, p.bias, p.out = x, w, bias, out
	p.cols, p.y = ws.cols[:k*ld], ws.y[:p.outC*ld]
	fanOut(p, &ws.r, p.n, 1, p.outC*k*ld)
}

// Backward consumes the gradient dy of the last Forward's output: it
// adds the weight and bias gradients into dw and db and returns the
// input gradient. w must be the weight Forward used. Each Forward
// supports one Backward.
func (ws *ConvWorkspace) Backward(dy, w, dw, db *Tensor) *Tensor {
	p := &ws.p
	if !ws.armed {
		panic("tensor: ConvWorkspace.Backward without Forward")
	}
	g := p.g
	oh, ow := g.OutHeight(), g.OutWidth()
	if dy.Dims() != 4 || dy.shape[0] != p.n || dy.shape[1] != p.outC || dy.shape[2] != oh || dy.shape[3] != ow {
		panic(fmt.Sprintf("tensor: ConvWorkspace.Backward gradient %v, want (%d, %d, %d, %d)", dy.shape, p.n, p.outC, oh, ow))
	}
	k, _, ld := p.dims()
	if !w.SameShape(dw) || w.Dims() != 2 || w.shape[0] != p.outC || w.shape[1] != k || db.Dims() != 1 || db.shape[0] != p.outC {
		panic(fmt.Sprintf("tensor: ConvWorkspace.Backward weight %v, gradients %v and %v do not fit (%d × %d)", w.shape, dw.shape, db.shape, p.outC, k))
	}
	ws.wt = grow(ws.wt, k*p.outC)
	for oc := 0; oc < p.outC; oc++ {
		for r, v := range w.data[oc*k : (oc+1)*k] {
			ws.wt[r*p.outC+oc] = v
		}
	}
	dx := New(p.n, g.Channels, g.Height, g.Width)
	p.dy, p.dw, p.db = dy.data, dw.data, db.data
	p.wt, p.dx = ws.wt, dx.data
	work := p.outC * k * ld
	p.stage = passGradParams
	fanOut(p, &ws.r, p.outC, 2, work)
	p.stage = passGradInput
	fanOut(p, &ws.r, p.n, 1, work)
	*p = convPass{}
	ws.armed = false
	return dx
}

// ConvForward returns the inference convolution of x (N, C, H, W) with
// w (outC × K) plus bias, shaped (N, outC, oh, ow). It lowers the batch
// in chunks of images bounded by convChunkFloats and keeps nothing once
// it returns; its output is bitwise equal to ConvWorkspace.Forward's.
func ConvForward(x, w, bias *Tensor, g ConvGeom) *Tensor {
	n := convArgs("ConvForward", x, w, bias, g)
	outC := w.shape[0]
	out := New(n, outC, g.OutHeight(), g.OutWidth())
	k := g.Channels * g.KernelH * g.KernelW
	pix := g.OutHeight() * g.OutWidth()
	chunk := max(1, min(n, convChunkFloats/(k*pix)))
	ws := &ConvWorkspace{cols: make([]float64, k*chunk*pix), y: make([]float64, outC*chunk*pix)}
	in := g.Channels * g.Height * g.Width
	for i0 := 0; i0 < n; i0 += chunk {
		c := min(chunk, n-i0)
		ws.p = convPass{g: g, outC: outC, n: c}
		ws.forward(x.data[i0*in:(i0+c)*in], w.data, bias.data, out.data[i0*outC*pix:(i0+c)*outC*pix])
	}
	return out
}

// im2col writes images [i0,i1) of the batch x (N, C, H, W) into their
// columns of cols, the K × ld lowered matrix: row (c·kh + ky)·kw + kx,
// column img·P + oy·ow + ox holds x[img, c, oy·sh − ph + ky,
// ox·sw − pw + kx], or 0 where that falls in the padding.
func im2col(cols []float64, ld int, x []float64, g ConvGeom, i0, i1 int) {
	oh, ow := g.OutHeight(), g.OutWidth()
	pix, hw := oh*ow, g.Height*g.Width
	for img := i0; img < i1; img++ {
		r := 0
		for c := 0; c < g.Channels; c++ {
			plane := x[(img*g.Channels+c)*hw:][:hw]
			for ky := 0; ky < g.KernelH; ky++ {
				for kx := 0; kx < g.KernelW; kx++ {
					dst := cols[r*ld+img*pix:][:pix]
					r++
					lo, hi := validSpan(kx, g.PadW, g.StrideW, g.Width, ow)
					for oy := 0; oy < oh; oy++ {
						drow := dst[oy*ow:][:ow]
						iy := oy*g.StrideH - g.PadH + ky
						if iy < 0 || iy >= g.Height || lo == hi {
							clear(drow)
							continue
						}
						clear(drow[:lo])
						clear(drow[hi:])
						src := plane[iy*g.Width:][:g.Width]
						ix := lo*g.StrideW - g.PadW + kx
						if g.StrideW == 1 {
							copy(drow[lo:hi], src[ix:])
							continue
						}
						for ox := lo; ox < hi; ox++ {
							drow[ox] = src[ix]
							ix += g.StrideW
						}
					}
				}
			}
		}
	}
}

// col2im is the adjoint of im2col: it adds the columns of images
// [i0,i1) of cols back into dx (N, C, H, W), accumulating where
// receptive fields overlap.
func col2im(dx, cols []float64, ld int, g ConvGeom, i0, i1 int) {
	oh, ow := g.OutHeight(), g.OutWidth()
	pix, hw := oh*ow, g.Height*g.Width
	for img := i0; img < i1; img++ {
		r := 0
		for c := 0; c < g.Channels; c++ {
			plane := dx[(img*g.Channels+c)*hw:][:hw]
			for ky := 0; ky < g.KernelH; ky++ {
				for kx := 0; kx < g.KernelW; kx++ {
					src := cols[r*ld+img*pix:][:pix]
					r++
					lo, hi := validSpan(kx, g.PadW, g.StrideW, g.Width, ow)
					if lo == hi {
						continue
					}
					for oy := 0; oy < oh; oy++ {
						iy := oy*g.StrideH - g.PadH + ky
						if iy < 0 || iy >= g.Height {
							continue
						}
						srow := src[oy*ow:][:ow]
						drow := plane[iy*g.Width:][:g.Width]
						ix := lo*g.StrideW - g.PadW + kx
						for ox := lo; ox < hi; ox++ {
							drow[ix] += srow[ox]
							ix += g.StrideW
						}
					}
				}
			}
		}
	}
}

// validSpan returns the output columns [lo,hi) whose input column
// ox·stride − pad + k lies inside [0, width).
func validSpan(k, pad, stride, width, out int) (lo, hi int) {
	if d := pad - k; d > 0 {
		lo = (d + stride - 1) / stride
	}
	hi = out
	if e := width - 1 + pad - k; e < 0 {
		hi = 0
	} else if m := e/stride + 1; m < hi {
		hi = m
	}
	return min(lo, hi), hi
}

// Pad2D zero-pads the two trailing spatial dimensions of an (N, C, H, W)
// tensor by padH rows on top/bottom and padW columns on left/right.
func Pad2D(x *Tensor, padH, padW int) *Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("tensor: Pad2D requires rank-4 input, got %v", x.shape))
	}
	if padH < 0 || padW < 0 {
		panic("tensor: Pad2D negative padding")
	}
	if padH == 0 && padW == 0 {
		return x.Clone()
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	out := New(n, c, h+2*padH, w+2*padW)
	ow := w + 2*padW
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			srcBase := (img*c + ch) * h * w
			dstBase := (img*c+ch)*(h+2*padH)*ow + padH*ow + padW
			for y := 0; y < h; y++ {
				copy(out.data[dstBase+y*ow:dstBase+y*ow+w], x.data[srcBase+y*w:srcBase+(y+1)*w])
			}
		}
	}
	return out
}
