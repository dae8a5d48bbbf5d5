package tensor

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"

	"github.com/stsl/stsl/internal/mathx"
)

// panicMessage runs f and returns the textual panic it raised, or "" if
// it returned normally.
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// withProcs runs f with GOMAXPROCS set to procs and restores it.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// rangeLog is a task that records the ranges it was asked to run.
type rangeLog struct {
	mu     sync.Mutex
	ranges [][2]int
}

func (l *rangeLog) run(lo, hi int) {
	l.mu.Lock()
	l.ranges = append(l.ranges, [2]int{lo, hi})
	l.mu.Unlock()
}

func TestFanOutBelowThresholdRunsInline(t *testing.T) {
	withProcs(4, func() {
		var l rangeLog
		fanOut(&l, new(region), 10, 1, parallelThreshold-1)
		if len(l.ranges) != 1 || l.ranges[0] != [2]int{0, 10} {
			t.Fatalf("small region ran as %v, want one inline range [0,10)", l.ranges)
		}
	})
}

func TestFanOutSplitsOnAlignedBoundaries(t *testing.T) {
	for procs := 1; procs <= 4; procs++ {
		withProcs(procs, func() {
			var l rangeLog
			r := new(region)
			for rep := 0; rep < 2; rep++ { // a region is reusable
				l.ranges = nil
				fanOut(&l, r, 11, 2, parallelThreshold)
				sort.Slice(l.ranges, func(i, j int) bool { return l.ranges[i][0] < l.ranges[j][0] })
				want := 6 // one piece per pair of units
				if procs == 1 {
					want = 1
				}
				if len(l.ranges) != want {
					t.Fatalf("GOMAXPROCS %d: %d ranges %v, want %d", procs, len(l.ranges), l.ranges, want)
				}
				next := 0
				for _, rg := range l.ranges {
					if rg[0] != next || rg[0]%2 != 0 || rg[1] <= rg[0] {
						t.Fatalf("GOMAXPROCS %d: ranges %v do not tile [0,11) on even boundaries", procs, l.ranges)
					}
					next = rg[1]
				}
				if next != 11 {
					t.Fatalf("GOMAXPROCS %d: ranges %v stop at %d", procs, l.ranges, next)
				}
				if a := active.Load(); a != 0 {
					t.Fatalf("GOMAXPROCS %d: %d cores still marked busy after the region", procs, a)
				}
			}
		})
	}
}

// convCase is one convolution problem for the lowering's contract tests.
type convCase struct {
	name          string
	g             ConvGeom
	n, outC       int
	x, w, bias, d *Tensor // input, weight, bias, output gradient
}

// convCases draws problems large enough to fan out, with an odd channel
// count (so dW's row pairs leave a single row), strides, padding and
// non-square kernels.
func convCases() []convCase {
	r := mathx.NewRNG(11)
	var cs []convCase
	for _, c := range []struct {
		name    string
		g       ConvGeom
		n, outC int
	}{
		{"same-3x3", ConvGeom{Channels: 3, Height: 20, Width: 20, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 5, 7},
		{"stride2-2x3", ConvGeom{Channels: 4, Height: 23, Width: 30, KernelH: 2, KernelW: 3, StrideH: 2, StrideW: 2}, 6, 9},
		{"2x2-pixels", ConvGeom{Channels: 24, Height: 2, Width: 2, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 16, 32},
	} {
		k := c.g.Channels * c.g.KernelH * c.g.KernelW
		cs = append(cs, convCase{
			name: c.name, g: c.g, n: c.n, outC: c.outC,
			x:    Randn(r, 1, c.n, c.g.Channels, c.g.Height, c.g.Width),
			w:    Randn(r, 0.3, c.outC, k),
			bias: Randn(r, 0.1, c.outC),
			d:    Randn(r, 1, c.n, c.outC, c.g.OutHeight(), c.g.OutWidth()),
		})
	}
	return cs
}

// convStep is the result of one training step: output and gradients.
type convStep struct{ y, dw, db, dx *Tensor }

func (s convStep) equal(o convStep) bool {
	return s.y.Equal(o.y, 0) && s.dw.Equal(o.dw, 0) && s.db.Equal(o.db, 0) && s.dx.Equal(o.dx, 0)
}

// step runs one forward and backward of c through ws, accumulating into
// gradients that start from a fixed non-zero value.
func (c convCase) step(ws *ConvWorkspace) convStep {
	s := convStep{dw: Full(0.5, c.w.Shape()...), db: Full(-0.25, c.outC)}
	s.y = ws.Forward(c.x, c.w, c.bias, c.g)
	s.dx = ws.Backward(c.d, c.w, s.dw, s.db)
	return s
}

// TestConvSerialMatchesParallel pins the lowering's determinism: the
// forward output, dW, db and dx of a training step are bitwise the same
// whether each region runs as one range or is split across 2, 3 or 4
// cores.
func TestConvSerialMatchesParallel(t *testing.T) {
	for _, c := range convCases() {
		var serial convStep
		withProcs(1, func() { serial = c.step(new(ConvWorkspace)) })
		for procs := 2; procs <= 4; procs++ {
			withProcs(procs, func() {
				if got := c.step(new(ConvWorkspace)); !got.equal(serial) {
					t.Errorf("%s: step at GOMAXPROCS %d differs from the serial step", c.name, procs)
				}
			})
		}
	}
}

// TestConvWorkspaceDeterministicAcrossRuns reuses one workspace for
// repeated parallel steps, between batches of different sizes: a reused
// (possibly oversized) buffer must not change a result.
func TestConvWorkspaceDeterministicAcrossRuns(t *testing.T) {
	cs := convCases()
	withProcs(4, func() {
		ws := new(ConvWorkspace)
		first := make([]convStep, len(cs))
		for i, c := range cs[:2] {
			first[i] = c.step(ws)
		}
		for run := 0; run < 3; run++ {
			for i, c := range cs[:2] {
				if !c.step(ws).equal(first[i]) {
					t.Fatalf("%s: run %d differs from the first", c.name, run+1)
				}
			}
		}
	})
}

// TestConvConcurrentRegionsShareCores runs conv steps from several
// goroutines at once, each with its own workspace, as the replicas of a
// worker pool do: every step must equal the serial one, and every
// borrowed core must be given back.
func TestConvConcurrentRegionsShareCores(t *testing.T) {
	cs := convCases()
	var want []convStep
	withProcs(1, func() {
		for _, c := range cs {
			want = append(want, c.step(new(ConvWorkspace)))
		}
	})
	withProcs(4, func() {
		const replicas = 4
		bad := make(chan string, replicas*len(cs))
		var wg sync.WaitGroup
		for g := 0; g < replicas; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ws := new(ConvWorkspace)
				for i, c := range cs {
					if !c.step(ws).equal(want[i]) {
						bad <- c.name
					}
				}
			}()
		}
		wg.Wait()
		close(bad)
		for name := range bad {
			t.Errorf("%s: a concurrent step differs from the serial one", name)
		}
		if a := active.Load(); a != 0 {
			t.Fatalf("%d cores still marked busy after the steps", a)
		}
	})
}

// TestConvForwardChunksMatchTraining checks the chunked inference
// forward against the training forward on a batch several chunks long.
func TestConvForwardChunksMatchTraining(t *testing.T) {
	r := mathx.NewRNG(12)
	g := ConvGeom{Channels: 3, Height: 32, Width: 32, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	k := g.Channels * g.KernelH * g.KernelW
	n := 20
	if chunk := convChunkFloats / (k * 32 * 32); n <= 2*chunk {
		t.Fatalf("batch %d is not several chunks of %d images", n, chunk)
	}
	x := Randn(r, 1, n, 3, 32, 32)
	w := Randn(r, 0.3, 8, k)
	b := Randn(r, 0.1, 8)
	want := new(ConvWorkspace).Forward(x, w, b, g)
	if got := ConvForward(x, w, b, g); !got.Equal(want, 0) {
		t.Fatal("chunked inference forward differs from the training forward")
	}
}

// TestConvMatchesDefinition checks the training step against the
// convolution's definition computed element by element.
func TestConvMatchesDefinition(t *testing.T) {
	r := mathx.NewRNG(13)
	for trial := 0; trial < 40; trial++ {
		g, ok := randomGeom(r)
		if !ok {
			continue
		}
		n, outC := 1+r.Intn(3), 1+r.Intn(4)
		k := g.Channels * g.KernelH * g.KernelW
		c := convCase{g: g, n: n, outC: outC,
			x: Randn(r, 1, n, g.Channels, g.Height, g.Width), w: Randn(r, 1, outC, k), bias: Randn(r, 1, outC),
			d: Randn(r, 1, n, outC, g.OutHeight(), g.OutWidth())}
		got := c.step(new(ConvWorkspace))
		want := convStep{y: New(got.y.Shape()...), dw: Full(0.5, outC, k), db: Full(-0.25, outC), dx: New(c.x.Shape()...)}
		for img := 0; img < n; img++ {
			for oc := 0; oc < outC; oc++ {
				for oy := 0; oy < g.OutHeight(); oy++ {
					for ox := 0; ox < g.OutWidth(); ox++ {
						s := c.bias.At(oc)
						d := c.d.At(img, oc, oy, ox)
						want.db.data[oc] += d
						for ch := 0; ch < g.Channels; ch++ {
							for ky := 0; ky < g.KernelH; ky++ {
								for kx := 0; kx < g.KernelW; kx++ {
									iy, ix := oy*g.StrideH-g.PadH+ky, ox*g.StrideW-g.PadW+kx
									if iy < 0 || iy >= g.Height || ix < 0 || ix >= g.Width {
										continue
									}
									row := (ch*g.KernelH+ky)*g.KernelW + kx
									s += c.w.At(oc, row) * c.x.At(img, ch, iy, ix)
									want.dw.data[oc*k+row] += d * c.x.At(img, ch, iy, ix)
									want.dx.data[((img*g.Channels+ch)*g.Height+iy)*g.Width+ix] += d * c.w.At(oc, row)
								}
							}
						}
						want.y.Set(s, img, oc, oy, ox)
					}
				}
			}
		}
		for _, p := range [][3]any{{"y", got.y, want.y}, {"dw", got.dw, want.dw}, {"db", got.db, want.db}, {"dx", got.dx, want.dx}} {
			if d := maxAbsDiff(p[1].(*Tensor), p[2].(*Tensor)); d > 1e-12 {
				t.Fatalf("geometry %+v: %s differs from the definition by %g", g, p[0], d)
			}
		}
	}
}

// TestConvRejectsBadOperands pins that malformed operands panic with a
// descriptive message in the caller, before any region fans out.
func TestConvRejectsBadOperands(t *testing.T) {
	r := mathx.NewRNG(14)
	g := ConvGeom{Channels: 2, Height: 6, Width: 6, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1}
	x := Randn(r, 1, 2, 2, 6, 6)
	w, b := Randn(r, 1, 4, 18), New(4)
	cases := map[string]func(){
		"rank-3 input":     func() { ConvForward(New(2, 6, 6), w, b, g) },
		"channel mismatch": func() { ConvForward(New(2, 3, 6, 6), w, b, g) },
		"weight mismatch":  func() { ConvForward(x, New(4, 17), b, g) },
		"bias mismatch":    func() { new(ConvWorkspace).Forward(x, w, New(3), g) },
		"invalid geometry": func() { ConvForward(x, w, b, ConvGeom{}) },
		"backward unarmed": func() { new(ConvWorkspace).Backward(New(2, 4, 4, 4), w, New(4, 18), New(4)) },
		"gradient mismatch": func() {
			ws := new(ConvWorkspace)
			ws.Forward(x, w, b, g)
			ws.Backward(New(2, 4, 4, 3), w, New(4, 18), New(4))
		},
		"dW shape mismatch": func() {
			ws := new(ConvWorkspace)
			ws.Forward(x, w, b, g)
			ws.Backward(New(2, 4, 4, 4), w, New(18, 4), New(4))
		},
		"second backward": func() {
			ws := new(ConvWorkspace)
			ws.Forward(x, w, b, g)
			ws.Backward(New(2, 4, 4, 4), w, New(4, 18), New(4))
			ws.Backward(New(2, 4, 4, 4), w, New(4, 18), New(4))
		},
		"db length mismatch": func() {
			ws := new(ConvWorkspace)
			ws.Forward(x, w, b, g)
			ws.Backward(New(2, 4, 4, 4), w, New(4, 18), New(5))
		},
	}
	for name, f := range cases {
		if msg := panicMessage(f); len(msg) < len("tensor: ") || msg[:len("tensor: ")] != "tensor: " {
			t.Errorf("%s: panic %q, want a descriptive tensor panic", name, msg)
		}
	}
}

// TestGemmAccMatchesNaive checks the conv kernel on sub-blocks of odd
// shapes against first principles, leaving outside elements untouched.
func TestGemmAccMatchesNaive(t *testing.T) {
	r := mathx.NewRNG(15)
	for _, s := range []struct{ m, k, n, i0, i1, j0, j1 int }{
		{1, 1, 1, 0, 1, 0, 1},
		{5, 3, 7, 1, 4, 2, 6},
		{12, 72, 700, 0, 12, 0, 700},
		{33, 130, 301, 3, 30, 17, 290},
		{8, 216, 64, 0, 8, 32, 64},
	} {
		a := Rand(r, -1, 1, s.m, s.k)
		b := Rand(r, -1, 1, s.k, s.n)
		out := Rand(r, -1, 1, s.m, s.n)
		want := out.Clone()
		for i := s.i0; i < s.i1; i++ {
			for j := s.j0; j < s.j1; j++ {
				for kk := 0; kk < s.k; kk++ {
					want.data[i*s.n+j] += a.data[i*s.k+kk] * b.data[kk*s.n+j]
				}
			}
		}
		gemmAcc(a.data, s.k, b.data, s.n, out.data, s.n, s.k, s.i0, s.i1, s.j0, s.j1)
		if d := maxAbsDiff(out, want); d > float64(s.k)*1e-14 {
			t.Errorf("%+v: gemmAcc off by %g", s, d)
		}
	}
}

// TestDotRowsAccMatchesNaive does the same for the weight-gradient dots,
// across lengths that straddle dotChunk.
func TestDotRowsAccMatchesNaive(t *testing.T) {
	r := mathx.NewRNG(16)
	for _, s := range []struct{ m, k, n, i0, i1 int }{
		{1, 1, 1, 0, 1},
		{5, 3, 7, 2, 5},
		{12, 72, 4096, 0, 12},
		{7, 9, dotChunk + 3, 0, 7},
	} {
		x := Rand(r, -1, 1, s.m, s.n)
		y := Rand(r, -1, 1, s.k, s.n)
		out := Rand(r, -1, 1, s.m, s.k)
		want := out.Clone()
		for i := s.i0; i < s.i1; i++ {
			for kk := 0; kk < s.k; kk++ {
				for j := 0; j < s.n; j++ {
					want.data[i*s.k+kk] += x.data[i*s.n+j] * y.data[kk*s.n+j]
				}
			}
		}
		dotRowsAcc(x.data, y.data, out.data, s.n, s.k, s.i0, s.i1)
		if d := maxAbsDiff(out, want); d > float64(s.n)*1e-14 {
			t.Errorf("%+v: dotRowsAcc off by %g", s, d)
		}
	}
}
