package nn

import (
	"math"
	"testing"

	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/tensor"
)

func TestConv2DKnownValues(t *testing.T) {
	// One 1-channel 3x3 input, one 2x2 kernel of all ones, no pad: output
	// is the sum over each receptive field.
	r := mathx.NewRNG(1)
	conv, err := NewConv2D(Conv2DConfig{Name: "c", In: 1, Out: 1, KernelH: 2, KernelW: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	conv.weight.Value.Fill(1)
	conv.bias.Value.Fill(0.5)
	x := tensor.FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	got := conv.Forward(x, false)
	want := tensor.FromSlice([]float64{
		1 + 2 + 4 + 5 + 0.5, 2 + 3 + 5 + 6 + 0.5,
		4 + 5 + 7 + 8 + 0.5, 5 + 6 + 8 + 9 + 0.5,
	}, 1, 1, 2, 2)
	if !got.Equal(want, 1e-12) {
		t.Fatalf("conv forward = %v, want %v", got, want)
	}
}

func TestConv2DSamePadPreservesSpatialDims(t *testing.T) {
	r := mathx.NewRNG(2)
	conv, err := NewConv2D(Conv2DConfig{Name: "c", In: 3, Out: 16, KernelH: 3, KernelW: 3, SamePad: true}, r)
	if err != nil {
		t.Fatal(err)
	}
	out, err := conv.OutShape([]int{3, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 16 || out[1] != 32 || out[2] != 32 {
		t.Fatalf("OutShape = %v, want [16 32 32]", out)
	}
	x := tensor.Randn(r, 1, 2, 3, 32, 32)
	y := conv.Forward(x, false)
	if s := y.Shape(); s[0] != 2 || s[1] != 16 || s[2] != 32 || s[3] != 32 {
		t.Fatalf("forward shape = %v", s)
	}
}

func TestConv2DRejectsBadConfig(t *testing.T) {
	r := mathx.NewRNG(1)
	cases := []Conv2DConfig{
		{Name: "a", In: 0, Out: 4, KernelH: 3, KernelW: 3},
		{Name: "b", In: 3, Out: 0, KernelH: 3, KernelW: 3},
		{Name: "c", In: 3, Out: 4, KernelH: 0, KernelW: 3},
		{Name: "d", In: 3, Out: 4, KernelH: 2, KernelW: 2, SamePad: true}, // even kernel same-pad
		{Name: "e", In: 3, Out: 4, KernelH: 3, KernelW: 3, PadH: -1},
	}
	for _, cfg := range cases {
		if _, err := NewConv2D(cfg, r); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

func TestConv2DGradients(t *testing.T) {
	r := mathx.NewRNG(3)
	conv, err := NewConv2D(Conv2DConfig{Name: "c", In: 2, Out: 3, KernelH: 3, KernelW: 3, SamePad: true}, r)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(r, 1, 2, 2, 5, 5)
	if _, err := CheckLayerGradients(conv, x, 1e-5, 1e-5); err != nil {
		t.Fatal(err)
	}
}

// TestConv2DStridedGradients gradchecks the lowering over strided,
// unpadded and non-square kernels.
func TestConv2DStridedGradients(t *testing.T) {
	r := mathx.NewRNG(4)
	for _, cfg := range []Conv2DConfig{
		{Name: "stride2-2x2", In: 1, Out: 2, KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2},
		{Name: "stride2-pad1", In: 2, Out: 3, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		{Name: "valid-2x3", In: 2, Out: 3, KernelH: 2, KernelW: 3},
		{Name: "mixed-stride-3x1", In: 1, Out: 2, KernelH: 3, KernelW: 1, StrideH: 1, StrideW: 2, PadW: 1},
		{Name: "stride2-1x2", In: 3, Out: 1, KernelH: 1, KernelW: 2, StrideH: 2, StrideW: 1},
	} {
		conv, err := NewConv2D(cfg, r)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.Randn(r, 1, 2, cfg.In, 6, 5)
		if _, err := CheckLayerGradients(conv, x, 1e-5, 1e-5); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestMaxPoolKnownValues(t *testing.T) {
	pool, err := NewMaxPool2D("p", 2, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.FromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 2, 3,
		1, 1, 4, 1,
	}, 1, 1, 4, 4)
	got := pool.Forward(x, false)
	want := tensor.FromSlice([]float64{4, 8, 9, 4}, 1, 1, 2, 2)
	if !got.Equal(want, 0) {
		t.Fatalf("pool forward = %v, want %v", got, want)
	}
}

func TestMaxPoolBackwardRoutesToArgmax(t *testing.T) {
	pool, err := NewMaxPool2D("p", 2, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.FromSlice([]float64{
		1, 2,
		3, 4,
	}, 1, 1, 2, 2)
	pool.Forward(x, true)
	grad := tensor.FromSlice([]float64{10}, 1, 1, 1, 1)
	dx := pool.Backward(grad)
	want := tensor.FromSlice([]float64{0, 0, 0, 10}, 1, 1, 2, 2)
	if !dx.Equal(want, 0) {
		t.Fatalf("pool backward = %v, want %v", dx, want)
	}
}

func TestMaxPoolGradients(t *testing.T) {
	r := mathx.NewRNG(5)
	pool, err := NewMaxPool2D("p", 2, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct values avoid ties at the max, where the subgradient is
	// legitimately non-unique and finite differences disagree.
	x := tensor.Randn(r, 10, 2, 2, 4, 4)
	if _, err := CheckLayerGradients(pool, x, 1e-6, 1e-4); err != nil {
		t.Fatal(err)
	}
}

func TestDenseKnownValues(t *testing.T) {
	r := mathx.NewRNG(6)
	d, err := NewDense("d", 2, 2, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	d.weight.Value.CopyFrom(tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2))
	d.bias.Value.CopyFrom(tensor.FromSlice([]float64{10, 20}, 2))
	x := tensor.FromSlice([]float64{1, 1}, 1, 2)
	got := d.Forward(x, false)
	want := tensor.FromSlice([]float64{1 + 3 + 10, 2 + 4 + 20}, 1, 2)
	if !got.Equal(want, 1e-12) {
		t.Fatalf("dense forward = %v, want %v", got, want)
	}
}

func TestDenseGradients(t *testing.T) {
	r := mathx.NewRNG(7)
	d, err := NewDense("d", 6, 4, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(r, 1, 3, 6)
	if _, err := CheckLayerGradients(d, x, 1e-5, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestReLUForwardBackward(t *testing.T) {
	relu := NewReLU("r")
	x := tensor.FromSlice([]float64{-1, 0, 2, -3}, 1, 4)
	y := relu.Forward(x, true)
	if !y.Equal(tensor.FromSlice([]float64{0, 0, 2, 0}, 1, 4), 0) {
		t.Fatalf("relu forward = %v", y)
	}
	dx := relu.Backward(tensor.FromSlice([]float64{5, 5, 5, 5}, 1, 4))
	if !dx.Equal(tensor.FromSlice([]float64{0, 0, 5, 0}, 1, 4), 0) {
		t.Fatalf("relu backward = %v", dx)
	}
}

func TestTanhGradients(t *testing.T) {
	r := mathx.NewRNG(8)
	x := tensor.Randn(r, 1, 2, 5)
	if _, err := CheckLayerGradients(NewTanh("t"), x, 1e-6, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten("f")
	x := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 2, 2, 2, 1)
	y := f.Forward(x, true)
	if s := y.Shape(); s[0] != 2 || s[1] != 4 {
		t.Fatalf("flatten shape = %v", s)
	}
	dx := f.Backward(y)
	if !dx.Equal(x, 0) {
		t.Fatal("flatten backward did not restore shape/values")
	}
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	r := mathx.NewRNG(9)
	d, err := NewDropout("d", 0.5, r)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(r, 1, 4, 4)
	y := d.Forward(x, false)
	if !y.Equal(x, 0) {
		t.Fatal("eval-mode dropout changed values")
	}
}

func TestDropoutTrainStatistics(t *testing.T) {
	r := mathx.NewRNG(10)
	const p = 0.3
	d, err := NewDropout("d", p, r)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Full(1, 100, 100)
	y := d.Forward(x, true)
	zeros := 0
	for _, v := range y.Data() {
		if v == 0 {
			zeros++
		} else if math.Abs(v-1/(1-p)) > 1e-12 {
			t.Fatalf("surviving element has value %v, want %v", v, 1/(1-p))
		}
	}
	frac := float64(zeros) / float64(y.Size())
	if math.Abs(frac-p) > 0.02 {
		t.Fatalf("dropped fraction = %v, want ≈%v", frac, p)
	}
	// Inverted dropout keeps the expected sum.
	if mean := y.Mean(); math.Abs(mean-1) > 0.05 {
		t.Fatalf("post-dropout mean = %v, want ≈1", mean)
	}
}

func TestDropoutRejectsBadProbability(t *testing.T) {
	r := mathx.NewRNG(1)
	for _, p := range []float64{-0.1, 1, 1.5} {
		if _, err := NewDropout("d", p, r); err == nil {
			t.Fatalf("probability %v accepted", p)
		}
	}
}

func TestBatchNormTrainNormalises(t *testing.T) {
	r := mathx.NewRNG(11)
	bn, err := NewBatchNorm2D("bn", 2)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(r, 3, 4, 2, 5, 5)
	// Shift one channel far from zero.
	data := x.Data()
	for img := 0; img < 4; img++ {
		base := img * 2 * 25
		for i := 0; i < 25; i++ {
			data[base+i] += 100
		}
	}
	y := bn.Forward(x, true)
	// Per-channel output must be ≈ zero-mean unit-variance (gamma=1, beta=0).
	yd := y.Data()
	for ch := 0; ch < 2; ch++ {
		var vals []float64
		for img := 0; img < 4; img++ {
			base := (img*2 + ch) * 25
			vals = append(vals, yd[base:base+25]...)
		}
		if m := mathx.Mean(vals); math.Abs(m) > 1e-9 {
			t.Fatalf("channel %d mean = %v", ch, m)
		}
		if s := mathx.Std(vals); math.Abs(s-1) > 1e-3 {
			t.Fatalf("channel %d std = %v", ch, s)
		}
	}
}

func TestBatchNormGradients(t *testing.T) {
	r := mathx.NewRNG(12)
	bn, err := NewBatchNorm2D("bn", 2)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(r, 1, 3, 2, 4, 4)
	if _, err := CheckLayerGradients(bn, x, 1e-5, 1e-4); err != nil {
		t.Fatal(err)
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	r := mathx.NewRNG(13)
	bn, err := NewBatchNorm2D("bn", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Train on many batches so running stats converge toward N(5, 4).
	for i := 0; i < 200; i++ {
		x := tensor.Randn(r, 2, 8, 1, 4, 4)
		x.ApplyInPlace(func(v float64) float64 { return v + 5 })
		bn.Forward(x, true)
	}
	// Eval on a known constant input: output should be ≈ (5-5)/2 = 0 for
	// input 5.
	x := tensor.Full(5, 1, 1, 2, 2)
	y := bn.Forward(x, false)
	if m := y.Mean(); math.Abs(m) > 0.2 {
		t.Fatalf("eval output mean = %v, want ≈0", m)
	}
}
