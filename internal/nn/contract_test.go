package nn

import (
	"testing"

	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/tensor"
)

// TestLayerShapeContract verifies, for every layer type, that OutShape's
// prediction matches the actual Forward output shape — the contract the
// split framework relies on when it wires client and server stacks.
func TestLayerShapeContract(t *testing.T) {
	r := mathx.NewRNG(1)
	conv, err := NewConv2D(Conv2DConfig{Name: "c", In: 3, Out: 8, KernelH: 3, KernelW: 3, SamePad: true}, r)
	if err != nil {
		t.Fatal(err)
	}
	convStride, err := NewConv2D(Conv2DConfig{Name: "cs", In: 3, Out: 4, KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewMaxPool2D("p", 2, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := NewBatchNorm2D("b", 3)
	if err != nil {
		t.Fatal(err)
	}
	drop, err := NewDropout("dr", 0.5, r)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		layer Layer
		in    []int // per-sample input shape
	}{
		{"conv-same", conv, []int{3, 16, 16}},
		{"conv-strided", convStride, []int{3, 16, 16}},
		{"pool", pool, []int{3, 16, 16}},
		{"batchnorm", bn, []int{3, 8, 8}},
		{"relu", NewReLU("r"), []int{3, 8, 8}},
		{"tanh", NewTanh("t"), []int{5}},
		{"flatten", NewFlatten("f"), []int{3, 4, 4}},
		{"dropout", drop, []int{7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.layer.OutShape(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			batchShape := append([]int{2}, tc.in...)
			x := tensor.Randn(mathx.NewRNG(2), 1, batchShape...)
			got := tc.layer.Forward(x, false).Shape()
			if got[0] != 2 {
				t.Fatalf("batch dim lost: %v", got)
			}
			if len(got)-1 != len(want) {
				t.Fatalf("rank mismatch: forward %v vs OutShape %v", got, want)
			}
			for i, d := range want {
				if got[i+1] != d {
					t.Fatalf("dim %d: forward %v vs OutShape %v", i, got, want)
				}
			}
		})
	}
}

// TestLayerBackwardShapeContract verifies ∂L/∂input has the input's shape
// for every layer — required for gradients to flow across the cut.
func TestLayerBackwardShapeContract(t *testing.T) {
	r := mathx.NewRNG(3)
	conv, err := NewConv2D(Conv2DConfig{Name: "c", In: 2, Out: 4, KernelH: 3, KernelW: 3, SamePad: true}, r)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewMaxPool2D("p", 2, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewDense("d", 8, 3, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := NewBatchNorm2D("b", 2)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		layer Layer
		in    []int // full batch shape
	}{
		{"conv", conv, []int{2, 2, 6, 6}},
		{"pool", pool, []int{2, 2, 6, 6}},
		{"dense", dense, []int{3, 8}},
		{"batchnorm", bn, []int{2, 2, 4, 4}},
		{"relu", NewReLU("r"), []int{2, 5}},
		{"flatten", NewFlatten("f"), []int{2, 2, 3, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := tensor.Randn(mathx.NewRNG(4), 1, tc.in...)
			y := tc.layer.Forward(x, true)
			dx := tc.layer.Backward(y.Clone())
			if !dx.SameShape(x) {
				t.Fatalf("backward shape %v != input shape %v", dx.Shape(), x.Shape())
			}
		})
	}
}

// TestBackwardWithoutForwardPanics pins the misuse contract for all
// cache-dependent layers.
func TestBackwardWithoutForwardPanics(t *testing.T) {
	r := mathx.NewRNG(5)
	conv, _ := NewConv2D(Conv2DConfig{Name: "c", In: 1, Out: 1, KernelH: 1, KernelW: 1}, r)
	pool, _ := NewMaxPool2D("p", 2, 2, 0, 0)
	dense, _ := NewDense("d", 2, 2, nil, r)
	bn, _ := NewBatchNorm2D("b", 1)

	layers := []Layer{conv, pool, dense, bn, NewReLU("r"), NewTanh("t"), NewFlatten("f")}
	for _, l := range layers {
		l := l
		t.Run(l.Name(), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Backward without Forward did not panic", l.Name())
				}
			}()
			l.Backward(tensor.New(1, 1))
		})
	}
}

// TestEvalForwardDoesNotArmBackward verifies inference-mode forwards do
// not leave stale caches that a later Backward could silently consume,
// even right after a training forward: conv must not fall back on its
// training workspace.
func TestEvalForwardDoesNotArmBackward(t *testing.T) {
	r := mathx.NewRNG(6)
	dense, err := NewDense("d", 4, 2, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := NewConv2D(Conv2DConfig{Name: "c", In: 2, Out: 3, KernelH: 3, KernelW: 3, SamePad: true}, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		layer Layer
		x     *tensor.Tensor
	}{
		{dense, tensor.Randn(r, 1, 2, 4)},
		{conv, tensor.Randn(r, 1, 2, 2, 5, 5)},
	} {
		tc.layer.Forward(tc.x, true)
		y := tc.layer.Forward(tc.x, false)
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			tc.layer.Backward(y)
			return false
		}()
		if !panicked {
			t.Errorf("%s: Backward after eval Forward did not panic", tc.layer.Name())
		}
	}
}

// TestSequentialOfSequentials checks that Sequential composes as a Layer.
func TestSequentialOfSequentials(t *testing.T) {
	r := mathx.NewRNG(7)
	d1, _ := NewDense("d1", 4, 8, nil, r)
	d2, _ := NewDense("d2", 8, 3, nil, r)
	inner1, err := NewSequential("inner1", d1, NewReLU("r1"))
	if err != nil {
		t.Fatal(err)
	}
	inner2, err := NewSequential("inner2", d2)
	if err != nil {
		t.Fatal(err)
	}
	outer, err := NewSequential("outer", inner1, inner2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := outer.OutShape([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 3 {
		t.Fatalf("OutShape = %v", out)
	}
	x := tensor.Randn(r, 1, 2, 4)
	y := outer.Forward(x, true)
	dx := outer.Backward(y)
	if !dx.SameShape(x) {
		t.Fatal("nested backward shape mismatch")
	}
	if got := len(outer.Params()); got != 4 {
		t.Fatalf("nested params = %d, want 4", got)
	}
}

// TestEmptySequentialIsIdentity matters because cut=0 gives end-systems
// an empty stack.
func TestEmptySequentialIsIdentity(t *testing.T) {
	seq, err := NewSequential("empty")
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(mathx.NewRNG(8), 1, 2, 3)
	if !seq.Forward(x, true).Equal(x, 0) {
		t.Fatal("empty forward not identity")
	}
	if !seq.Backward(x).Equal(x, 0) {
		t.Fatal("empty backward not identity")
	}
	if len(seq.Params()) != 0 {
		t.Fatal("empty sequential has params")
	}
	out, err := seq.OutShape([]int{2, 3})
	if err != nil || out[0] != 2 || out[1] != 3 {
		t.Fatalf("empty OutShape = %v, %v", out, err)
	}
}
