package nn

import (
	"math"
	"runtime"
	"testing"

	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/tensor"
)

// TestConv2DStepAllocatesOnlyReturnedTensors: after warm-up, a training
// step (forward + backward) allocates exactly what building its two
// returned tensors — the output and the input gradient — allocates, at
// GOMAXPROCS 1 and 4 (where the passes fan out to helper goroutines).
// testing.AllocsPerRun pins GOMAXPROCS to 1, so the count is taken from
// the runtime's malloc counter as a per-step mean over a window of
// steps. The runtime itself now and then allocates a goroutine
// descriptor when a helper is spawned on a core whose free list is
// empty; those come in bursts, so the steady state is the quietest of
// several windows. An allocation the step makes shows in every window.
func TestConv2DStepAllocatesOnlyReturnedTensors(t *testing.T) {
	// conv2's channels on 8×8 images: still above the fan-out threshold.
	r := mathx.NewRNG(22)
	conv, err := NewConv2D(Conv2DConfig{Name: "conv2", In: 8, Out: 12, KernelH: 3, KernelW: 3, SamePad: true}, r)
	if err != nil {
		t.Fatal(err)
	}
	x, grad := tensor.Randn(r, 1, 8, 8, 8, 8), tensor.Randn(r, 1, 8, 12, 8, 8)
	step := func() {
		conv.Forward(x, true)
		conv.Backward(grad)
	}
	allocs := func(f func()) uint64 {
		const warmup, windows, runs = 40, 5, 20
		for i := 0; i < warmup; i++ {
			f()
		}
		quietest := uint64(math.MaxUint64)
		for w := 0; w < windows; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				f()
			}
			runtime.ReadMemStats(&after)
			quietest = min(quietest, (after.Mallocs-before.Mallocs)/runs)
		}
		return quietest
	}
	returned := allocs(func() {
		tensor.New(8, 12, 8, 8)
		tensor.New(8, 8, 8, 8)
	})
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			if got := allocs(step); got > returned {
				t.Errorf("GOMAXPROCS %d: a training step allocated %d times, want %d (its two returned tensors)", procs, got, returned)
			}
		}()
	}
}

// BenchmarkConv2DStep is one training step of the small-scale conv2
// shape: a 16×8×16×16 input to 12 channels, forward plus backward.
func BenchmarkConv2DStep(b *testing.B) {
	r := mathx.NewRNG(21)
	conv, err := NewConv2D(Conv2DConfig{Name: "conv2", In: 8, Out: 12, KernelH: 3, KernelW: 3, SamePad: true}, r)
	if err != nil {
		b.Fatal(err)
	}
	x, grad := tensor.Randn(r, 1, 16, 8, 16, 16), tensor.Randn(r, 1, 16, 12, 16, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, true)
		conv.Backward(grad)
	}
}
