package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelThreshold is the minimum amount of work (multiply-adds, or
// elements copied) before a kernel fans out to goroutines; below it the
// serial path wins.
const parallelThreshold = 1 << 18

// task is one parallel region: run processes the units [lo,hi) of the
// region's work and must write only the outputs those units own.
type task interface {
	run(lo, hi int)
}

// region is the shared state of one fan-out: the ranges not yet
// claimed and the helpers still running. A task that fans out owns one
// region and reuses it; regions must not overlap in time.
type region struct {
	wg                   sync.WaitGroup
	next                 atomic.Int32
	units, align, chunks int
	pieces               int
}

// bound returns the first unit of piece i.
func (r *region) bound(i int) int {
	return min(r.units, r.align*(i*r.chunks/r.pieces))
}

// drain runs pieces of t until none is left unclaimed.
func (r *region) drain(t task) {
	for {
		i := int(r.next.Add(1)) - 1
		if i >= r.pieces {
			return
		}
		t.run(r.bound(i), r.bound(i+1))
	}
}

// part hands a region to a helper goroutine.
type part struct {
	t task
	r *region
}

var (
	// active counts the goroutines inside fan-out regions: every caller
	// while its region runs, plus every borrowed helper. A region borrows
	// a helper only while active is below GOMAXPROCS, so concurrent
	// regions (say, the replicas of a worker pool) share the cores
	// instead of each claiming all of them. It is package-wide because
	// the cores are: no single caller sees the others.
	active atomic.Int32
	// parts carries regions to the helpers started for them. Each helper
	// is spawned for one region and exits when the region has no piece
	// left, so no goroutine outlives its region; passing the region
	// through a channel instead of a closure keeps the spawn
	// allocation-free. At most cap(parts) helpers are borrowed at once
	// (see fanOut's limit), so a send never waits.
	parts = make(chan part, 64)
)

// piecesPerWorker is how many pieces a region is cut into per
// participating goroutine. Pieces are claimed dynamically, so a helper
// that starts late (it has to be woken) takes fewer of them instead of
// holding the whole region back.
const piecesPerWorker = 4

// fanOut runs t over units [0,units), cut into contiguous pieces whose
// boundaries are multiples of align. The caller works through the
// pieces itself, joined by helper goroutines borrowed from idle cores.
// When work (in multiply-adds) is below parallelThreshold, or no core is
// idle, t runs inline as one range. fanOut returns after every piece
// has finished.
//
// A task's result must not depend on how its units are split: every
// output element is written by exactly one unit, in an order fixed by
// the problem alone. The kernels in this package hold to that, which is
// what keeps every parallel result bitwise equal to the serial one at
// any GOMAXPROCS.
func fanOut(t task, r *region, units, align, work int) {
	chunks := (units + align - 1) / align
	if work < parallelThreshold || chunks < 2 {
		t.run(0, units)
		return
	}
	limit := int32(min(runtime.GOMAXPROCS(0), cap(parts)+1))
	active.Add(1)
	n := 1
	for n < chunks {
		a := active.Load()
		if a >= limit {
			break
		}
		if active.CompareAndSwap(a, a+1) {
			n++
		}
	}
	if n == 1 {
		active.Add(-1)
		t.run(0, units)
		return
	}
	r.units, r.align, r.chunks = units, align, chunks
	r.pieces = min(chunks, piecesPerWorker*n)
	r.next.Store(0)
	r.wg.Add(n - 1)
	for p := 1; p < n; p++ {
		go runPart()
		parts <- part{t: t, r: r}
	}
	r.drain(t)
	r.wg.Wait()
	active.Add(-1)
}

// runPart is the body of one borrowed helper: work through a region's
// pieces, give the core back, exit.
func runPart() {
	p := <-parts
	p.r.drain(p.t)
	active.Add(-1)
	p.r.wg.Done()
}
