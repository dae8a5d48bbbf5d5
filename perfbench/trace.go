package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"time"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/opt"
	"github.com/stsl/stsl/internal/tensor"
)

// span is one timed call the benchmark made into a layer. Spans of one
// step share (client, seq); parent indexes the enclosing span in the
// same recorder (-1 at top level).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Client int    `json:"client"`
	Seq    int    `json:"seq"`
}

// tracer records spans in memory for one goroutine. A nil tracer
// records nothing, so untraced code paths pay one nil check.
type tracer struct {
	base  time.Time
	spans []span
	open  []int
}

func newTracer(base time.Time) *tracer { return &tracer{base: base} }

func (t *tracer) begin(name string, client, seq int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.base)), Parent: parent, Client: client, Seq: seq})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// child opens a span inside the innermost open one, inheriting its step.
func (t *tracer) child(name string) int {
	if t == nil {
		return -1
	}
	client, seq := -1, -1
	if n := len(t.open); n > 0 {
		p := t.spans[t.open[n-1]]
		client, seq = p.Client, p.Seq
	}
	return t.begin(name, client, seq)
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.base))
	t.open = t.open[:len(t.open)-1]
}

// appendSpans appends the spans of another recorder to dst, keeping
// their parent links pointing at the same spans.
func appendSpans(dst, src []span) []span {
	off := len(dst)
	for _, s := range src {
		if s.Parent >= 0 {
			s.Parent += off
		}
		dst = append(dst, s)
	}
	return dst
}

// spanTotals is the summed duration and self time of every span with
// one name. A span's self time is its duration minus its children's.
type spanTotals struct {
	count      int
	total, own time.Duration
}

func summarize(spans []span) map[string]*spanTotals {
	own := make([]int64, len(spans))
	for i, s := range spans {
		own[i] += s.End - s.Start
		if s.Parent >= 0 {
			own[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]*spanTotals{}
	for i, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &spanTotals{}
			out[s.Name] = t
		}
		t.count++
		t.total += time.Duration(s.End - s.Start)
		t.own += time.Duration(own[i])
	}
	return out
}

// writeSpans dumps the spans as JSON lines under the checkout's scratch
// directory when the run ends.
func writeSpans(name string, spans []span) (string, error) {
	dir := filepath.Join(scratchDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// timedLayer times one layer's Forward and Backward from outside: the
// core server calls it through the nn.Layer interface, so its spans nest
// inside the benchmark's core.process span.
type timedLayer struct {
	nn.Layer
	tr       *tracer
	fwd, bwd string
}

func (l *timedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	id := l.tr.child(l.fwd)
	y := l.Layer.Forward(x, train)
	l.tr.end(id)
	return y
}

func (l *timedLayer) Backward(g *tensor.Tensor) *tensor.Tensor {
	id := l.tr.child(l.bwd)
	y := l.Layer.Backward(g)
	l.tr.end(id)
	return y
}

// layerKind names a layer by its type: conv2d, relu, maxpool2d, ...
func layerKind(l nn.Layer) string {
	k := fmt.Sprintf("%T", l)
	return strings.ToLower(k[strings.LastIndex(k, ".")+1:])
}

// wrapStack rebuilds s from timed wrappers of its own layers; spans are
// named <prefix>.<index>.<kind>.fwd and .bwd.
func wrapStack(s *nn.Sequential, tr *tracer, prefix string) (*nn.Sequential, error) {
	var layers []nn.Layer
	for i, l := range s.Layers() {
		name := fmt.Sprintf("%s.%d.%s", prefix, i, layerKind(l))
		layers = append(layers, &timedLayer{Layer: l, tr: tr, fwd: name + ".fwd", bwd: name + ".bwd"})
	}
	return nn.NewSequential(s.Name()+"-timed", layers...)
}

// timedOpt times Optimizer.Step.
type timedOpt struct {
	opt.Optimizer
	tr   *tracer
	name string
}

func (o *timedOpt) Step(p []*nn.Param) {
	id := o.tr.child(o.name)
	o.Optimizer.Step(p)
	o.tr.end(id)
}

// ckptSink wraps the workload's checkpoint sink to count and time the
// writes the server asks for.
type ckptSink struct {
	inner  func([]*core.Server) error
	writes atomic.Int64
	nanos  atomic.Int64
}

func (c *ckptSink) write(reps []*core.Server) error {
	t0 := time.Now()
	err := c.inner(reps)
	c.nanos.Add(int64(time.Since(t0)))
	c.writes.Add(1)
	return err
}

// runtimeDelta is the change in Go runtime counters over a window.
type runtimeDelta struct {
	allocBytes, allocObjects float64
	gcCPU                    float64 // seconds, as runtime/metrics estimates it
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeDelta{val(0), val(1), val(2)}
}

func (r runtimeDelta) sub(o runtimeDelta) runtimeDelta {
	return runtimeDelta{r.allocBytes - o.allocBytes, r.allocObjects - o.allocObjects, r.gcCPU - o.gcCPU}
}

// stackFlops counts the floating-point operations of one training step
// through s for a batch of n samples shaped in: 2·MACs forward for every
// conv and dense layer, twice that backward (input and weight
// gradients). Element-wise layers are left out.
func stackFlops(s *nn.Sequential, in []int, n int) (float64, error) {
	shape := in
	total := 0.0
	for _, l := range s.Layers() {
		out, err := l.OutShape(shape)
		if err != nil {
			return 0, err
		}
		var fwd float64
		switch l.(type) {
		case *nn.Conv2D:
			// weight is (out channels, in channels·kh·kw).
			w := l.Params()[0].Value
			fwd = 2 * float64(n*out[1]*out[2]) * float64(w.Dim(0)*w.Dim(1))
		case *nn.Dense:
			w := l.Params()[0].Value
			fwd = 2 * float64(n) * float64(w.Dim(0)*w.Dim(1))
		}
		total += 3 * fwd
		shape = out
	}
	return total, nil
}
