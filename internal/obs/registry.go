package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Labels attach dimensions to a metric ({policy="fifo"}). Each distinct
// label set of a family is its own time series; keep cardinality low
// (policy names, client ids at bench scale — not request ids).
type Labels map[string]string

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one registered time series: a family name plus one label set.
type series struct {
	name   string // family name
	labels string // rendered {k="v",...} or ""
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// Registry is a named-metric collection: get-or-create constructors for
// each metric type (so instrumented packages and scrapers share
// instances by name), Prometheus text exposition, and a Reset used by
// the bench harness to reuse one registry across grid cells instead of
// leaking fresh metric graphs per run. All methods are safe for
// concurrent use. A nil Registry hands out nil metrics, which are
// no-ops — callers can plumb telemetry unconditionally.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*series)}
}

// renderLabels produces the canonical {k="v",...} fragment, sorted by
// key, with Prometheus escaping — it doubles as the series map key.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		v := labels[k]
		v = strings.ReplaceAll(v, `\`, `\\`)
		v = strings.ReplaceAll(v, "\n", `\n`)
		v = strings.ReplaceAll(v, `"`, `\"`)
		b.WriteString(v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// register returns the existing series for (name, labels) or creates it
// via build. Re-registering the same series with a different kind
// panics: that is a programming error, not a runtime condition.
func (r *Registry) register(name string, labels Labels, kind metricKind, build func(*series)) *series {
	lbl := renderLabels(labels)
	key := name + lbl
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: metric %s already registered as %s, requested %s", key, s.kind, kind))
		}
		return s
	}
	s := &series{name: name, labels: lbl, kind: kind}
	build(s)
	r.series[key] = s
	return s
}

// Counter returns the counter named name with the given labels,
// creating it on first use. labels may be nil.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, labels, kindCounter, func(s *series) { s.counter = &Counter{} }).counter
}

// Gauge returns the gauge named name with the given labels, creating it
// on first use.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, labels, kindGauge, func(s *series) { s.gauge = &Gauge{} }).gauge
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time — the bridge for values another component already tracks.
// Re-registration replaces the function.
func (r *Registry) GaugeFunc(name string, labels Labels, fn func() float64) {
	if r == nil {
		return
	}
	s := r.register(name, labels, kindGaugeFunc, func(s *series) {})
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// Histogram returns the histogram named name with the given labels,
// creating it on first use.
func (r *Registry) Histogram(name string, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, labels, kindHistogram, func(s *series) { s.hist = &Histogram{} }).hist
}

// Reset zeroes every counter, gauge, and histogram while keeping the
// registrations (and their holders' pointers) intact. GaugeFuncs are
// left alone — their state lives elsewhere. It is the wipe between
// measurements (perfbench's window start, back-to-back runs sharing one
// registry). Each store is atomic, but a record racing it may leave a
// histogram's count and buckets briefly out of step.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.series {
		switch s.kind {
		case kindCounter:
			s.counter.reset()
		case kindGauge:
			s.gauge.reset()
		case kindHistogram:
			s.hist.reset()
		}
	}
}

// formatFloat renders a sample value in Prometheus text style.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every registered series in the Prometheus text
// exposition format (version 0.0.4), families sorted by name, one
// # TYPE line per family. Histograms expose cumulative le buckets plus
// _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	all := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		all = append(all, s)
	}
	r.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].name != all[j].name {
			return all[i].name < all[j].name
		}
		return all[i].labels < all[j].labels
	})
	prevFamily := ""
	for _, s := range all {
		if s.name != prevFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.name, s.kind); err != nil {
				return err
			}
			prevFamily = s.name
		}
		var err error
		switch s.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s%s %d\n", s.name, s.labels, s.counter.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s%s %s\n", s.name, s.labels, formatFloat(s.gauge.Value()))
		case kindGaugeFunc:
			_, err = fmt.Fprintf(w, "%s%s %s\n", s.name, s.labels, formatFloat(s.fn()))
		case kindHistogram:
			err = writePromHistogram(w, s)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram emits one histogram series: cumulative buckets,
// sum, count. Bucket labels splice le into the existing label set.
func writePromHistogram(w io.Writer, s *series) error {
	withLE := func(le string) string {
		if s.labels == "" {
			return `{le="` + le + `"}`
		}
		return s.labels[:len(s.labels)-1] + `,le="` + le + `"}`
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += s.hist.counts[i].Load()
		le := formatFloat(bucketBound(i))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, withLE(le), cum); err != nil {
			return err
		}
	}
	cum += s.hist.counts[histOverflow].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, withLE("+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.name, s.labels, formatFloat(s.hist.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", s.name, s.labels, cum)
	return err
}
