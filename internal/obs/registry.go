package obs

import (
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count, safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a level that moves both ways, safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Add moves the level by n (negative to lower it).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram, safe for
// concurrent use. Its lock covers one observation or one snapshot, so
// a scrape always sees bucket counts, sum and count that agree.
type Histogram struct {
	mu      sync.Mutex
	buckets []float64 // ascending upper bounds, shared by the family
	counts  []uint64  // one per bucket, plus +Inf at the end
	sum     float64
	total   uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

func (h *Histogram) snapshot() *Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	return &Histogram{buckets: h.buckets, counts: slices.Clone(h.counts), sum: h.sum, total: h.total}
}

// Vec is a metric family with a fixed label set, declared at
// registration: one child per distinct tuple of label values, created
// on first use.
type Vec[M any] struct {
	labels   int
	newChild func() *M
	mu       sync.RWMutex
	children map[string]*child[M] // key: label values joined by "\x00"
}

type child[M any] struct {
	values []string
	m      *M
}

func newVec[M any](labels int, newChild func() *M) *Vec[M] {
	return &Vec[M]{labels: labels, newChild: newChild, children: make(map[string]*child[M])}
}

// With returns the child for the given label values, in the order the
// family declared its labels. Only the first use of a tuple allocates.
func (v *Vec[M]) With(values ...string) *M {
	if len(values) != v.labels {
		panic("obs: label value count does not match the family's labels")
	}
	var buf [128]byte
	key := buf[:0]
	for i, s := range values {
		if i > 0 {
			key = append(key, 0)
		}
		key = append(key, s...)
	}
	v.mu.RLock()
	c := v.children[string(key)]
	v.mu.RUnlock()
	if c == nil {
		v.mu.Lock()
		if c = v.children[string(key)]; c == nil {
			c = &child[M]{values: slices.Clone(values), m: v.newChild()}
			v.children[string(key)] = c
		}
		v.mu.Unlock()
	}
	return c.m
}

// collect reads every child into a sample; the family lock is held
// only while the children are listed, not while they are read.
func (v *Vec[M]) collect(read func(*M, *sample)) []sample {
	v.mu.RLock()
	cs := make([]*child[M], 0, len(v.children))
	for _, c := range v.children {
		cs = append(cs, c)
	}
	v.mu.RUnlock()
	out := make([]sample, len(cs))
	for i, c := range cs {
		out[i].values = c.values
		read(c.m, &out[i])
	}
	return out
}

// Emit reports one sample of a func family: its value, then its label
// values in the order the family declared its labels.
type Emit func(v float64, labelValues ...string)

type sample struct {
	values []string
	v      float64
	hist   *Histogram // histogram families: a snapshot
}

type family struct {
	name, help, typ string
	labels          []string
	collect         func() []sample
	omitEmpty       bool // func families: left out of a scrape at which they emit nothing
}

// Registry holds metric families and renders them in registration
// order. Register every family before the first scrape; recording and
// scraping are then safe from any goroutine.
type Registry struct{ families []*family }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return new(Registry) }

func (r *Registry) add(f *family) { r.families = append(r.families, f) }

// Counter registers a counter without labels.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.add(&family{name: name, help: help, typ: "counter", collect: func() []sample {
		return []sample{{v: float64(c.Value())}}
	}})
	return c
}

// Gauge registers a gauge without labels.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := new(Gauge)
	r.add(&family{name: name, help: help, typ: "gauge", collect: func() []sample {
		return []sample{{v: float64(g.Value())}}
	}})
	return g
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *Vec[Counter] {
	v := newVec(len(labels), func() *Counter { return new(Counter) })
	r.add(&family{name: name, help: help, typ: "counter", labels: labels, collect: func() []sample {
		return v.collect(func(c *Counter, s *sample) { s.v = float64(c.Value()) })
	}})
	return v
}

// HistogramVec registers a histogram family over the ascending bucket
// upper bounds (copied) with the given label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *Vec[Histogram] {
	b := slices.Clone(buckets)
	v := newVec(len(labels), func() *Histogram {
		return &Histogram{buckets: b, counts: make([]uint64, len(b)+1)}
	})
	r.add(&family{name: name, help: help, typ: "histogram", labels: labels, collect: func() []sample {
		return v.collect(func(h *Histogram, s *sample) { s.hist = h.snapshot() })
	}})
	return v
}

// GaugeFunc registers a gauge family read at scrape time: collect
// emits each sample. A scrape at which collect emits nothing leaves the
// family out, HELP and TYPE lines included.
func (r *Registry) GaugeFunc(name, help string, labels []string, collect func(Emit)) {
	r.addFunc(name, help, "gauge", labels, collect)
}

// CounterFunc is GaugeFunc for a counter read at scrape time.
func (r *Registry) CounterFunc(name, help string, labels []string, collect func(Emit)) {
	r.addFunc(name, help, "counter", labels, collect)
}

func (r *Registry) addFunc(name, help, typ string, labels []string, collect func(Emit)) {
	r.add(&family{name: name, help: help, typ: typ, labels: labels, omitEmpty: true, collect: func() []sample {
		var out []sample
		collect(func(v float64, values ...string) {
			out = append(out, sample{values: slices.Clone(values), v: v})
		})
		return out
	}})
}

// WriteTo renders every family in the Prometheus text exposition
// format 0.0.4, samples sorted by label values. It reads every value
// before writing anything, so no lock is held, and no func family is
// being read, while w blocks.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	var b []byte
	for _, f := range r.families {
		ss := f.collect()
		if len(ss) == 0 && f.omitEmpty {
			continue
		}
		slices.SortFunc(ss, func(x, y sample) int { return slices.Compare(x.values, y.values) })
		b = append(b, "# HELP "+f.name+" "+f.help+"\n# TYPE "+f.name+" "+f.typ+"\n"...)
		for _, s := range ss {
			h := s.hist
			if h == nil {
				b = appendSample(b, f.name, f.labels, s.values, "", s.v)
				continue
			}
			var cum uint64
			for i, ub := range h.buckets {
				cum += h.counts[i]
				b = appendSample(b, f.name+"_bucket", f.labels, s.values, strconv.FormatFloat(ub, 'g', -1, 64), float64(cum))
			}
			b = appendSample(b, f.name+"_bucket", f.labels, s.values, "+Inf", float64(h.total))
			b = appendSample(b, f.name+"_sum", f.labels, s.values, "", h.sum)
			b = appendSample(b, f.name+"_count", f.labels, s.values, "", float64(h.total))
		}
	}
	n, err := w.Write(b)
	return int64(n), err
}

// labelEscaper applies the only three escapes the text format defines
// for label values; every other byte, tabs and non-ASCII included, is
// written as is.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// appendSample renders one sample line. le, when set, is a histogram
// bucket's upper bound, rendered as the last label.
func appendSample(b []byte, name string, labels, values []string, le string, v float64) []byte {
	b = append(b, name...)
	sep := byte('{')
	for i, l := range labels {
		b = append(b, sep)
		b = append(b, l+`="`...)
		b = append(b, labelEscaper.Replace(values[i])...)
		b = append(b, '"')
		sep = ','
	}
	if le != "" {
		b = append(b, sep)
		b = append(b, `le="`+le+`"`...)
		sep = ','
	}
	if sep == ',' {
		b = append(b, '}')
	}
	b = append(b, ' ')
	// Integral values print as integers ("1500000", not "1.5e+06").
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		b = strconv.AppendInt(b, int64(v), 10)
	} else {
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, '\n')
}
