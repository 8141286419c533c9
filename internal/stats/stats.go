// Package stats is the observability subsystem behind the paper's v2stats
// service (Figure 3): a lock-cheap metrics registry (counters, gauges,
// latency histograms with p50/p95/p99), hierarchical span tracing with a
// ring buffer of recent traces, and snapshot types that serialize to JSON
// for the /metrics endpoint. It is stdlib-only and imports nothing from
// the rest of the repository, so every layer — netsim, sharedlog, the
// column store, sqlexec, the SOE services, streaming — can instrument
// itself without dependency cycles.
//
// Conventions: metric names are snake_case with a _total suffix for
// counters and a _ms suffix for latency histograms; labels are "key=value"
// strings. Registries may carry base labels (e.g. "node=node3") stamped
// onto every metric they create, which is how per-node registries stay
// distinguishable after the StatsService merges them.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. All methods are safe
// on a nil receiver (metrics disabled), so call sites need no guards.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time float64 (queue depth, applied timestamp, lag).
// Safe on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram layout: log-linear buckets, subBuckets equal sub-buckets per
// power of two. Bucket k = e·subBuckets + s holds the values in
// (2^(e-1)·(1+s/subBuckets), 2^(e-1)·(1+(s+1)/subBuckets)]. Buckets are
// closed above, so every power of two is an upper bound and the
// Prometheus exposition's `le` lines count samples equal to `le`. One
// zero bucket, sorted before all others, holds the samples ≤ 0.
const (
	subBits    = 6
	subBuckets = 1 << subBits
	zeroBucket = math.MinInt32
)

// RelativeError bounds how far a reported quantile lies from the true
// nearest-rank sample, relative to that sample: a quantile is the
// midpoint of the sample's bucket, and a bucket is at most 1/subBuckets
// of its lower bound wide.
const RelativeError = 1.0 / (2 * subBuckets)

// bucketOf returns the bucket holding v.
func bucketOf(v float64) int {
	if !(v > 0) {
		return zeroBucket
	}
	frac, exp := math.Frexp(v) // v = frac·2^exp, frac in [0.5, 1)
	return exp*subBuckets + int(math.Ceil((2*frac-1)*subBuckets)) - 1
}

// bucketPoint returns the value a fraction f of the way through bucket k:
// f = 1 is its inclusive upper bound, f = 0.5 its midpoint (the value a
// quantile falling into it reports).
func bucketPoint(k int, f float64) float64 {
	if k == zeroBucket {
		return 0
	}
	return math.Ldexp(1+(float64(k&(subBuckets-1))+f)/subBuckets, k>>subBits-1)
}

// Histogram is a latency (or size) distribution over every observation
// ever made: exact count, sum, min and max, plus log-linear bucket counts
// from which quantiles are read to within RelativeError. Bucket counts
// add, so snapshots of many histograms merge exactly (see Merge). The
// zero value is ready to use, and all methods are safe on a nil
// receiver.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets map[int]int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	k := bucketOf(v)
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if h.buckets == nil {
		h.buckets = make(map[int]int64)
	}
	h.buckets[k]++
	h.mu.Unlock()
}

// ObserveSince records the elapsed time since start, in milliseconds —
// the idiom for latency instrumentation.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(float64(time.Since(start)) / float64(time.Millisecond))
}

// Count returns the lifetime number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Snapshot captures the histogram's state with P50/P95/P99 computed; Name
// and Labels are left empty.
func (h *Histogram) Snapshot() HistogramSnap {
	var s HistogramSnap
	if h == nil {
		return s
	}
	h.mu.Lock()
	s.Count, s.Sum, s.Min, s.Max = h.count, h.sum, h.min, h.max
	s.Buckets = make([]BucketSnap, 0, len(h.buckets))
	for k, n := range h.buckets {
		s.Buckets = append(s.Buckets, BucketSnap{K: k, N: n})
	}
	h.mu.Unlock()
	sort.Slice(s.Buckets, func(i, j int) bool { return s.Buckets[i].K < s.Buckets[j].K })
	s.setQuantiles()
	return s
}

// Registry names and owns metrics. Lookups take a lock-free fast path
// (sync.Map); hot call sites can additionally cache the returned pointer
// so the name+label key is never rebuilt. All methods are safe on a nil
// receiver and return nil metrics, so instrumentation can be wired
// unconditionally and enabled by supplying a registry.
type Registry struct {
	base     []string // labels stamped on every metric
	counters sync.Map // key -> *counterEntry
	gauges   sync.Map // key -> *gaugeEntry
	hists    sync.Map // key -> *histEntry
}

type counterEntry struct {
	name   string
	labels []string
	c      *Counter
}

type gaugeEntry struct {
	name   string
	labels []string
	g      *Gauge
}

type histEntry struct {
	name   string
	labels []string
	h      *Histogram
}

// NewRegistry creates a registry; baseLabels ("key=value") are attached
// to every metric it hands out.
func NewRegistry(baseLabels ...string) *Registry {
	return &Registry{base: append([]string(nil), baseLabels...)}
}

// Default is the process-wide registry used by layers with no natural
// place to plumb one through (column store internals, streaming stages).
// The SOE StatsService folds it into every collection.
var Default = NewRegistry()

func (r *Registry) canon(labels []string) []string {
	all := make([]string, 0, len(r.base)+len(labels))
	all = append(all, r.base...)
	all = append(all, labels...)
	sort.Strings(all)
	return all
}

func metricKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	return name + "{" + strings.Join(labels, ",") + "}"
}

// Counter returns (creating if needed) the counter with this name and
// label set.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	all := r.canon(labels)
	k := metricKey(name, all)
	if e, ok := r.counters.Load(k); ok {
		return e.(*counterEntry).c
	}
	e, _ := r.counters.LoadOrStore(k, &counterEntry{name: name, labels: all, c: &Counter{}})
	return e.(*counterEntry).c
}

// Gauge returns (creating if needed) the gauge with this name and label
// set.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	all := r.canon(labels)
	k := metricKey(name, all)
	if e, ok := r.gauges.Load(k); ok {
		return e.(*gaugeEntry).g
	}
	e, _ := r.gauges.LoadOrStore(k, &gaugeEntry{name: name, labels: all, g: &Gauge{}})
	return e.(*gaugeEntry).g
}

// Histogram returns (creating if needed) the histogram with this name and
// label set.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	all := r.canon(labels)
	k := metricKey(name, all)
	if e, ok := r.hists.Load(k); ok {
		return e.(*histEntry).h
	}
	e, _ := r.hists.LoadOrStore(k, &histEntry{name: name, labels: all, h: &Histogram{}})
	return e.(*histEntry).h
}

// --- snapshots ------------------------------------------------------------

// CounterSnap is one counter's state in a snapshot.
type CounterSnap struct {
	Name   string   `json:"name"`
	Labels []string `json:"labels,omitempty"`
	Value  int64    `json:"value"`
}

// GaugeSnap is one gauge's state in a snapshot.
type GaugeSnap struct {
	Name   string   `json:"name"`
	Labels []string `json:"labels,omitempty"`
	Value  float64  `json:"value"`
}

// BucketSnap is one non-empty histogram bucket: N observations fell into
// bucket K (see Histogram for the layout).
type BucketSnap struct {
	K int   `json:"k"`
	N int64 `json:"n"`
}

// HistogramSnap is one histogram's state in a snapshot: exact lifetime
// count, sum, min and max, the non-empty buckets in ascending order, and
// P50/P95/P99 precomputed from them.
type HistogramSnap struct {
	Name    string       `json:"name"`
	Labels  []string     `json:"labels,omitempty"`
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	Min     float64      `json:"min"`
	Max     float64      `json:"max"`
	P50     float64      `json:"p50"`
	P95     float64      `json:"p95"`
	P99     float64      `json:"p99"`
	Buckets []BucketSnap `json:"buckets,omitempty"`
}

// Quantile returns the nearest-rank q-quantile (0 ≤ q ≤ 1): the midpoint
// of the bucket holding rank ceil(q·Count), clamped to [Min, Max], which
// is within RelativeError of the sample at that rank. Empty histograms
// return 0.
func (s HistogramSnap) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	var cum int64
	for _, b := range s.Buckets {
		if cum += b.N; cum >= rank {
			return min(max(bucketPoint(b.K, 0.5), s.Min), s.Max)
		}
	}
	return s.Max
}

func (s *HistogramSnap) setQuantiles() {
	s.P50, s.P95, s.P99 = s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99)
}

// addBuckets returns a + sign·b by bucket, dropping buckets that end up
// empty.
func addBuckets(a, b []BucketSnap, sign int64) []BucketSnap {
	m := make(map[int]int64, len(a)+len(b))
	for _, x := range a {
		m[x.K] += x.N
	}
	for _, x := range b {
		m[x.K] += sign * x.N
	}
	out := make([]BucketSnap, 0, len(m))
	for k, n := range m {
		if n != 0 {
			out = append(out, BucketSnap{K: k, N: n})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
	return out
}

// Snapshot is a typed, JSON-serializable view of a registry (or of many
// merged registries) at one instant.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters"`
	Gauges     []GaugeSnap     `json:"gauges"`
	Histograms []HistogramSnap `json:"histograms"`
}

// Snapshot captures the registry's current state, sorted by metric key.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.counters.Range(func(_, v any) bool {
		e := v.(*counterEntry)
		s.Counters = append(s.Counters, CounterSnap{Name: e.name, Labels: e.labels, Value: e.c.Value()})
		return true
	})
	r.gauges.Range(func(_, v any) bool {
		e := v.(*gaugeEntry)
		s.Gauges = append(s.Gauges, GaugeSnap{Name: e.name, Labels: e.labels, Value: e.g.Value()})
		return true
	})
	r.hists.Range(func(_, v any) bool {
		e := v.(*histEntry)
		h := e.h.Snapshot()
		h.Name, h.Labels = e.name, e.labels
		s.Histograms = append(s.Histograms, h)
		return true
	})
	s.sort()
	return s
}

func (s *Snapshot) sort() {
	sort.Slice(s.Counters, func(i, j int) bool {
		return metricKey(s.Counters[i].Name, s.Counters[i].Labels) < metricKey(s.Counters[j].Name, s.Counters[j].Labels)
	})
	sort.Slice(s.Gauges, func(i, j int) bool {
		return metricKey(s.Gauges[i].Name, s.Gauges[i].Labels) < metricKey(s.Gauges[j].Name, s.Gauges[j].Labels)
	})
	sort.Slice(s.Histograms, func(i, j int) bool {
		return metricKey(s.Histograms[i].Name, s.Histograms[i].Labels) < metricKey(s.Histograms[j].Name, s.Histograms[j].Labels)
	})
}

// Counter returns the value of the counter with exactly this name and
// label set, and whether it exists.
func (s Snapshot) Counter(name string, labels ...string) (int64, bool) {
	labels = append([]string(nil), labels...)
	sort.Strings(labels)
	k := metricKey(name, labels)
	for _, c := range s.Counters {
		if metricKey(c.Name, c.Labels) == k {
			return c.Value, true
		}
	}
	return 0, false
}

// CountersNamed returns every counter with the given name, across label
// sets.
func (s Snapshot) CountersNamed(name string) []CounterSnap {
	var out []CounterSnap
	for _, c := range s.Counters {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// CounterTotal sums every counter with the given name across label sets —
// the cluster-wide view of a per-node metric.
func (s Snapshot) CounterTotal(name string) int64 {
	var total int64
	for _, c := range s.Counters {
		if c.Name == name {
			total += c.Value
		}
	}
	return total
}

// HistogramNamed returns the first histogram with the given name (any
// label set), and whether one exists.
func (s Snapshot) HistogramNamed(name string) (HistogramSnap, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramSnap{}, false
}

// LabelValue extracts the value of a "key=value" label, if present.
func LabelValue(labels []string, key string) (string, bool) {
	prefix := key + "="
	for _, l := range labels {
		if strings.HasPrefix(l, prefix) {
			return l[len(prefix):], true
		}
	}
	return "", false
}

// Merge combines snapshots: counters with identical name+labels sum,
// gauges take the later snapshot's value, and histograms add count, sum
// and bucket counts and keep the outer min/max, so their quantiles are
// those of one histogram fed every source's samples.
func Merge(snaps ...Snapshot) Snapshot {
	counters := map[string]*CounterSnap{}
	gauges := map[string]*GaugeSnap{}
	hists := map[string]*HistogramSnap{}
	var order []string
	for _, s := range snaps {
		for _, c := range s.Counters {
			k := "c:" + metricKey(c.Name, c.Labels)
			if e, ok := counters[k]; ok {
				e.Value += c.Value
			} else {
				cp := c
				counters[k] = &cp
				order = append(order, k)
			}
		}
		for _, g := range s.Gauges {
			k := "g:" + metricKey(g.Name, g.Labels)
			if e, ok := gauges[k]; ok {
				e.Value = g.Value
			} else {
				cp := g
				gauges[k] = &cp
				order = append(order, k)
			}
		}
		for _, h := range s.Histograms {
			k := "h:" + metricKey(h.Name, h.Labels)
			if e, ok := hists[k]; ok {
				if h.Count > 0 {
					if e.Count == 0 || h.Min < e.Min {
						e.Min = h.Min
					}
					if e.Count == 0 || h.Max > e.Max {
						e.Max = h.Max
					}
				}
				e.Count += h.Count
				e.Sum += h.Sum
				e.Buckets = addBuckets(e.Buckets, h.Buckets, 1)
				e.setQuantiles()
			} else {
				cp := h
				hists[k] = &cp
				order = append(order, k)
			}
		}
	}
	var out Snapshot
	for _, k := range order {
		switch k[0] {
		case 'c':
			out.Counters = append(out.Counters, *counters[k])
		case 'g':
			out.Gauges = append(out.Gauges, *gauges[k])
		case 'h':
			out.Histograms = append(out.Histograms, *hists[k])
		}
	}
	out.sort()
	return out
}

// Delta reports what happened between two snapshots of the same
// registries. Counters and histograms are subtracted (new ones pass
// through) and dropped when unchanged; gauges are taken from after. A
// histogram delta's min and max are the midpoints of its outermost
// buckets, clamped to after's min and max. Benchmark harnesses use this
// to report what one phase did.
func Delta(before, after Snapshot) Snapshot {
	prev := map[string]int64{}
	for _, c := range before.Counters {
		prev[metricKey(c.Name, c.Labels)] = c.Value
	}
	prevH := map[string]HistogramSnap{}
	for _, h := range before.Histograms {
		prevH[metricKey(h.Name, h.Labels)] = h
	}
	var out Snapshot
	for _, c := range after.Counters {
		d := c.Value - prev[metricKey(c.Name, c.Labels)]
		if d != 0 {
			out.Counters = append(out.Counters, CounterSnap{Name: c.Name, Labels: c.Labels, Value: d})
		}
	}
	out.Gauges = append(out.Gauges, after.Gauges...)
	for _, h := range after.Histograms {
		b := prevH[metricKey(h.Name, h.Labels)]
		if h.Count == b.Count {
			continue
		}
		d := HistogramSnap{Name: h.Name, Labels: h.Labels, Count: h.Count - b.Count, Sum: h.Sum - b.Sum,
			Min: h.Min, Max: h.Max, Buckets: addBuckets(h.Buckets, b.Buckets, -1)}
		d.Min, d.Max = d.Quantile(0), d.Quantile(1) // outermost bucket midpoints, clamped
		d.setQuantiles()
		out.Histograms = append(out.Histograms, d)
	}
	out.sort()
	return out
}

// String renders the snapshot as aligned text (shell, logs).
func (s Snapshot) String() string {
	var sb strings.Builder
	for _, c := range s.Counters {
		fmt.Fprintf(&sb, "counter    %-44s %d\n", metricKey(c.Name, c.Labels), c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(&sb, "gauge      %-44s %g\n", metricKey(g.Name, g.Labels), g.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(&sb, "histogram  %-44s n=%d sum=%.2f min=%.3f max=%.3f p50=%.3f p95=%.3f p99=%.3f\n",
			metricKey(h.Name, h.Labels), h.Count, h.Sum, h.Min, h.Max, h.P50, h.P95, h.P99)
	}
	return sb.String()
}
