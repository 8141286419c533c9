package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := &Histogram{}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := h.Snapshot().Quantile(q); v != 0 {
			t.Fatalf("empty histogram q%.2f = %v, want 0", q, v)
		}
	}
	snap := h.Snapshot()
	if snap.Count != 0 || snap.Sum != 0 || snap.Min != 0 || snap.Max != 0 || snap.P50 != 0 || snap.P99 != 0 {
		t.Fatalf("empty snapshot not zeroed: %+v", snap)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := &Histogram{}
	h.Observe(42)
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if v := h.Snapshot().Quantile(q); v != 42 {
			t.Fatalf("single-sample q%.2f = %v, want 42", q, v)
		}
	}
	snap := h.Snapshot()
	if snap.Count != 1 || snap.Sum != 42 || snap.Min != 42 || snap.Max != 42 {
		t.Fatalf("single-sample snapshot wrong: %+v", snap)
	}
}

// nearestRank is the exact oracle: the sample at rank ceil(q·n) of the
// sorted samples.
func nearestRank(samples []float64, q float64) float64 {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

var testQuantiles = []float64{0, 0.01, 0.5, 0.9, 0.95, 0.99, 0.999, 1}

// checkQuantiles asserts every test quantile of snap lies within
// RelativeError of the oracle over samples.
func checkQuantiles(t *testing.T, label string, snap HistogramSnap, samples []float64) {
	t.Helper()
	for _, q := range testQuantiles {
		got, want := snap.Quantile(q), nearestRank(samples, q)
		if math.Abs(got-want) > RelativeError*math.Abs(want) {
			t.Fatalf("%s: q%v = %v, want %v within %v", label, q, got, want, RelativeError)
		}
	}
	for q, got := range map[float64]float64{0.50: snap.P50, 0.95: snap.P95, 0.99: snap.P99} {
		if got != snap.Quantile(q) {
			t.Fatalf("%s: precomputed p%v = %v, Quantile says %v", label, q*100, got, snap.Quantile(q))
		}
	}
}

func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, rng.Float64())
}

// TestHistogramQuantiles compares quantiles with the exact
// nearest-rank oracle across distributions: every quantile within
// RelativeError, count/min/max/sum exact.
func TestHistogramQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []struct {
		name string
		n    int
		gen  func(i int) float64
	}{
		{"ints 1..100", 100, func(i int) float64 { return float64(i%100 + 1) }},
		{"half zeros", 1000, func(i int) float64 {
			if i%2 == 0 {
				return 0
			}
			return rng.ExpFloat64()
		}},
		{"sub-µs", 1000, func(int) float64 { return logUniform(rng, 1e-7, 1e-3) }},
		{"1e-3..1e7", 5000, func(int) float64 { return logUniform(rng, 1e-3, 1e7) }},
		{"lognormal, 20000 samples", 20000, func(int) float64 { return math.Exp(rng.NormFloat64()*2 + 1) }},
	} {
		h := &Histogram{}
		samples := make([]float64, d.n)
		var sum float64
		for i := range samples {
			samples[i] = d.gen(i)
			sum += samples[i]
			h.Observe(samples[i])
		}
		snap := h.Snapshot()
		if snap.Count != int64(len(samples)) || snap.Sum != sum ||
			snap.Min != nearestRank(samples, 0) || snap.Max != nearestRank(samples, 1) {
			t.Fatalf("%s: lifetime stats wrong: count=%d sum=%v min=%v max=%v", d.name, snap.Count, snap.Sum, snap.Min, snap.Max)
		}
		checkQuantiles(t, d.name, snap, samples)
	}
	// Buckets close above: each upper bound (every power of two among
	// them) lands in its own bucket, the next float in the next bucket.
	for k := -30 * subBuckets; k <= 30*subBuckets; k++ {
		hi := bucketPoint(k, 1)
		if bucketOf(hi) != k || bucketOf(math.Nextafter(hi, math.Inf(1))) != k+1 {
			t.Fatalf("bucket %d: upper bound %v not closed above", k, hi)
		}
	}
}

// TestMergeThroughJSON merges three registries' snapshots after a JSON
// round trip (as the StatsService ships them) and expects exactly the
// quantiles of one histogram fed every sample. Samples are multiples of
// 2^-10, so every partial sum is exact and Sum compares equal whatever
// the addition order.
func TestMergeThroughJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	all := &Histogram{}
	var samples []float64
	var snaps []Snapshot
	for node, scale := range []float64{1, 10, 1000} {
		r := NewRegistry()
		for i := 0; i < 3000; i++ {
			v := math.Round(rng.ExpFloat64()*scale*1024) / 1024
			r.Histogram("lat_ms").Observe(v)
			all.Observe(v)
			samples = append(samples, v)
		}
		data, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatalf("node %d: marshal: %v", node, err)
		}
		var back Snapshot
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("node %d: unmarshal: %v", node, err)
		}
		snaps = append(snaps, back)
	}
	got, _ := Merge(snaps...).HistogramNamed("lat_ms")
	want := all.Snapshot()
	if got.Count != want.Count || got.Sum != want.Sum || got.Min != want.Min || got.Max != want.Max ||
		got.P50 != want.P50 || got.P95 != want.P95 || got.P99 != want.P99 {
		t.Fatalf("merged %+v\nwant   %+v", got, want)
	}
	checkQuantiles(t, "merged", got, samples)
}

func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Half the increments re-resolve the counter through the
				// registry (the lock-free lookup path), half use a cached
				// pointer — both must be race-free.
				r.Counter("hits_total", "svc=a").Inc()
				c := r.Counter("hits_total", "svc=b")
				c.Inc()
				r.Histogram("lat_ms").Observe(float64(i))
				r.Gauge("depth").Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("hits_total", "svc=a").Value(); v != goroutines*perG {
		t.Fatalf("svc=a count = %d, want %d", v, goroutines*perG)
	}
	if v := r.Counter("hits_total", "svc=b").Value(); v != goroutines*perG {
		t.Fatalf("svc=b count = %d, want %d", v, goroutines*perG)
	}
	if n := r.Histogram("lat_ms").Count(); n != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", n, goroutines*perG)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(3)
	r.Histogram("z").Observe(1)
	if v := r.Counter("x").Value(); v != 0 {
		t.Fatalf("nil registry counter = %d", v)
	}
	if got := r.Snapshot(); len(got.Counters) != 0 {
		t.Fatalf("nil registry snapshot non-empty")
	}
	var tr *Tracer
	sp := tr.Start("op")
	sp.Child("sub").Finish()
	sp.Finish()
	if tr.Total() != 0 || sp.Duration() != 0 {
		t.Fatal("nil tracer recorded something")
	}
}

func TestRegistryBaseLabelsAndSnapshot(t *testing.T) {
	r := NewRegistry("node=n1")
	r.Counter("q_total", "table=orders").Add(7)
	r.Gauge("applied_ts").Set(99)
	r.Histogram("exec_ms").Observe(1.5)
	snap := r.Snapshot()
	v, ok := snap.Counter("q_total", "node=n1", "table=orders")
	if !ok || v != 7 {
		t.Fatalf("labeled counter lookup: %v %v", v, ok)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 99 {
		t.Fatalf("gauge snapshot: %+v", snap.Gauges)
	}
	if node, ok := LabelValue(snap.Counters[0].Labels, "node"); !ok || node != "n1" {
		t.Fatalf("base label missing: %v", snap.Counters[0].Labels)
	}

	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("snapshot does not unmarshal: %v", err)
	}
	if v, ok := back.Counter("q_total", "node=n1", "table=orders"); !ok || v != 7 {
		t.Fatalf("roundtripped counter: %v %v", v, ok)
	}
}

func TestMergeAndDelta(t *testing.T) {
	a := NewRegistry("node=a")
	b := NewRegistry("node=b")
	a.Counter("q_total").Add(3)
	b.Counter("q_total").Add(5)
	a.Histogram("lat_ms").Observe(10)
	b.Histogram("lat_ms").Observe(30)

	m := Merge(a.Snapshot(), b.Snapshot())
	if got := m.CounterTotal("q_total"); got != 8 {
		t.Fatalf("merged total = %d, want 8", got)
	}
	if len(m.CountersNamed("q_total")) != 2 {
		t.Fatal("per-node counters collapsed despite distinct labels")
	}

	// Identical label sets must sum.
	c1 := Snapshot{Counters: []CounterSnap{{Name: "x", Value: 2}}}
	c2 := Snapshot{Counters: []CounterSnap{{Name: "x", Value: 3}}}
	if v, _ := Merge(c1, c2).Counter("x"); v != 5 {
		t.Fatalf("same-key merge = %d, want 5", v)
	}

	// Histogram merge: the quantiles are those of the combined samples,
	// not the larger of each source's.
	fast, slow := NewRegistry(), NewRegistry()
	for i := 0; i < 1000; i++ {
		fast.Histogram("h").Observe(1)
	}
	for i := 0; i < 10; i++ {
		slow.Histogram("h").Observe(100)
	}
	hm, _ := Merge(fast.Snapshot(), slow.Snapshot()).HistogramNamed("h")
	if hm.Count != 1010 || hm.Sum != 2000 || hm.Min != 1 || hm.Max != 100 {
		t.Fatalf("histogram merge wrong: %+v", hm)
	}
	if p999 := hm.Quantile(0.999); math.Abs(hm.P50-1) > RelativeError || math.Abs(hm.P99-1) > RelativeError ||
		math.Abs(p999-100) > 100*RelativeError {
		t.Fatalf("merged p50=%v p99=%v p999=%v, want 1, 1 and 100", hm.P50, hm.P99, p999)
	}

	before := c1
	after := Snapshot{Counters: []CounterSnap{{Name: "x", Value: 9}, {Name: "y", Value: 4}}}
	d := Delta(before, after)
	if v, _ := d.Counter("x"); v != 7 {
		t.Fatalf("delta x = %d, want 7", v)
	}
	if v, _ := d.Counter("y"); v != 4 {
		t.Fatalf("delta y = %d, want 4", v)
	}
}

// TestDeltaHistogram: a histogram delta describes only the samples
// observed between the two snapshots.
func TestDeltaHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := NewRegistry()
	r.Histogram("idle_ms").Observe(5)
	for i := 0; i < 5000; i++ {
		r.Histogram("lat_ms").Observe(logUniform(rng, 1e-3, 1e6))
	}
	before := r.Snapshot()
	var phase []float64
	var sum float64
	for i := 0; i < 2000; i++ {
		v := logUniform(rng, 0.5, 50)
		phase = append(phase, v)
		sum += v
		r.Histogram("lat_ms").Observe(v)
	}
	d := Delta(before, r.Snapshot())
	if _, ok := d.HistogramNamed("idle_ms"); ok {
		t.Fatal("unchanged histogram kept in delta")
	}
	h, ok := d.HistogramNamed("lat_ms")
	if !ok || h.Count != int64(len(phase)) || math.Abs(h.Sum-sum) > 1e-9*sum {
		t.Fatalf("delta count/sum wrong: %+v (want n=%d sum=%v)", h, len(phase), sum)
	}
	for _, m := range []struct{ got, want float64 }{{h.Min, nearestRank(phase, 0)}, {h.Max, nearestRank(phase, 1)}} {
		if math.Abs(m.got-m.want) > RelativeError*m.want {
			t.Fatalf("delta min/max %v, want %v", m.got, m.want)
		}
	}
	checkQuantiles(t, "delta", h, phase)
}

// Snapshot.Counter must not reorder the caller's label slice.
func TestSnapshotCounterKeepsCallerLabels(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "b=1", "a=1").Inc()
	labels := []string{"b=1", "a=1"}
	if v, ok := r.Snapshot().Counter("x_total", labels...); !ok || v != 1 {
		t.Fatalf("lookup: %v %v", v, ok)
	}
	if labels[0] != "b=1" || labels[1] != "a=1" {
		t.Fatalf("caller's labels reordered: %v", labels)
	}
}
