package stats

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	promTypeRe   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$`)
)

// checkPrometheusText parses text-format exposition the way a scraper
// would: every line is a comment, a well-formed `# TYPE` line, or a
// sample; each sample's family was declared at most once; histogram
// bucket counts are cumulative and end at the `+Inf` == `_count` total.
func checkPrometheusText(text string) []string {
	var errs []string
	declared := map[string]bool{}
	type hist struct {
		lastLE    float64
		lastCount int64
		count     int64
		hasCount  bool
	}
	hists := map[string]*hist{} // family+labels(without le)
	for i, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if strings.HasPrefix(line, "# TYPE ") {
				if !promTypeRe.MatchString(line) {
					errs = append(errs, fmt.Sprintf("line %d: bad TYPE line %q", i+1, line))
					continue
				}
				fam := strings.Fields(line)[2]
				if declared[fam] {
					errs = append(errs, fmt.Sprintf("line %d: family %s declared twice", i+1, fam))
				}
				declared[fam] = true
			}
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			errs = append(errs, fmt.Sprintf("line %d: unparseable sample %q", i+1, line))
			continue
		}
		name, labels := m[1], m[2]
		if strings.HasSuffix(name, "_bucket") {
			key := strings.TrimSuffix(name, "_bucket") + stripLE(labels)
			h := hists[key]
			if h == nil {
				h = &hist{lastLE: math.Inf(-1)}
				hists[key] = h
			}
			le := leOf(labels)
			n, _ := strconv.ParseInt(m[7], 10, 64)
			if le <= h.lastLE {
				errs = append(errs, fmt.Sprintf("line %d: bucket le not increasing (%g after %g)", i+1, le, h.lastLE))
			}
			if n < h.lastCount {
				errs = append(errs, fmt.Sprintf("line %d: bucket count not cumulative (%d after %d)", i+1, n, h.lastCount))
			}
			h.lastLE, h.lastCount = le, n
		}
		if strings.HasSuffix(name, "_count") {
			key := strings.TrimSuffix(name, "_count") + labels
			if h := hists[key]; h != nil {
				h.count, _ = strconv.ParseInt(m[7], 10, 64)
				h.hasCount = true
			}
		}
	}
	for key, h := range hists {
		if !math.IsInf(h.lastLE, 1) {
			errs = append(errs, fmt.Sprintf("%s: buckets do not end at +Inf", key))
		}
		if !h.hasCount {
			errs = append(errs, fmt.Sprintf("%s: histogram without _count", key))
		} else if h.lastCount != h.count {
			errs = append(errs, fmt.Sprintf("%s: +Inf bucket %d != count %d", key, h.lastCount, h.count))
		}
	}
	return errs
}

func stripLE(labels string) string {
	if labels == "" {
		return ""
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var keep []string
	for _, p := range strings.Split(inner, ",") {
		if !strings.HasPrefix(p, `le="`) {
			keep = append(keep, p)
		}
	}
	if len(keep) == 0 {
		return ""
	}
	return "{" + strings.Join(keep, ",") + "}"
}

func leOf(labels string) float64 {
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	for _, p := range strings.Split(inner, ",") {
		if strings.HasPrefix(p, `le="`) {
			v := strings.TrimSuffix(strings.TrimPrefix(p, `le="`), `"`)
			if v == "+Inf" {
				return math.Inf(1)
			}
			f, _ := strconv.ParseFloat(v, 64)
			return f
		}
	}
	return math.NaN()
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry("service=v2dqp")
	r.Counter("soe_queries_total", "result=ok").Add(7)
	r.Counter("soe_queries_total", "result=error").Add(2)
	r.Gauge("soe_backlog", "node=node0").Set(3.5)
	h := r.Histogram("soe_query_ms")
	for i := 0; i < 100; i++ {
		h.Observe(float64(i))
	}
	// A label value with quote and backslash must be escaped, not break
	// the format.
	r.Counter("netsim_messages_total", `pair=a"b\c`).Inc()

	text := r.Snapshot().Prometheus()
	if errs := checkPrometheusText(text); len(errs) > 0 {
		t.Fatalf("invalid exposition: %v\n%s", errs, text)
	}
	for _, want := range []string{
		`soe_queries_total{result="error",service="v2dqp"} 2`,
		`soe_queries_total{result="ok",service="v2dqp"} 7`,
		`soe_backlog{node="node0",service="v2dqp"} 3.5`,
		`soe_query_ms_bucket{le="16",service="v2dqp"} 17`,
		`soe_query_ms_bucket{le="64",service="v2dqp"} 65`,
		`soe_query_ms_bucket{le="256",service="v2dqp"} 100`,
		`soe_query_ms_bucket{le="+Inf",service="v2dqp"} 100`,
		`soe_query_ms_sum{service="v2dqp"} 4950`,
		`soe_query_ms_count{service="v2dqp"} 100`,
		`pair="a\"b\\c"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
	// p50/p95/p99 appear with the same values as the JSON snapshot
	// (consistent export across both surfaces).
	snap := r.Snapshot()
	hs, _ := snap.HistogramNamed("soe_query_ms")
	for q, v := range map[string]float64{"p50": hs.P50, "p95": hs.P95, "p99": hs.P99} {
		want := fmt.Sprintf("soe_query_ms_%s{service=\"v2dqp\"} %s", q, formatFloat(v))
		if !strings.Contains(text, want) {
			t.Fatalf("missing quantile line %q in:\n%s", want, text)
		}
	}
}

// A microsecond-scale histogram keeps its large samples below a finite
// `le`, not only in +Inf.
func TestPrometheusMicrosecondBuckets(t *testing.T) {
	r := NewRegistry()
	r.Histogram("busy_us").Observe(20000)
	r.Histogram("busy_us").Observe(3)
	text := r.Snapshot().Prometheus()
	if errs := checkPrometheusText(text); len(errs) > 0 {
		t.Fatalf("invalid exposition: %v\n%s", errs, text)
	}
	for _, want := range []string{`busy_us_bucket{le="4"} 1`, `busy_us_bucket{le="16384"} 1`, `busy_us_bucket{le="65536"} 2`} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
}
