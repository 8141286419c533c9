package stats

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file renders a Snapshot in the Prometheus text exposition format
// (version 0.0.4) by hand — the repo is stdlib-only. Counters map to
// `counter`, gauges to `gauge`, histograms to a real `histogram` family
// (cumulative `_bucket{le=...}` lines plus `_sum` and `_count`). The `le`
// values are the powers of four from 4^-5 (≈0.001) to 4^10 (≈1e6), which
// spans microseconds to minutes in _ms histograms; each is a bucket upper
// bound, so the cumulative counts are exact and include samples equal to
// `le`. A scraper can only interpolate quantiles between those coarse
// bounds, so each histogram's own p50/p95/p99 — the same three values the
// JSON snapshot carries — are additionally exported as
// `<name>_p50|_p95|_p99` gauge families.

// PrometheusContentType is the Content-Type for the text exposition.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// Prometheus renders the snapshot in the Prometheus text format.
func (s Snapshot) Prometheus() string {
	var sb strings.Builder

	writeFamily(&sb, "counter", s.Counters, func(c CounterSnap) (string, []string, string) {
		return c.Name, c.Labels, strconv.FormatInt(c.Value, 10)
	})
	writeFamily(&sb, "gauge", s.Gauges, func(g GaugeSnap) (string, []string, string) {
		return g.Name, g.Labels, formatFloat(g.Value)
	})

	var lastName string
	for _, h := range s.Histograms {
		if h.Name != lastName {
			fmt.Fprintf(&sb, "# TYPE %s histogram\n", promName(h.Name))
			lastName = h.Name
		}
		name := promName(h.Name)
		var cum int64
		i := 0
		for e := -10; e <= 20; e += 2 {
			le := math.Ldexp(1, e)
			for ; i < len(h.Buckets) && bucketPoint(h.Buckets[i].K, 1) <= le; i++ {
				cum += h.Buckets[i].N
			}
			sb.WriteString(name + "_bucket" + promLabels(h.Labels, `le="`+formatFloat(le)+`"`) + " " + strconv.FormatInt(cum, 10) + "\n")
		}
		sb.WriteString(name + "_bucket" + promLabels(h.Labels, `le="+Inf"`) + " " + strconv.FormatInt(h.Count, 10) + "\n")
		sb.WriteString(name + "_sum" + promLabels(h.Labels) + " " + formatFloat(h.Sum) + "\n")
		sb.WriteString(name + "_count" + promLabels(h.Labels) + " " + strconv.FormatInt(h.Count, 10) + "\n")
	}

	// The histograms' own percentiles as gauge families, one per quantile.
	for _, q := range []struct {
		suffix string
		get    func(HistogramSnap) float64
	}{
		{"_p50", func(h HistogramSnap) float64 { return h.P50 }},
		{"_p95", func(h HistogramSnap) float64 { return h.P95 }},
		{"_p99", func(h HistogramSnap) float64 { return h.P99 }},
	} {
		lastName = ""
		for _, h := range s.Histograms {
			if h.Name != lastName {
				fmt.Fprintf(&sb, "# TYPE %s gauge\n", promName(h.Name)+q.suffix)
				lastName = h.Name
			}
			sb.WriteString(promName(h.Name) + q.suffix + promLabels(h.Labels) + " " + formatFloat(q.get(h)) + "\n")
		}
	}
	return sb.String()
}

// writeFamily emits TYPE headers once per metric name (the snapshot is
// sorted, so equal names are adjacent) followed by the sample lines.
func writeFamily[T any](sb *strings.Builder, typ string, items []T, get func(T) (string, []string, string)) {
	lastName := ""
	for _, it := range items {
		name, labels, val := get(it)
		if name != lastName {
			fmt.Fprintf(sb, "# TYPE %s %s\n", promName(name), typ)
			lastName = name
		}
		sb.WriteString(promName(name) + promLabels(labels) + " " + val + "\n")
	}
}

// promName sanitizes a metric name to [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var sb strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if ok {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	if sb.Len() == 0 {
		return "_"
	}
	return sb.String()
}

var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promLabels renders "key=value" labels (plus pre-rendered extras like
// le="...") as a {k="v",...} block; empty input renders nothing.
func promLabels(labels []string, extra ...string) string {
	if len(labels) == 0 && len(extra) == 0 {
		return ""
	}
	parts := make([]string, 0, len(labels)+len(extra))
	for _, l := range labels {
		k, v := l, ""
		if i := strings.IndexByte(l, '='); i >= 0 {
			k, v = l[:i], l[i+1:]
		}
		parts = append(parts, promLabelKey(k)+`="`+promEscaper.Replace(v)+`"`)
	}
	parts = append(parts, extra...)
	sort.Strings(parts)
	return "{" + strings.Join(parts, ",") + "}"
}

// promLabelKey sanitizes a label key to [a-zA-Z_][a-zA-Z0-9_]*.
func promLabelKey(k string) string {
	var sb strings.Builder
	for i, r := range k {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if ok {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	if sb.Len() == 0 {
		return "_"
	}
	return sb.String()
}

// formatFloat renders a float the way the exposition format expects
// (NaN, +Inf, -Inf spelled out).
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
