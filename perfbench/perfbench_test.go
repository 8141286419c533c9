package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny runs one workload at a hundredth of its size for half a second.
func tiny(t *testing.T, workload string, trace bool) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	cfg := config{workload: workload, seed: 3, seconds: 0.5, trace: trace, scale: 0.01, setups: 1,
		root: t.TempDir(), out: &out}
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	return res, out.String()
}

// Every workload in BENCHMARK.json runs and emits exactly the metrics
// BENCHMARK.json names, each with its unit: the end-to-end ones untraced,
// the per-layer ones traced.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(s.Workloads), len(workloads))
	}
	for _, wl := range s.Workloads {
		if workloads[wl.Name] == nil {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", wl.Name)
		}
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			res, out := tiny(t, wl.Name, trace)
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d\n%s", wl.Name, trace, res.Correct, res.Attempted, out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %q", wl.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// A deliberately wrong expected answer, or an acknowledged insert that is
// not in the WAL, makes the run incorrect.
func TestWrongAnswerFailsRun(t *testing.T) {
	cases := []struct {
		name, workload string
		mk             func(cfg config) workload
	}{
		{"point value", "point_param", func(cfg config) workload {
			w := newPointParam(cfg)
			w.want = func(k int64) string { return "v" }
			return w
		}},
		{"warm report sum", "warm_scan", func(cfg config) workload {
			w := newWarmScan(cfg)
			w.oracle = func(lo, hi int64) [nWarmRegions]totals {
				want := w.expected(lo, hi)
				want[0].sum++
				return want
			}
			return w
		}},
		{"htap seed count", "htap_ingest", func(cfg config) workload { return &wrongSeed{newHTAPIngest(cfg)} }},
		{"htap lost insert", "htap_ingest", func(cfg config) workload { return &lostInsert{newHTAPIngest(cfg)} }},
	}
	for _, c := range cases {
		orig := workloads[c.workload]
		workloads[c.workload] = c.mk
		res, out := tiny(t, c.workload, false)
		workloads[c.workload] = orig
		if res.Correct || !strings.Contains(out, "WRONG:") {
			t.Errorf("%s: run with a wrong expected answer reported correct\n%s", c.name, out)
		}
	}
}

// wrongSeed expects one seed row more than was loaded.
type wrongSeed struct{ *htapIngest }

func (w *wrongSeed) build(dir string) error {
	err := w.htapIngest.build(dir)
	w.seedTot[0].n++
	return err
}

// lostInsert claims an acknowledgement for an insert that was never sent.
type lostInsert struct{ *htapIngest }

func (w *lostInsert) verify() error {
	err := w.htapIngest.verify()
	w.ackedIDs = append(w.ackedIDs, -1)
	return err
}
