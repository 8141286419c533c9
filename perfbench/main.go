// Command perfbench is the repository's end-to-end benchmark. One process
// starts an in-process pgwire server over a sqlexec engine with default
// settings, builds one workload's data from a seed, drives it over
// loopback with two client connections, checks every answer and prints
// every metric by name with its unit and sample count. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// measures an untraced phase and then a traced phase on the same data and
// reports the per-layer metrics plus the tracing overhead between the two.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload point_param --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every data-set size; 1 is the benchmark, the
	// self-test runs tiny sizes.
	scale float64
	// setups is how many times the data set is built; setup_s is their
	// median and the last one is measured.
	setups int
	// root is the directory the run may write under (work dirs and span
	// dumps go to root/.bench_build).
	root string
	out  io.Writer
}

func main() {
	cfg := config{out: os.Stdout, setups: 5, scale: 1}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's data and keys are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end run")
	flag.StringVar(&cfg.root, "root", ".", "checkout root; the run writes only under root/.bench_build")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatalf("-trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	if newWorkload(cfg.workload, cfg) == nil {
		fatalf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}

	res, err := run(cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Fprintln(cfg.out, string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark invocation: set-up (repeated for setup_s),
// warm-up, the measured window(s), the answer and durability checks, and
// the metric report.
func run(cfg config) (*result, error) {
	work := filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("work-%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	fmt.Fprintf(cfg.out, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)

	setups := cfg.setups
	if cfg.trace {
		setups = 1 // setup_s is an end-to-end metric; the traced run sets up once
	}
	var w workload
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		cand := newWorkload(cfg.workload, cfg)
		if err := cand.build(filepath.Join(work, fmt.Sprintf("setup%d", i))); err != nil {
			cand.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if i < setups-1 {
			if err := cand.close(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
			continue
		}
		w = cand
	}
	defer w.close()

	d := time.Duration(cfg.seconds * float64(time.Second))
	// Warm-up: fill caches and finish lazy set-up before timing. Its
	// answers are checked like any other.
	warmPh, err := measure(w, 0, nil, d/10)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	// A traced run splits the window: an untraced half, then a traced
	// half on the same data, so it costs what an end-to-end run costs.
	var tr *recorder
	var traced *phase
	if cfg.trace {
		d /= 2
	}
	ph, err := measure(w, 1, nil, d)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		tr = newRecorder()
		if traced, err = measure(w, 2, tr, d); err != nil {
			return nil, fmt.Errorf("traced phase: %w", err)
		}
	}
	if err := w.verify(); err != nil {
		ph.wrongf("final check: %v", err)
	}
	heapMB := liveHeapMB()
	if err := w.close(); err != nil {
		ph.wrongf("close: %v", err)
	}
	if err := w.checkDurable(); err != nil {
		ph.wrongf("durability: %v", err)
	}

	rep := &report{out: cfg.out, metrics: map[string]metric{}}
	for _, p := range []*phase{warmPh, traced} {
		if p != nil {
			ph.wrong = append(ph.wrong, p.wrong...)
		}
	}
	res := &result{Correct: len(ph.wrong) == 0, Metrics: rep.metrics}
	res.Attempted, res.Failed = ph.totals()
	if traced != nil {
		a, f := traced.totals()
		res.Attempted += a
		res.Failed += f
	}

	sort.Float64s(setupTimes)
	rep.section("end to end (untraced)")
	rep.add(!cfg.trace, "setup_s", setupTimes[len(setupTimes)/2], "s",
		fmt.Sprintf("median of %d set-ups: %s", len(setupTimes), floats(setupTimes, "%.3f")))
	rep.add(false, "failed_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio",
		fmt.Sprintf("%d failed of %d attempted", res.Failed, res.Attempted))
	rep.add(!cfg.trace, "ok_ratio", 1-ratio(float64(res.Failed), float64(res.Attempted)), "ratio",
		fmt.Sprintf("%d of %d attempted succeeded", res.Attempted-res.Failed, res.Attempted))
	rep.add(!cfg.trace, "live_heap_mb", heapMB, "MB", "heap in use after a forced GC at the end of the run")
	lat, rate := w.ops()
	addRate(rep, !cfg.trace, "qps", strings.Join(rate, "_")+"_qps", ph, rate...)
	addLatency(rep, !cfg.trace, "p50_ms", lat+"_p50_ms", ph, lat, 0.50)
	addLatency(rep, !cfg.trace, "p90_ms", lat+"_p90_ms", ph, lat, 0.90)
	w.report(rep, ph)
	if cfg.trace {
		rep.section("per layer (traced phase)")
		tr.report(rep, w, ph, traced)
		path := filepath.Join(cfg.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.writeSpans(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(cfg.out, "spans written to %s\n", path)
	}
	for _, name := range rep.missing {
		ph.wrongf("no samples for %s", name)
	}
	res.Correct = len(ph.wrong) == 0
	for _, msg := range ph.wrong {
		fmt.Fprintf(cfg.out, "WRONG: %s\n", msg)
	}
	return res, nil
}

// report prints metrics as aligned text and collects the ones that go
// into the JSON result.
type report struct {
	out     io.Writer
	metrics map[string]metric
	missing []string // metrics that had no samples
}

func (r *report) section(title string) { fmt.Fprintf(r.out, "-- %s\n", title) }

// add prints one metric; json selects it for the JSON result.
func (r *report) add(json bool, name string, v float64, unit, note string) {
	r.addAs(json, name, name, v, unit, note)
}

// addAs prints a metric under its descriptive name; json stores it in the
// JSON result under gate, the name BENCHMARK.json gates on every workload.
func (r *report) addAs(json bool, gate, name string, v float64, unit, note string) {
	mark, label := " ", name
	if gate != "" && gate != name {
		label = name + " [" + gate + "]"
	}
	if math.IsNaN(v) {
		// No samples: the JSON cannot carry NaN, and a gated metric
		// without samples means the load did not run.
		r.missing = append(r.missing, label)
		v = 0
	}
	if json && gate != "" {
		mark = "*"
		r.metrics[gate] = metric{Value: v, Unit: unit}
	}
	fmt.Fprintf(r.out, "%s %-40s %14.4f %-6s %s\n", mark, label, v, unit, note)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func floats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}
