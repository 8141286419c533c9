package sqlexec

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

// sysTestEngine builds an engine with data and a recorded workload so the
// monitoring views have something to show.
func sysTestEngine(t testing.TB) *Engine {
	t.Helper()
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE acct (id INT, region VARCHAR, bal DOUBLE)`)
	for i := 0; i < 20; i++ {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO acct VALUES (%d, '%s', %f)`,
			i, []string{"EMEA", "AMER"}[i%2], float64(i)))
	}
	for i := 0; i < 5; i++ {
		mustExec(t, e, `SELECT region, COUNT(*) FROM acct GROUP BY region`)
	}
	return e
}

// TestSysViewsAllModes scans every engine-local monitoring view under both
// executors: virtual tables must resolve and materialize identically
// whether the plan is interpreted or vectorized.
func TestSysViewsAllModes(t *testing.T) {
	e := sysTestEngine(t)
	views := e.SysViews().Names()
	if len(views) < 9 {
		t.Fatalf("expected >= 9 engine views, got %v", views)
	}
	for _, m := range []struct {
		name string
		mode Mode
	}{{"interpreted", ModeInterpreted}, {"vectorized", ModeVectorized}} {
		e.Mode = m.mode
		for _, v := range views {
			res, err := e.Query(`SELECT * FROM ` + v)
			if err != nil {
				t.Fatalf("%s: SELECT * FROM %s: %v", m.name, v, err)
			}
			st, _ := e.SysViews().Lookup(v)
			if len(res.Cols) != len(st.Schema) {
				t.Fatalf("%s: %s returned %d cols, schema has %d", m.name, v, len(res.Cols), len(st.Schema))
			}
		}
		// Projection, filter, aggregate and ORDER BY over a virtual table.
		res := mustExec(t, e,
			`SELECT fingerprint_id, calls FROM sys.m_statements WHERE calls > 1 ORDER BY calls DESC`)
		if len(res.Rows) == 0 {
			t.Fatalf("%s: no aggregated statements with calls > 1", m.name)
		}
	}
}

// TestStatementStatsAggregation checks the fingerprint rollup: repeated
// executions with different literals are one row, capacity eviction keeps
// the hottest entries, and the view reflects both.
func TestStatementStatsAggregation(t *testing.T) {
	e := sysTestEngine(t)
	sts := e.StatementStats()
	byNorm := map[string]StatementStat{}
	for _, s := range sts {
		byNorm[s.Query] = s
	}
	ins, ok := byNorm[`INSERT INTO acct VALUES (?, ?, ?)`]
	if !ok || ins.Calls != 20 {
		t.Fatalf("INSERT not aggregated to 20 calls: %+v (have %d shapes)", ins, len(sts))
	}
	_, aggNorm := Fingerprint(`SELECT region, COUNT(*) FROM acct GROUP BY region`)
	agg, ok := byNorm[aggNorm]
	if !ok || agg.Calls != 5 || agg.Rows != 10 {
		t.Fatalf("GROUP BY shape wrong: %+v", agg)
	}
	if agg.TotalMs < agg.MaxMs || agg.P99Ms < agg.P50Ms {
		t.Fatalf("latency stats implausible: %+v", agg)
	}

	// Errors are counted on the same fingerprint, not dropped.
	e.Query(`SELECT nope FROM acct`)
	found := false
	for _, s := range e.StatementStats() {
		if s.Query == `SELECT nope FROM acct` && s.Errors == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("failed statement not recorded with errors=1")
	}

	// Capacity: the log evicts the least-called shapes, keeps the hottest.
	for i := 0; i < 40; i++ {
		mustExec(t, e, fmt.Sprintf(`SELECT * FROM acct WHERE id = %d`, i))
	}
	for i := 0; i <= stmtLogCap; i++ {
		mustExec(t, e, fmt.Sprintf(`SELECT id AS c%d FROM acct WHERE id = 1`, i))
	}
	sts = e.StatementStats()
	if len(sts) > stmtLogCap {
		t.Fatalf("capacity %d but %d entries retained", stmtLogCap, len(sts))
	}
	if e.StatementEvictions() == 0 {
		t.Fatal("no evictions counted")
	}
	keep := false
	for _, s := range sts {
		if s.Query == `SELECT * FROM acct WHERE id = ?` {
			keep = true
		}
	}
	if !keep {
		t.Fatalf("hottest shape evicted: %+v", sts)
	}
}

// sys.m_statements quantiles are nearest-rank over every call: the p99 of
// ten calls at 1..10 ms is the 10 ms outlier.
func TestStatementStatsQuantiles(t *testing.T) {
	e := NewEngine()
	for i := 1; i <= 10; i++ {
		e.stmts.record("f1", "SELECT ?", time.Duration(i)*time.Millisecond, 0, false)
	}
	res := mustExec(t, e, `SELECT calls, total_ms, min_ms, max_ms, p50_ms, p99_ms FROM sys.m_statements WHERE fingerprint_id = 'f1'`)
	if len(res.Rows) != 1 {
		t.Fatalf("%d rows, want 1", len(res.Rows))
	}
	r := res.Rows[0]
	if r[0].AsInt() != 10 || r[1].AsFloat() != 55 || r[2].AsFloat() != 1 || r[3].AsFloat() != 10 {
		t.Fatalf("calls/total/min/max = %v", r)
	}
	for i, want := range map[int]float64{4: 5, 5: 10} {
		if got := r[i].AsFloat(); math.Abs(got-want) > stats.RelativeError*want {
			t.Fatalf("quantile column %d = %v, want %v", i, got, want)
		}
	}
}

// TestSlowLogRetention: fingerprint stamping and the bounded ring staying
// newest-first past its capacity.
func TestSlowLogRetention(t *testing.T) {
	e := newTestEngine(t)
	e.SlowThreshold = time.Nanosecond // everything is slow
	const n = slowLogCap + 8
	for i := 0; i < n; i++ {
		mustExec(t, e, fmt.Sprintf(`SELECT * FROM orders WHERE id = %d`, i))
	}
	got := e.SlowQueries()
	if len(got) != slowLogCap {
		t.Fatalf("capacity %d retained %d", slowLogCap, len(got))
	}
	for i, q := range got {
		want := fmt.Sprintf(`SELECT * FROM orders WHERE id = %d`, n-1-i)
		if q.SQL != want {
			t.Fatalf("slot %d = %q, want %q (newest first)", i, q.SQL, want)
		}
		wantFP, _ := Fingerprint(q.SQL)
		if q.Fingerprint != wantFP {
			t.Fatalf("fingerprint %q, want %q", q.Fingerprint, wantFP)
		}
		if q.When.IsZero() {
			t.Fatal("capture time not stamped")
		}
	}

	// The view joins against sys.m_statements by fingerprint_id.
	res := mustExec(t, e,
		`SELECT s.query, st.calls FROM sys.m_slow_queries s JOIN sys.m_statements st ON s.fingerprint_id = st.fingerprint_id`)
	if len(res.Rows) != slowLogCap {
		t.Fatalf("slow/statements join returned %d rows, want %d", len(res.Rows), slowLogCap)
	}
}

// TestMetricsConsistency is the registry <-> sys.m_metrics <-> Prometheus
// contract: every series registered in the engine's registry is queryable
// through SQL and rendered by the text exposition, while writers keep
// mutating it concurrently (the -race half of the test).
func TestMetricsConsistency(t *testing.T) {
	e := sysTestEngine(t)
	obs := stats.NewRegistry()
	e.Obs = obs
	obs.Counter("consist_ops_total", "op=read").Inc()
	obs.Counter("consist_ops_total", "op=write").Add(2)
	obs.Gauge("consist_depth").Set(7)
	obs.Histogram("consist_wait_ms").Observe(1.5)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				obs.Counter("consist_ops_total", "op=write").Inc()
				obs.Histogram("consist_wait_ms").Observe(0.5)
			}
		}
	}()

	for i := 0; i < 20; i++ {
		snap := obs.Snapshot()
		res := mustExec(t, e, `SELECT name, kind, labels FROM sys.m_metrics`)
		inView := map[string]bool{}
		for _, row := range res.Rows {
			inView[row[0].AsString()+"|"+row[2].AsString()] = true
		}
		prom := snap.Prometheus()
		check := func(name string, labels []string) {
			if !inView[name+"|"+strings.Join(labels, ",")] {
				t.Fatalf("series %s{%v} not in sys.m_metrics", name, labels)
			}
			if !strings.Contains(prom, name) {
				t.Fatalf("series %s not in Prometheus exposition", name)
			}
		}
		for _, c := range snap.Counters {
			check(c.Name, c.Labels)
		}
		for _, g := range snap.Gauges {
			check(g.Name, g.Labels)
		}
		for _, h := range snap.Histograms {
			check(h.Name, h.Labels)
		}
	}
	close(stop)
	wg.Wait()

	// Runtime gauges (satellite): sampled into the default registry and
	// visible through the same view.
	res := mustExec(t, e, `SELECT value FROM sys.m_metrics WHERE name = 'runtime_goroutines'`)
	if len(res.Rows) != 1 || res.Rows[0][0].F < 1 {
		t.Fatalf("runtime_goroutines not sampled: %v", res.Rows)
	}
}
