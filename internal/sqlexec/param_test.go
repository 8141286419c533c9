package sqlexec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/value"
)

// This file pins the late-binding contract for $N parameters: a bound
// parameter is planned and executed exactly like the literal it stands
// for — the same kernels, the same partitions pruned, the same rows
// scanned — so a parameterized point read costs what its literal
// spelling costs. Every assertion compares counts, never wall time, so
// the verdict is the same on any host.

const paramLookupRows = 100000

// paramLookupEngine builds a merged 100k-row table (an int key, a string
// key and a payload, all in encoded main storage) and a range-partitioned
// table of the same size whose partitions are merged too.
func paramLookupEngine(t testing.TB) *Engine {
	t.Helper()
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE kv (k INT, s VARCHAR, v INT)`)
	mustExec(t, e, `CREATE TABLE ranged (id INT, v INT) PARTITION BY RANGE(id) VALUES (25000, 50000, 75000)`)
	rows := make([]value.Row, paramLookupRows)
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i)), value.String(fmt.Sprintf("key%06d", i)), value.Int(int64(i * 7 % 1000))}
	}
	kv := e.Cat.MustTable("kv").Primary()
	kv.ApplyInsert(rows, 1)
	kv.Merge(2)

	for _, p := range e.Cat.MustTable("ranged").Partitions {
		var rows []value.Row
		for i := 0; i < paramLookupRows; i++ {
			if id := value.Int(int64(i)); p.Covers(id) {
				rows = append(rows, value.Row{id, value.Int(int64(i % 100))})
			}
		}
		p.Table.ApplyInsert(rows, 1)
		p.Table.Merge(2)
	}
	e.Mgr.AdvanceTo(2)
	return e
}

// paramPair is one statement spelled with literals and with $N.
type paramPair struct {
	name    string
	literal string
	param   string
	params  []value.Value
}

var paramLookupPairs = []paramPair{
	{"int key", `SELECT v FROM kv WHERE k = 4242`,
		`SELECT v FROM kv WHERE k = $1`, []value.Value{value.Int(4242)}},
	{"string key", `SELECT v FROM kv WHERE s = 'key004242'`,
		`SELECT v FROM kv WHERE s = $1`, []value.Value{value.String("key004242")}},
	{"partitioned id range", `SELECT COUNT(*), SUM(v) FROM ranged WHERE id >= 30000 AND id < 40000`,
		`SELECT COUNT(*), SUM(v) FROM ranged WHERE id >= $1 AND id < $2`, []value.Value{value.Int(30000), value.Int(40000)}},
	{"partitioned id BETWEEN", `SELECT COUNT(*), SUM(v) FROM ranged WHERE id BETWEEN 30000 AND 39999`,
		`SELECT COUNT(*), SUM(v) FROM ranged WHERE id BETWEEN $2 AND $1`, []value.Value{value.Int(39999), value.Int(30000)}},
}

// TestParamLookupMatchesLiteral is the regression gate for parameterized
// point reads: the $N form must report the same kernel hits and
// fallbacks, rows scanned and partitions pruned as the literal form on
// every executor, allocate about as little, and show the same kernels
// under EXPLAIN ANALYZE.
func TestParamLookupMatchesLiteral(t *testing.T) {
	e := paramLookupEngine(t)
	for _, pp := range paramLookupPairs {
		for _, mode := range []Mode{ModeInterpreted, ModeVectorized} {
			e.Mode = mode
			lit := mustExec(t, e, pp.literal)
			par := mustExec(t, e, pp.param, pp.params...)
			if !reflect.DeepEqual(resultKeys(par), resultKeys(lit)) || len(lit.Rows) == 0 {
				t.Errorf("%s mode=%d: rows differ: $N %v, literal %v", pp.name, mode, resultKeys(par), resultKeys(lit))
			}
			ls, ps := lit.Stats, par.Stats
			if ps.KernelHits != ls.KernelHits || ps.KernelFallbacks != ls.KernelFallbacks ||
				ps.RowsScanned != ls.RowsScanned || ps.PartitionsPruned != ls.PartitionsPruned {
				t.Errorf("%s mode=%d: stats differ:\n  $N      %+v\n  literal %+v", pp.name, mode, ps, ls)
			}
		}
	}

	// The comparisons above are only meaningful if the literal forms
	// take the fast paths: kernels on the point reads, pruning on the
	// partitioned ranges.
	e.Mode = ModeVectorized
	if r := mustExec(t, e, paramLookupPairs[0].literal); r.Stats.KernelHits != 1 || r.Stats.KernelFallbacks != 0 {
		t.Fatalf("literal int lookup bound %d kernels / %d fallbacks, want 1/0", r.Stats.KernelHits, r.Stats.KernelFallbacks)
	}
	if r := mustExec(t, e, paramLookupPairs[2].literal); r.Stats.PartitionsPruned != 3 {
		t.Fatalf("literal id range pruned %d partitions, want 3", r.Stats.PartitionsPruned)
	}

	pp := paramLookupPairs[0]
	litAllocs := testing.AllocsPerRun(20, func() { mustExec(t, e, pp.literal) })
	parAllocs := testing.AllocsPerRun(20, func() { mustExec(t, e, pp.param, pp.params...) })
	t.Logf("allocs per lookup: $1 %.0f, literal %.0f", parAllocs, litAllocs)
	if parAllocs > 1.2*litAllocs {
		t.Errorf("$1 lookup allocates %.0f per run, literal lookup %.0f (limit 1.2x)", parAllocs, litAllocs)
	}

	for _, q := range []struct {
		sql    string
		params []value.Value
	}{{pp.literal, nil}, {pp.param, pp.params}} {
		_, prof, err := e.AnalyzeSQL(q.sql, q.params...)
		if err != nil {
			t.Fatal(err)
		}
		if out := prof.Render(); !strings.Contains(out, "kernels=1/0") {
			t.Errorf("EXPLAIN ANALYZE %s: no kernels=1/0 in\n%s", q.sql, out)
		}
	}
}

// TestParamKindMismatchAndNull binds parameters whose kind differs from
// the column's, and NULL. Each must return what its literal spelling
// returns on every executor; a kind the column's kernel cannot take is a
// kernel fallback, never a hit. A $N in ORDER BY is a constant sort key,
// not an output position.
func TestParamKindMismatchAndNull(t *testing.T) {
	e := paramLookupEngine(t)
	for _, c := range []struct {
		literal   string
		param     value.Value
		fallbacks int
	}{
		{`SELECT k, v FROM kv WHERE k = 42.0`, value.Float(42), 1},
		{`SELECT k, v FROM kv WHERE k = '42'`, value.String("42"), 1},
		{`SELECT k, v FROM kv WHERE k = NULL`, value.Null, 0},
	} {
		for _, mode := range []Mode{ModeInterpreted, ModeVectorized} {
			e.Mode = mode
			lit := mustExec(t, e, c.literal)
			par := mustExec(t, e, `SELECT k, v FROM kv WHERE k = $1`, c.param)
			if !reflect.DeepEqual(resultKeys(par), resultKeys(lit)) {
				t.Errorf("%s mode=%d: $1=%v returns %v, literal %v", c.literal, mode, c.param, resultKeys(par), resultKeys(lit))
			}
			if mode != ModeVectorized {
				continue
			}
			for _, r := range []*Result{lit, par} {
				if r.Stats.KernelHits != 0 || r.Stats.KernelFallbacks != c.fallbacks {
					t.Errorf("%s ($1=%v): %d kernel hits / %d fallbacks, want 0/%d",
						c.literal, c.param, r.Stats.KernelHits, r.Stats.KernelFallbacks, c.fallbacks)
				}
			}
		}
	}

	if _, err := e.Query(`SELECT k FROM kv WHERE k < 5 ORDER BY 7`); err == nil {
		t.Fatal("literal ORDER BY 7 over one column should be an out-of-range position")
	}
	for _, mode := range []Mode{ModeInterpreted, ModeVectorized} {
		e.Mode = mode
		r := mustExec(t, e, `SELECT k FROM kv WHERE k < 5 ORDER BY $1, k`, value.Int(7))
		if got := resultKeys(r); !reflect.DeepEqual(got, resultKeys(mustExec(t, e, `SELECT k FROM kv WHERE k < 5 ORDER BY k`))) {
			t.Errorf("mode=%d: ORDER BY $1, k returned %v", mode, got)
		}
	}
}
