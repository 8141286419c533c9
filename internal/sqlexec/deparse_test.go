package sqlexec

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/columnstore"
	"repro/internal/value"
)

func TestDeparseRoundTrip(t *testing.T) {
	// Parse → deparse → parse → deparse must be a fixed point, and both
	// parses must execute identically.
	queries := []string{
		`SELECT a, b AS x FROM t WHERE a > 1 AND b LIKE 'x%' ORDER BY x DESC LIMIT 3 OFFSET 1`,
		`SELECT COUNT(*), SUM(a) FROM t GROUP BY b HAVING COUNT(*) > 2`,
		`SELECT * FROM t1 JOIN t2 ON t1.a = t2.b LEFT JOIN t3 ON t2.c = t3.d`,
		`SELECT a FROM (SELECT a FROM t) sub WHERE a IN (1, 2) OR a BETWEEN 5 AND 9`,
		`SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t WHERE b IS NOT NULL`,
		`SELECT DISTINCT UPPER(name) FROM t WHERE NOT (x = 1)`,
		`SELECT a || '-' || b FROM t WHERE s = 'it''s'`,
	}
	for _, q := range queries {
		st1, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		d1 := Deparse(st1.(*SelectStmt))
		st2, err := Parse(d1)
		if err != nil {
			t.Fatalf("deparse output unparseable: %s → %s: %v", q, d1, err)
		}
		d2 := Deparse(st2.(*SelectStmt))
		if d1 != d2 {
			t.Fatalf("not a fixed point:\n%s\n%s", d1, d2)
		}
	}
}

func TestDeparsedQueryExecutesIdentically(t *testing.T) {
	e := newTestEngine(t)
	q := `SELECT status, COUNT(*) AS n, SUM(total) FROM orders WHERE yr >= 2014 AND status <> 'OPEN' GROUP BY status ORDER BY status`
	st, _ := Parse(q)
	dq := Deparse(st.(*SelectStmt))
	r1 := mustExec(t, e, q)
	r2 := mustExec(t, e, dq)
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(r1.Rows), len(r2.Rows))
	}
	for i := range r1.Rows {
		if r1.Rows[i].Key() != r2.Rows[i].Key() {
			t.Fatalf("row %d differs", i)
		}
	}
}

// TestDeparseParamsKeepPositions pins the $N rendering: parameters
// referenced out of order must deparse (and EXPLAIN) as $N, so the
// re-parsed statement binds every operand to its own parameter rather
// than renumbering the placeholders left to right.
func TestDeparseParamsKeepPositions(t *testing.T) {
	e := newTestEngine(t)
	q := `SELECT id FROM orders WHERE status = $2 AND yr = $1 ORDER BY id`
	st, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	d1 := Deparse(st.(*SelectStmt))
	if !strings.Contains(d1, "(status = $2) AND (yr = $1)") {
		t.Fatalf("deparse lost parameter positions: %s", d1)
	}
	st2, err := Parse(d1)
	if err != nil {
		t.Fatalf("deparse output unparseable: %s: %v", d1, err)
	}
	if d2 := Deparse(st2.(*SelectStmt)); d2 != d1 {
		t.Fatalf("not a fixed point:\n%s\n%s", d1, d2)
	}
	params := []value.Value{value.Int(2014), value.String("PAID")}
	want := resultKeys(mustExec(t, e, q, params...))
	if len(want) == 0 {
		t.Fatal("query matched no rows; the round trip proves nothing")
	}
	if got := resultKeys(mustExec(t, e, d1, params...)); !reflect.DeepEqual(got, want) {
		t.Fatalf("deparsed statement binds parameters differently: %v vs %v", got, want)
	}
	plan, err := e.ExplainSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "(status = $2)") || !strings.Contains(plan, "(yr = $1)") {
		t.Fatalf("EXPLAIN lost parameter positions:\n%s", plan)
	}
	// Fingerprints still collapse every constant spelling to one shape.
	_, fpParam := Fingerprint(d1)
	_, fpLit := Fingerprint(`SELECT id FROM orders WHERE ((status = 'PAID') AND (yr = 2014)) ORDER BY id`)
	if fpParam != fpLit {
		t.Fatalf("fingerprints differ:\n%s\n%s", fpParam, fpLit)
	}
}

func TestCompileRowPredicate(t *testing.T) {
	schema := columnstore.Schema{
		{Name: "fill", Kind: value.KindInt},
		{Name: "site", Kind: value.KindString},
	}
	pred, err := CompileRowPredicate(`fill < 20 AND site <> 'closed'`, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pred(value.Row{value.Int(10), value.String("a")}) {
		t.Fatal("should match")
	}
	if pred(value.Row{value.Int(30), value.String("a")}) {
		t.Fatal("fill too high")
	}
	if pred(value.Row{value.Int(10), value.String("closed")}) {
		t.Fatal("closed site matched")
	}
	if _, err := CompileRowPredicate(`nosuch = 1`, schema, nil); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := CompileRowPredicate(`fill <`, schema, nil); err == nil {
		t.Fatal("syntax error accepted")
	}
}

func TestResultString(t *testing.T) {
	e := newTestEngine(t)
	r := mustExec(t, e, `SELECT id, name FROM customers WHERE id < 2 ORDER BY id`)
	s := r.String()
	if !strings.Contains(s, "id") || !strings.Contains(s, "cust00") {
		t.Fatalf("rendering: %q", s)
	}
	var nilRes *Result
	if nilRes.String() != "(no result)\n" {
		t.Fatal("nil rendering")
	}
}
