package pgwire

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sqlexec"
)

// spellings are statements a text scanner other than the parser gets
// wrong: keywords followed by a newline, two blanks, a comment or a blank
// before `;`, END for COMMIT, and a view whose name holds " as ". They
// run in order, so transaction control pairs up.
var spellings = []string{
	`begin ;`,
	`END`,
	`BEGIN`,
	`COMMIT -- done`,
	"EXPLAIN\nSELECT id FROM t ORDER BY id",
	`EXPLAIN  ANALYZE SELECT id FROM t ORDER BY id`,
	"CREATE VIEW v1 AS\nSELECT id FROM t",
	`SELECT * FROM v1 ORDER BY id`,
	`CREATE VIEW "x as y" AS SELECT id FROM t WHERE id > 1`,
	`SELECT * FROM "x as y" ORDER BY id`,
}

// outcome is what a statement answered, comparable across the session,
// the simple protocol and the extended protocol.
type outcome struct {
	Tag  string
	Cols []string
	Rows []string
}

func newOutcome(sql, tag string, cols []string, rows []string) outcome {
	if strings.Contains(sql, "ANALYZE") {
		rows = []string{strconv.Itoa(len(rows)) + " profile lines"} // timings vary run to run
	}
	return outcome{Tag: tag, Cols: cols, Rows: rows}
}

func clientOutcome(sql string, r *ClientResult) outcome {
	rows := make([]string, len(r.Rows))
	for i := range r.Rows {
		rows[i] = r.Get(i, 0)
	}
	return newOutcome(sql, r.Tag, r.Cols, rows)
}

func spellingEngine(t *testing.T) (*Server, *sqlexec.Engine) {
	t.Helper()
	srv, eng := startServer(t, Config{})
	eng.MustQuery(`CREATE TABLE t (id INT)`)
	eng.MustQuery(`INSERT INTO t VALUES (1), (2), (3)`)
	return srv, eng
}

// TestWireStatementSpellings runs every spelling through Session.Query,
// the simple protocol and the extended protocol: each must succeed with
// the same result and command tag on all three. Describe must succeed
// exactly when the statement parses.
func TestWireStatementSpellings(t *testing.T) {
	var paths [3][]outcome

	_, eng := spellingEngine(t)
	sess := eng.NewSession()
	defer sess.Close()
	for _, sql := range spellings {
		st, err := sqlexec.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		res, err := sess.Query(sql)
		if err != nil {
			t.Fatalf("session %q: %v", sql, err)
		}
		rows := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			rows[i] = encodeText(r[0])
		}
		var cols []string
		if len(res.Cols) > 0 {
			cols = res.Cols
		}
		paths[0] = append(paths[0], newOutcome(sql, commandTag(st, res, len(res.Rows)), cols, rows))
	}

	srv, _ := spellingEngine(t)
	c := dialT(t, srv)
	for _, sql := range spellings {
		rs, err := c.Simple(sql)
		if err != nil || len(rs) != 1 {
			t.Fatalf("simple %q: %d results, %v", sql, len(rs), err)
		}
		paths[1] = append(paths[1], clientOutcome(sql, rs[0]))
	}

	srv, _ = spellingEngine(t)
	c = dialT(t, srv)
	for _, sql := range spellings {
		r, err := c.Query(sql)
		if err != nil {
			t.Fatalf("extended %q: %v", sql, err)
		}
		paths[2] = append(paths[2], clientOutcome(sql, r))
	}

	for i, sql := range spellings {
		if !reflect.DeepEqual(paths[0][i], paths[1][i]) || !reflect.DeepEqual(paths[0][i], paths[2][i]) {
			t.Errorf("%q: session %+v, simple %+v, extended %+v", sql, paths[0][i], paths[1][i], paths[2][i])
		}
	}
	for i, want := range []string{"BEGIN", "COMMIT", "BEGIN", "COMMIT", "", "", "CREATE", "SELECT 3", "CREATE", "SELECT 2"} {
		if want != "" && paths[0][i].Tag != want {
			t.Errorf("%q: tag %q, want %q", spellings[i], paths[0][i].Tag, want)
		}
	}

	for _, sql := range append(spellings, `EXPLAIN`, `EXPLAIN ANALYZE`, `EXPLAIN INSERT INTO t VALUES (4)`, `COMMIT garbage`, `BEGIN; COMMIT`) {
		_, perr := sqlexec.Parse(sql)
		_, derr := sess.Describe(sql)
		if (perr == nil) != (derr == nil) {
			t.Errorf("%q: parse error %v but Describe error %v", sql, perr, derr)
		}
	}
}

// TestWireParamInference: a text parameter that is not a decimal numeral
// binds as the string it is, so it selects exactly the rows its quoted
// literal does.
func TestWireParamInference(t *testing.T) {
	srv, eng := startServer(t, Config{})
	eng.MustQuery(`CREATE TABLE t (id INT, v VARCHAR)`)
	eng.MustQuery(`INSERT INTO t VALUES (1, 'nan'), (2, 'NaN'), (3, 'inf'), (4, 'Infinity'), (5, '-inf'), (6, '0x1p-2'), (7, 'abc')`)
	c := dialT(t, srv)
	for _, p := range []string{"nan", "NaN", "inf", "+Inf", "Infinity", "-inf", "0x1p-2"} {
		lit, err := c.Simple(`SELECT id FROM t WHERE v = '` + p + `' ORDER BY id`)
		if err != nil {
			t.Fatalf("literal %q: %v", p, err)
		}
		par, err := c.Query(`SELECT id FROM t WHERE v = $1 ORDER BY id`, p)
		if err != nil {
			t.Fatalf("parameter %q: %v", p, err)
		}
		if want, got := clientOutcome("", lit[0]).Rows, clientOutcome("", par).Rows; !reflect.DeepEqual(got, want) {
			t.Errorf("v = $1 with %q: rows %v, literal '%s' gives %v", p, got, p, want)
		}
	}
}
