package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/pgwire"
	"repro/internal/sqlexec"
	"repro/internal/value"
)

// pointParam: OLTP point reads over the extended protocol. Every call
// re-fingerprints, re-parses and re-plans the statement, and because the
// key is a $1 parameter the scan skips the encoded-column kernels and
// boxes every row. Front-end and executor changes show here while txn,
// wal and extstore sit idle.
type pointParam struct {
	cfg  config
	rows int
	eng  *sqlexec.Engine
	// want is the value stored for key k; the self-test replaces it to
	// prove a wrong answer fails the run.
	want func(k int64) string
}

const pointSQL = "SELECT v FROM kv WHERE k = $1"

func newPointParam(cfg config) *pointParam {
	return &pointParam{
		cfg:  cfg,
		rows: scaled(cfg, 100_000, 1000),
		want: func(k int64) string { return fmt.Sprintf("v%08d", k) },
	}
}

func (w *pointParam) engine() *sqlexec.Engine { return w.eng }

// build loads kv(k, v) with keys 0..rows-1 in a seed-shuffled order and
// merges it into main storage.
func (w *pointParam) build(string) error {
	w.eng = sqlexec.NewEngine()
	if _, err := w.eng.Query("CREATE TABLE kv (k INT, v VARCHAR)"); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.cfg.seed))
	rows := make([]value.Row, w.rows)
	for i, k := range rng.Perm(w.rows) {
		rows[i] = value.Row{value.Int(int64(k)), value.String(fmt.Sprintf("v%08d", k))}
	}
	tab := w.eng.Cat.MustTable("kv").Primary()
	tab.ApplyInsert(rows, 1)
	tab.Merge(2)
	w.eng.Mgr.AdvanceTo(2)
	return nil
}

func (w *pointParam) startBackground(*recorder) func() { return func() {} }

// drive runs two closed-loop connections looking up uniform random keys.
func (w *pointParam) drive(ctx context.Context, addr string, ph *phase, tr *recorder) error {
	conns, err := dialN(addr, 2)
	if err != nil {
		return err
	}
	defer closeAll(conns)
	return closedLoops(ctx, conns, w.cfg.seed*10+int64(ph.idx), func(i int, c *pgwire.Conn, rng *rand.Rand) error {
		k := rng.Int63n(int64(w.rows))
		var res *pgwire.ClientResult
		ms, err := tr.roundTrip(i, "point", func() (err error) {
			res, err = c.Query(pointSQL, k)
			return err
		})
		if err := outcome(ph, "point", ms, err); err != nil {
			return err
		}
		if err == nil && (len(res.Rows) != 1 || res.Get(0, 0) != w.want(k)) {
			ph.wrongf("point k=%d: got %v, want one row %q", k, rowsText(res), w.want(k))
		}
		return nil
	})
}

func (w *pointParam) verify() error                { return nil }
func (w *pointParam) close() error                 { return nil }
func (w *pointParam) checkDurable() error          { return nil }
func (w *pointParam) sizes() (int64, int64, int64) { return 0, 0, 0 }
func (w *pointParam) ops() (string, []string)      { return "point", []string{"point"} }

func (w *pointParam) report(rep *report, ph *phase) {
	addLatency(rep, false, "", "point_p99_ms", ph, "point", 0.99)
}
