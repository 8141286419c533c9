package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/extstore"
	"repro/internal/pgwire"
	"repro/internal/sqlexec"
	"repro/internal/value"
)

// warmScan: a data set larger than the program's own cache. A 1M-row
// orders table, range-partitioned 16 ways on id, is demoted to the
// extended store whose buffer pool keeps the default 1,024 pages, less
// than half of the table. Two closed-loop connections send simple-query
// reports with literal predicates over 10% of id, so the scan kernels
// and zone-map pruning apply and paged-column access dominates; txn and
// wal sit idle.
type warmScan struct {
	cfg   config
	rows  int64
	parts int
	span  int64 // ids per report

	eng    *sqlexec.Engine
	store  *extstore.Store
	closed bool
	// oracle computes the expected report over ids [lo, hi) from the
	// generator; the self-test replaces it to prove a wrong answer fails.
	oracle func(lo, hi int64) [nWarmRegions]totals
}

const nWarmRegions = 4

var warmRegions = [nWarmRegions]string{"EMEA", "AMER", "APJ", "LATAM"}

func newWarmScan(cfg config) *warmScan {
	rows := int64(scaled(cfg, 1_000_000, 16_000))
	w := &warmScan{cfg: cfg, rows: rows, parts: 16, span: rows / 10}
	w.oracle = w.expected
	return w
}

func (w *warmScan) engine() *sqlexec.Engine { return w.eng }

// The generator: row id's region and amount are a hash of (seed, id), so
// any range's answer can be recomputed without keeping the data.
func (w *warmScan) gen(id int64) (region int, amount int64) {
	h := mix64(uint64(w.cfg.seed)*0x9e3779b97f4a7c15 ^ uint64(id))
	// 40-bit amounts: a chunk of them spans two pages, so the columns a
	// report reads come to about twice the buffer pool.
	return int(h % nWarmRegions), int64(h>>8) & (1<<40 - 1)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (w *warmScan) expected(lo, hi int64) [nWarmRegions]totals {
	var out [nWarmRegions]totals
	for id := lo; id < hi; id++ {
		r, amount := w.gen(id)
		out[r].add(totals{1, amount})
	}
	return out
}

// build creates the partitioned table, loads and merges each partition,
// and demotes the whole table to an extended store under dir.
func (w *warmScan) build(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	w.eng = sqlexec.NewEngine()
	per := w.rows / int64(w.parts)
	bounds := make([]string, w.parts-1)
	for i := range bounds {
		bounds[i] = strconv.FormatInt(int64(i+1)*per, 10)
	}
	ddl := fmt.Sprintf("CREATE TABLE orders (id INT, region VARCHAR, amount INT) PARTITION BY RANGE(id) VALUES (%s)",
		strings.Join(bounds, ", "))
	if _, err := w.eng.Query(ddl); err != nil {
		return err
	}
	entry := w.eng.Cat.MustTable("orders")
	for i, p := range entry.Partitions {
		lo, hi := int64(i)*per, int64(i+1)*per
		if i == w.parts-1 {
			hi = w.rows
		}
		rows := make([]value.Row, 0, hi-lo)
		for id := lo; id < hi; id++ {
			r, amount := w.gen(id)
			rows = append(rows, value.Row{value.Int(id), value.String(warmRegions[r]), value.Int(amount)})
		}
		p.Table.ApplyInsert(rows, 1)
		p.Table.Merge(2)
	}
	w.eng.Mgr.AdvanceTo(2)
	st, err := extstore.Open(filepath.Join(dir, "warm.pages"), extstore.Options{})
	if err != nil {
		return err
	}
	w.store = st
	_, err = st.DemoteTable(entry, w.eng.Mgr.MinActiveTS())
	return err
}

func (w *warmScan) startBackground(*recorder) func() { return func() {} }

// drive runs two closed-loop connections sending reports over random
// 10% id ranges, each checked against the generator.
func (w *warmScan) drive(ctx context.Context, addr string, ph *phase, tr *recorder) error {
	conns, err := dialN(addr, 2)
	if err != nil {
		return err
	}
	defer closeAll(conns)
	return closedLoops(ctx, conns, w.cfg.seed*10+int64(ph.idx), func(i int, c *pgwire.Conn, rng *rand.Rand) error {
		lo := rng.Int63n(w.rows - w.span + 1)
		hi := lo + w.span
		sql := fmt.Sprintf("SELECT region, COUNT(*), SUM(amount) FROM orders WHERE id >= %d AND id < %d GROUP BY region", lo, hi)
		var res []*pgwire.ClientResult
		ms, err := tr.roundTrip(i, "scan", func() (err error) {
			res, err = c.Simple(sql)
			return err
		})
		if err := outcome(ph, "scan", ms, err); err != nil {
			return err
		}
		if err == nil {
			if msg := w.check(res, lo, hi); msg != "" {
				ph.wrongf("scan [%d,%d): %s", lo, hi, msg)
			}
		}
		return nil
	})
}

func (w *warmScan) check(res []*pgwire.ClientResult, lo, hi int64) string {
	if len(res) != 1 {
		return fmt.Sprintf("%d result sets, want 1", len(res))
	}
	want := w.oracle(lo, hi)
	got := rowsText(res[0])
	groups := 0
	for _, t := range want {
		if t.n > 0 {
			groups++
		}
	}
	if len(got) != groups {
		return fmt.Sprintf("%d groups %v, want %d", len(got), got, groups)
	}
	for _, row := range got {
		r := indexOf(warmRegions[:], row[0])
		if r < 0 || len(row) != 3 {
			return fmt.Sprintf("unexpected row %v", row)
		}
		if row[1] != strconv.FormatInt(want[r].n, 10) || row[2] != strconv.FormatInt(want[r].sum, 10) {
			return fmt.Sprintf("%s: got count=%s sum=%s, want %d %d", row[0], row[1], row[2], want[r].n, want[r].sum)
		}
	}
	return ""
}

func (w *warmScan) verify() error       { return nil }
func (w *warmScan) checkDurable() error { return nil }

func (w *warmScan) close() error {
	if w.closed || w.store == nil {
		return nil
	}
	w.closed = true
	return w.store.Close()
}

// userBytes is the logical row payload: 8 bytes per INT column plus the
// length of each string.
// sizes reports the store file and the row payload it holds: 8 bytes per
// INT column plus the length of each string.
func (w *warmScan) sizes() (walBytes, storeBytes, userBytes int64) {
	for id := int64(0); id < w.rows; id++ {
		r, _ := w.gen(id)
		userBytes += 8 + int64(len(warmRegions[r])) + 8
	}
	return 0, w.store.Pages() * int64(w.store.PageSize()), userBytes
}

func (w *warmScan) report(rep *report, ph *phase) {
	addLatency(rep, false, "", "scan_p99_ms", ph, "scan", 0.99)
	rep.add(false, "store_pages", float64(w.store.Pages()), "count",
		fmt.Sprintf("extended-store pages vs a %d-page pool", w.store.Pool().BudgetPages))
}

func (w *warmScan) ops() (string, []string) { return "scan", []string{"scan"} }
