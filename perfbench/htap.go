package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/columnstore"
	"repro/internal/pgwire"
	"repro/internal/sqlexec"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// htapIngest: durable ingest beside analytics on the same table. The
// engine runs over wal.OpenStore with SyncEveryCommit (one fsync per
// commit group) and the store's background merger. Connection 0 inserts
// single rows in auto-commit at a fixed rate (an open loop: independent
// users); connection 1 alternates a GROUP BY and a JOIN aggregate in a
// closed loop. The fixed rate keeps table growth the same on every
// commit, so analytics taking more CPU shows up as insert latency, and
// the reverse as analytic latency.
type htapIngest struct {
	cfg      config
	seedRows int
	rate     float64 // inserts per second

	dir    string
	st     *wal.Store
	eng    *sqlexec.Engine
	closed bool

	mu       sync.Mutex
	nextID   int64
	seedTot  [nRegions]totals
	issued   [nRegions]totals // inserts sent, acknowledged or not
	acked    [nRegions]totals // inserts the server acknowledged
	ackedIDs []int64
	lastAgg  [nRegions]int64 // counts seen by the previous GROUP BY
	lastJoin [nZones]int64   // counts seen by the previous JOIN
	ingest   *rand.Rand
}

// totals is a row count and an amount sum.
type totals struct{ n, sum int64 }

func (t *totals) add(o totals) { t.n += o.n; t.sum += o.sum }

const (
	// mergeThreshold is the delta size at which the merge daemon merges
	// orders: at the fixed ingest rate that is every 5 s, so every
	// measured window has merges (the 4096-row default merges every 20 s).
	mergeThreshold = 1000
	nRegions       = 3
	nZones         = 2
	insertSQL      = "INSERT INTO orders VALUES ($1, $2, $3)"
	htapAggSQL     = "SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region"
	// The JOIN folds the three regions into two zones through dim.
	htapJoinSQL = "SELECT d.zone, COUNT(*), SUM(o.amount) FROM orders o JOIN dim d ON o.region = d.region GROUP BY d.zone"
)

var (
	regionNames = [nRegions]string{"EMEA", "AMER", "APJ"}
	zoneNames   = [nZones]string{"atlantic", "pacific"}
	regionZone  = [nRegions]int{0, 0, 1}
)

var ordersSchema = columnstore.Schema{
	{Name: "id", Kind: value.KindInt},
	{Name: "region", Kind: value.KindString},
	{Name: "amount", Kind: value.KindInt},
}

func newHTAPIngest(cfg config) *htapIngest {
	return &htapIngest{
		cfg:      cfg,
		seedRows: scaled(cfg, 200_000, 1000),
		rate:     200,
	}
}

func (w *htapIngest) engine() *sqlexec.Engine { return w.eng }

// build opens a fresh durable store, creates orders and dim, and loads
// the seed rows straight into merged main storage (the seed is not part
// of the logged ingest; only the benchmark's inserts are).
func (w *htapIngest) build(dir string) error {
	w.dir = dir
	st, err := wal.OpenStore(dir, wal.SyncEveryCommit)
	if err != nil {
		return err
	}
	w.st = st
	w.eng = sqlexec.NewEngineWith(catalog.New(), st.Mgr)
	for _, ddl := range []string{
		"CREATE TABLE orders (id INT, region VARCHAR, amount INT)",
		"CREATE TABLE dim (region VARCHAR, zone VARCHAR)",
	} {
		if _, err := w.eng.Query(ddl); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(w.cfg.seed))
	rows := make([]value.Row, w.seedRows)
	for i := range rows {
		r, amount := rng.Intn(nRegions), 1+rng.Int63n(1000)
		rows[i] = value.Row{value.Int(int64(i)), value.String(regionNames[r]), value.Int(amount)}
		w.seedTot[r].add(totals{1, amount})
	}
	orders := w.eng.Cat.MustTable("orders").Primary()
	orders.ApplyInsert(rows, 1)
	orders.Merge(2)
	dim := w.eng.Cat.MustTable("dim").Primary()
	var drows []value.Row
	for r, name := range regionNames {
		drows = append(drows, value.Row{value.String(name), value.String(zoneNames[regionZone[r]])})
	}
	dim.ApplyInsert(drows, 1)
	dim.Merge(2)
	st.Mgr.AdvanceTo(2)
	w.nextID = int64(w.seedRows)
	w.ingest = rand.New(rand.NewSource(w.cfg.seed + 7))
	return nil
}

// startBackground runs the store's merge daemon (default sweep
// interval). A traced phase runs the same daemon with its Merge wrapped
// so each logged merge is timed.
func (w *htapIngest) startBackground(tr *recorder) func() {
	if tr == nil {
		return w.st.StartMerger(mergeThreshold, 0).Stop
	}
	return w.st.Mgr.StartMerger(txn.MergerConfig{
		Threshold: mergeThreshold,
		Merge:     func(name string) error { return tr.timeMerge(w.st, name) },
	}).Stop
}

func (w *htapIngest) drive(ctx context.Context, addr string, ph *phase, tr *recorder) error {
	conns, err := dialN(addr, 2)
	if err != nil {
		return err
	}
	defer closeAll(conns)
	errs := make(chan error, 2)
	go func() { errs <- w.ingestLoop(ctx, conns[0], ph, tr) }()
	go func() { errs <- w.analyticLoop(ctx, conns[1], ph, tr) }()
	err = <-errs
	if err2 := <-errs; err == nil {
		err = err2
	}
	return err
}

// ingestLoop sends one insert every 1/rate seconds. Latency is timed from
// when the insert was due, so a stall also charges the inserts queued
// behind it; how late each was sent is recorded separately.
func (w *htapIngest) ingestLoop(ctx context.Context, c *pgwire.Conn, ph *phase, tr *recorder) error {
	interval := time.Duration(float64(time.Second) / w.rate)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				return nil
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			return nil
		}
		ph.sample("late", sinceMS(due))
		id, r, amount := w.issue()
		var res *pgwire.ClientResult
		rtt, err := tr.roundTrip(0, "insert", func() (err error) {
			res, err = c.Query(insertSQL, id, regionNames[r], amount)
			return err
		})
		if err := outcome(ph, "insert", sinceMS(due), err); err != nil {
			return err
		}
		if err != nil {
			continue
		}
		ph.sample("rtt", rtt)
		if res.Tag != "INSERT 0 1" {
			ph.wrongf("insert id=%d: command tag %q, want INSERT 0 1", id, res.Tag)
			continue
		}
		w.ack(id, r, amount)
	}
}

// issue draws the next insert and counts it as sent.
func (w *htapIngest) issue() (id int64, region int, amount int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	id = w.nextID
	w.nextID++
	region, amount = w.ingest.Intn(nRegions), 1+w.ingest.Int63n(1000)
	w.issued[region].add(totals{1, amount})
	return id, region, amount
}

func (w *htapIngest) ack(id int64, region int, amount int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.acked[region].add(totals{1, amount})
	w.ackedIDs = append(w.ackedIDs, id)
}

// bounds returns seed+acknowledged and seed+issued totals per region: a
// query that starts after lo was read and ends before hi is read must see
// at least lo and at most hi.
func (w *htapIngest) bounds(fromAcked bool) [nRegions]totals {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.seedTot
	for r := range out {
		if fromAcked {
			out[r].add(w.acked[r])
		} else {
			out[r].add(w.issued[r])
		}
	}
	return out
}

// analyticLoop alternates the GROUP BY and the JOIN in a closed loop.
func (w *htapIngest) analyticLoop(ctx context.Context, c *pgwire.Conn, ph *phase, tr *recorder) error {
	for k := 0; ctx.Err() == nil; k++ {
		op, sql := "agg", htapAggSQL
		if k%2 == 1 {
			op, sql = "join", htapJoinSQL
		}
		lo := w.bounds(true)
		var res []*pgwire.ClientResult
		ms, err := tr.roundTrip(1, op, func() (err error) {
			res, err = c.Simple(sql)
			return err
		})
		hi := w.bounds(false)
		if err := outcome(ph, op, ms, err); err != nil {
			return err
		}
		if err != nil {
			continue
		}
		if msg := w.checkAnalytic(op, res, lo, hi, true); msg != "" {
			ph.wrongf("%s", msg)
		}
	}
	return nil
}

// checkAnalytic checks one GROUP BY or JOIN answer: every group's count
// and sum lie within [lo, hi], and with monotone set, no count is below
// the previous answer of the same query.
func (w *htapIngest) checkAnalytic(op string, res []*pgwire.ClientResult, lo, hi [nRegions]totals, monotone bool) string {
	if len(res) != 1 {
		return fmt.Sprintf("%s: %d result sets, want 1", op, len(res))
	}
	keys := regionNames[:]
	var loG, hiG []totals
	last := w.lastAgg[:]
	if op == "join" {
		keys, last = zoneNames[:], w.lastJoin[:]
		loG, hiG = make([]totals, nZones), make([]totals, nZones)
		for r := 0; r < nRegions; r++ {
			loG[regionZone[r]].add(lo[r])
			hiG[regionZone[r]].add(hi[r])
		}
	} else {
		loG, hiG = lo[:], hi[:]
	}
	got := rowsText(res[0])
	if len(got) != len(keys) {
		return fmt.Sprintf("%s: %d groups %v, want %d", op, len(got), got, len(keys))
	}
	for _, row := range got {
		g := indexOf(keys, row[0])
		if g < 0 || len(row) != 3 {
			return fmt.Sprintf("%s: unexpected row %v", op, row)
		}
		n, err1 := strconv.ParseInt(row[1], 10, 64)
		sum, err2 := strconv.ParseInt(row[2], 10, 64)
		if err1 != nil || err2 != nil {
			return fmt.Sprintf("%s: non-integer row %v", op, row)
		}
		if n < loG[g].n || n > hiG[g].n || sum < loG[g].sum || sum > hiG[g].sum {
			return fmt.Sprintf("%s %s: count=%d sum=%d outside [%d..%d] / [%d..%d]",
				op, keys[g], n, sum, loG[g].n, hiG[g].n, loG[g].sum, hiG[g].sum)
		}
		if monotone && n < last[g] {
			return fmt.Sprintf("%s %s: count went down from %d to %d", op, keys[g], last[g], n)
		}
		last[g] = n
	}
	return ""
}

func indexOf(xs []string, s string) int {
	for i, x := range xs {
		if x == s {
			return i
		}
	}
	return -1
}

// verify runs both analytic queries once ingest has stopped: the answers
// must equal the exact totals of the seed plus every acknowledged insert
// (with no failed inserts the acknowledged and issued bounds coincide).
func (w *htapIngest) verify() error {
	lo, hi := w.bounds(true), w.bounds(false)
	if lo != hi {
		return fmt.Errorf("%d inserts were sent but not acknowledged", w.nextID-int64(w.seedRows)-int64(len(w.ackedIDs)))
	}
	return withServer(w.eng, func(c *pgwire.Conn) error {
		for _, q := range []struct{ op, sql string }{{"agg", htapAggSQL}, {"join", htapJoinSQL}} {
			res, err := c.Simple(q.sql)
			if err != nil {
				return fmt.Errorf("%s: %w", q.op, err)
			}
			if msg := w.checkAnalytic(q.op, res, lo, hi, false); msg != "" {
				return fmt.Errorf("after ingest stopped: %s", msg)
			}
		}
		return nil
	})
}

// close closes the redo log; the merge daemon is stopped per phase.
func (w *htapIngest) close() error {
	if w.closed || w.st == nil {
		return nil
	}
	w.closed = true
	return w.st.Log.Close()
}

// checkDurable reopens the WAL directory the way a restart would:
// wal.OpenStore, then the schema re-registered and the redo log replayed
// into it. Every acknowledged insert must be there.
func (w *htapIngest) checkDurable() error {
	st, err := wal.OpenStore(w.dir, wal.SyncEveryCommit)
	if err != nil {
		return err
	}
	defer st.Log.Close()
	tab := columnstore.NewTable("orders", ordersSchema)
	st.Mgr.Register(tab)
	var last uint64
	err = wal.Replay(filepath.Join(w.dir, "redo.log"), func(ts uint64, writes []txn.Write, _ string, _ uint64) error {
		for _, wr := range writes {
			if wr.Table == "orders" && wr.Kind == txn.WriteInsert {
				tab.ApplyInsert([]value.Row{wr.Row}, ts)
			}
		}
		if ts > last {
			last = ts
		}
		return nil
	})
	if err != nil {
		return err
	}
	snap := tab.Snapshot(last)
	found := make(map[int64]bool, snap.NumRows())
	for pos := 0; pos < snap.NumRows(); pos++ {
		found[snap.Get(0, pos).AsInt()] = true
	}
	lost := 0
	for _, id := range w.ackedIDs {
		if !found[id] {
			lost++
		}
	}
	if lost > 0 {
		return fmt.Errorf("%d of %d acknowledged inserts missing after reopening the WAL", lost, len(w.ackedIDs))
	}
	return nil
}

func (w *htapIngest) sizes() (int64, int64, int64) {
	return fileSize(filepath.Join(w.dir, "redo.log")), 0, 0
}

func (w *htapIngest) report(rep *report, ph *phase) {
	addLatency(rep, false, "", "agg_p50_ms", ph, "agg", 0.50)
	addLatency(rep, false, "", "agg_p90_ms", ph, "agg", 0.90)
	addLatency(rep, false, "", "insert_p50_ms", ph, "insert", 0.50)
	addLatency(rep, false, "", "insert_p99_ms", ph, "insert", 0.99)
	addRate(rep, false, "", "insert_rate", ph, "insert")
	// Latency from the due time is the generator's lateness plus the
	// round trip; both are shown so a stall can be told from a slow
	// server.
	late, rtt := ph.samples("late"), ph.samples("rtt")
	behind := 0
	for _, l := range late {
		if l > 1 {
			behind++
		}
	}
	rep.add(false, "generator_late_p50_ms", quantile(late, 0.5), "ms", fmt.Sprintf("n=%d inserts; how late each was sent", len(late)))
	rep.add(false, "generator_late_p99_ms", quantile(late, 0.99), "ms", fmt.Sprintf("%d of %d sent more than 1 ms late", behind, len(late)))
	rep.add(false, "insert_rtt_p50_ms", quantile(rtt, 0.5), "ms", fmt.Sprintf("n=%d inserts, timed from send", len(rtt)))
	rep.add(false, "insert_rtt_p90_ms", quantile(rtt, 0.9), "ms", fmt.Sprintf("n=%d inserts, timed from send", len(rtt)))
}

func (w *htapIngest) ops() (string, []string) { return "join", []string{"agg", "join"} }
