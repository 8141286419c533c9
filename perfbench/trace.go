package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/extstore"
	"repro/internal/pgwire"
	"repro/internal/sqlexec"
	"repro/internal/stats"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// The traced phase measures layers from outside the program: spans are
// recorded around calls into each module's public functions, from this
// package only.
//
//   - pgwire: the client round trip of each request, and a Backend shim
//     whose sessions time sqlexec.Session.Query and Session.Describe.
//     pgwire self time is the round trip minus the sqlexec spans inside it.
//   - sqlexec: after each Query the shim replays the statement's front end
//     through the same public calls Query makes (Fingerprint,
//     ParseWithParams, Planner.BuildSelect) and times them; exec time is
//     the Query span less those three. Result.Stats gives the scan
//     counters.
//   - txn/wal: a listener added with Manager.OnCommitGroup runs right
//     after the store's WAL listener, so it sees each group's size and
//     when its append+fsync finished.
//   - columnstore: the merge daemon's Merge is wrapped around
//     wal.Store.MergeTable.
//   - extstore: extstore.FaultCounters and the buffer-pool counters.
//
// Spans are kept in memory and written out as JSON lines at exit.

// span is one timed interval. Times are nanoseconds since the recorder
// started.
type span struct {
	Req   uint64 `json:"req,omitempty"` // client request that caused it; 0 = background
	Name  string `json:"name"`
	Op    string `json:"op,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	N     int64  `json:"n,omitempty"`     // group size, or rows merged
	Delta int64  `json:"delta,omitempty"` // delta rows when a merge started
}

// acc is a sum and a count.
type acc struct {
	sum float64
	n   int64
}

func (a *acc) add(v float64) { a.sum += v; a.n++ }

func (a acc) mean() float64 { return ratio(a.sum, float64(a.n)) }

// maxConns bounds the client connections a traced load may use.
const maxConns = 2

type recorder struct {
	t0 time.Time
	on atomic.Bool

	nextReq  atomic.Uint64
	cur      [maxConns]atomic.Uint64 // request in flight per client connection
	sessions atomic.Int32            // sessions the traced server opened
	// insertStart is when the INSERT in flight entered Session.Query
	// (ns since t0); the commit-group listener measures from it.
	insertStart atomic.Int64

	mu       sync.Mutex
	spans    []span
	children map[uint64]int64 // request -> ns of sqlexec spans inside it
	m        map[string]*acc
	exec     sqlexec.ExecStats // summed over SELECTs
	selects  int64
	groups   []float64 // commit-group sizes
	walMS    []float64 // insert start -> WAL listener returned, per group
	deltaMax int64
	rejected int64

	listen sync.Once
	before counters
	after  counters
}

// counters are the program-wide counters read at the traced phase's
// start and end.
type counters struct {
	commits, aborts         uint64
	faults, faultNanos      int64
	hits, misses, evictions int64
	walBytes                int64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), children: map[uint64]int64{}, m: map[string]*acc{}}
}

func (r *recorder) now() int64 { return time.Since(r.t0).Nanoseconds() }

func (r *recorder) read(w workload) counters {
	var c counters
	c.commits, c.aborts = w.engine().Mgr.Stats()
	c.faults, c.faultNanos = extstore.FaultCounters()
	snap := stats.Default.Snapshot()
	c.hits = snap.CounterTotal("extstore_pool_hits_total")
	c.misses = snap.CounterTotal("extstore_pool_misses_total")
	c.evictions = snap.CounterTotal("extstore_pool_evictions_total")
	c.walBytes, _, _ = w.sizes()
	return c
}

// begin starts recording: counters are read and the commit-group
// listener is added to the engine's transaction manager.
func (r *recorder) begin(w workload) {
	r.listen.Do(func() { w.engine().Mgr.OnCommitGroup(r.onGroup) })
	r.before = r.read(w)
	r.on.Store(true)
}

func (r *recorder) end(w workload) {
	r.on.Store(false)
	r.after = r.read(w)
}

func (r *recorder) add(s span) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	if s.Req != 0 && strings.HasPrefix(s.Name, "sqlexec.") {
		r.children[s.Req] += s.End - s.Start
	}
	r.mu.Unlock()
}

func (r *recorder) observe(name string, v float64) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	a := r.m[name]
	if a == nil {
		a = &acc{}
		r.m[name] = a
	}
	a.add(v)
	r.mu.Unlock()
}

func (r *recorder) get(name string) acc {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a := r.m[name]; a != nil {
		return *a
	}
	return acc{}
}

// roundTrip runs one client request on connection conn and returns its
// round-trip time in ms. On a nil recorder it only times fn.
func (r *recorder) roundTrip(conn int, op string, fn func() error) (float64, error) {
	if r == nil {
		t0 := time.Now()
		err := fn()
		return sinceMS(t0), err
	}
	id := r.nextReq.Add(1)
	r.cur[conn].Store(id)
	start := r.now()
	err := fn()
	end := r.now()
	r.cur[conn].Store(0)
	r.add(span{Req: id, Name: "pgwire.roundtrip", Op: op, Start: start, End: end})
	r.mu.Lock()
	inner := r.children[id]
	delete(r.children, id)
	var pgErr *pgwire.PGError
	if errors.As(err, &pgErr) && pgErr.Code == pgwire.CodeAdmissionRejected && r.on.Load() {
		r.rejected++
	}
	r.mu.Unlock()
	r.observe("pgwire.roundtrip_ms", float64(end-start)/1e6)
	r.observe("pgwire.self_ms", float64(end-start-inner)/1e6)
	return float64(end-start) / 1e6, err
}

// req is the client request in flight on connection conn.
func (r *recorder) req(conn int) uint64 {
	if conn < 0 || conn >= maxConns {
		return 0
	}
	return r.cur[conn].Load()
}

// onGroup is the commit-group listener. It runs after the store's WAL
// listener, so for the single inserting connection the time since the
// INSERT entered Session.Query is its parse, validation, apply and the
// group's WAL append+fsync, the last dominating.
func (r *recorder) onGroup(batch []txn.GroupCommit) {
	if !r.on.Load() {
		return
	}
	end := r.now()
	start := r.insertStart.Load()
	r.add(span{Name: "txn.commit_group", Start: start, End: end, N: int64(len(batch))})
	r.mu.Lock()
	r.groups = append(r.groups, float64(len(batch)))
	if start > 0 {
		r.walMS = append(r.walMS, float64(end-start)/1e6)
	}
	r.mu.Unlock()
}

// timeMerge is the merge daemon's Merge: wal.Store.MergeTable, timed.
func (r *recorder) timeMerge(st *wal.Store, name string) error {
	var delta int64
	if t, ok := st.Mgr.Table(name); ok {
		delta = int64(t.DeltaRows())
	}
	start := r.now()
	ms, err := st.MergeTable(name)
	end := r.now()
	if err != nil {
		return err
	}
	r.add(span{Name: "columnstore.merge", Op: name, Start: start, End: end, N: int64(ms.RowsMerged), Delta: delta})
	r.observe("columnstore.merge_ms", float64(end-start)/1e6)
	r.observe("columnstore.rows_merged", float64(ms.RowsMerged))
	if r.on.Load() {
		r.mu.Lock()
		if delta > r.deltaMax {
			r.deltaMax = delta
		}
		r.mu.Unlock()
	}
	return nil
}

// backend returns the pgwire.Backend shim serving eng.
func (r *recorder) backend(eng *sqlexec.Engine) pgwire.Backend {
	r.sessions.Store(0)
	return tracedBackend{r: r, eng: eng}
}

type tracedBackend struct {
	r   *recorder
	eng *sqlexec.Engine
}

// NewSession numbers sessions in the order the server opens them, which
// is the order the load dials its connections.
func (b tracedBackend) NewSession() pgwire.Session {
	conn := int(b.r.sessions.Add(1)) - 1
	return &tracedSession{Session: b.eng.NewSession(), r: b.r, eng: b.eng, conn: conn}
}

// tracedSession is a sqlexec session whose Query and Describe are timed.
// It must forward Describe: the connection type-asserts it, and without
// it extended-protocol Parse skips eager validation.
type tracedSession struct {
	*sqlexec.Session
	r    *recorder
	eng  *sqlexec.Engine
	conn int
}

func (s *tracedSession) Describe(sql string) ([]string, error) {
	start := s.r.now()
	cols, err := s.Session.Describe(sql)
	end := s.r.now()
	s.r.add(span{Req: s.r.req(s.conn), Name: "sqlexec.describe", Start: start, End: end})
	s.r.observe("sqlexec.describe_us", float64(end-start)/1e3)
	return cols, err
}

func (s *tracedSession) Query(sql string, params ...value.Value) (*sqlexec.Result, error) {
	req := s.r.req(s.conn)
	start := s.r.now()
	if isInsert(sql) {
		s.r.insertStart.Store(start)
	}
	res, err := s.Session.Query(sql, params...)
	end := s.r.now()
	s.r.add(span{Req: req, Name: "sqlexec.query", Start: start, End: end})

	// Replay the front end Query just ran, through the same calls.
	t := s.r.now()
	sqlexec.Fingerprint(sql)
	fp := s.r.now() - t
	s.r.add(span{Req: req, Name: "sqlexec.fingerprint", Start: t, End: t + fp})
	t = s.r.now()
	st, _, perr := sqlexec.ParseWithParams(sql)
	parse := s.r.now() - t
	s.r.add(span{Req: req, Name: "sqlexec.parse", Start: t, End: t + parse})
	var plan int64
	sel, isSelect := st.(*sqlexec.SelectStmt)
	if perr == nil && isSelect {
		pl := &sqlexec.Planner{Cat: s.eng.Cat, Reg: s.eng.Reg, Sys: s.eng.Sys, TS: s.eng.Mgr.Now(), Prune: s.eng.Prune}
		t = s.r.now()
		pl.BuildSelect(sel)
		plan = s.r.now() - t
		s.r.add(span{Req: req, Name: "sqlexec.plan", Start: t, End: t + plan})
		s.r.observe("sqlexec.plan_us", float64(plan)/1e3)
	}
	s.r.observe("sqlexec.query_ms", float64(end-start)/1e6)
	s.r.observe("sqlexec.fingerprint_us", float64(fp)/1e3)
	s.r.observe("sqlexec.parse_us", float64(parse)/1e3)
	s.r.observe("sqlexec.exec_ms", float64(end-start-fp-parse-plan)/1e6)
	if err == nil && isSelect && s.r.on.Load() {
		s.r.mu.Lock()
		e := &s.r.exec
		e.RowsScanned += res.Stats.RowsScanned
		e.RowsOut += res.Stats.RowsOut
		e.KernelHits += res.Stats.KernelHits
		e.KernelFallbacks += res.Stats.KernelFallbacks
		e.PartitionsScanned += res.Stats.PartitionsScanned
		e.PartitionsPruned += res.Stats.PartitionsPruned
		s.r.selects++
		s.r.mu.Unlock()
	}
	return res, err
}

func isInsert(sql string) bool {
	s := strings.TrimSpace(sql)
	return len(s) >= 6 && strings.EqualFold(s[:6], "INSERT")
}

// report prints the per-layer metrics of the traced phase and the
// tracing overhead against the untraced phase; all go into the JSON.
func (r *recorder) report(rep *report, w workload, untraced, traced *phase) {
	b, a := r.before, r.after
	r.mu.Lock()
	ex, selects, rejected, deltaMax := r.exec, r.selects, r.rejected, r.deltaMax
	groups := append([]float64(nil), r.groups...)
	walMS := append([]float64(nil), r.walMS...)
	r.mu.Unlock()

	mean := func(name, unit string) {
		g := r.get(name)
		rep.add(true, name, g.mean(), unit, fmt.Sprintf("mean of n=%d", g.n))
	}
	mean("pgwire.roundtrip_ms", "ms")
	mean("pgwire.self_ms", "ms")
	rep.add(true, "pgwire.admission_rejections", float64(rejected), "count", "SQLSTATE 53400 answers")
	mean("sqlexec.query_ms", "ms")
	mean("sqlexec.describe_us", "us")
	mean("sqlexec.fingerprint_us", "us")
	mean("sqlexec.parse_us", "us")
	mean("sqlexec.plan_us", "us")
	mean("sqlexec.exec_ms", "ms")
	rep.add(true, "sqlexec.rows_scanned_per_row_out", ratio(float64(ex.RowsScanned), float64(ex.RowsOut)), "ratio",
		fmt.Sprintf("%d scanned / %d out over %d SELECTs", ex.RowsScanned, ex.RowsOut, selects))
	rep.add(true, "sqlexec.kernel_hit_ratio", ratio(float64(ex.KernelHits), float64(ex.KernelHits+ex.KernelFallbacks)), "ratio",
		fmt.Sprintf("%d kernel hits, %d fallbacks", ex.KernelHits, ex.KernelFallbacks))
	rep.add(true, "sqlexec.partitions_pruned_ratio", ratio(float64(ex.PartitionsPruned), float64(ex.PartitionsPruned+ex.PartitionsScanned)), "ratio",
		fmt.Sprintf("%d pruned, %d scanned", ex.PartitionsPruned, ex.PartitionsScanned))

	commits := a.commits - b.commits
	rep.add(true, "txn.commits", float64(commits), "count", "Manager.Stats delta")
	rep.add(true, "txn.aborts", float64(a.aborts-b.aborts), "count", "Manager.Stats delta")
	var gsum float64
	for _, g := range groups {
		gsum += g
	}
	rep.add(true, "txn.commit_group_size", ratio(gsum, float64(len(groups))), "count", fmt.Sprintf("mean of n=%d groups", len(groups)))

	merges := r.get("columnstore.merge_ms")
	walBytes, storeBytes, userBytes := w.sizes()
	durable := walBytes > 0
	fsyncs := 0.0
	if durable {
		// SyncEveryCommit: one fsync per commit group and per logged merge.
		fsyncs = float64(len(groups)) + float64(merges.n)
	}
	rep.add(true, "wal.append_ms", quantile0(walMS, 0.5), "ms",
		fmt.Sprintf("median of n=%d groups: INSERT start to WAL append+fsync done", len(walMS)))
	rep.add(true, "wal.fsyncs", fsyncs, "count", "commit groups + logged merges")
	rep.add(true, "wal.bytes_per_insert", ratio(float64(a.walBytes-b.walBytes), float64(commits)), "B",
		fmt.Sprintf("%d redo-log bytes over %d commits", a.walBytes-b.walBytes, commits))

	rep.add(true, "columnstore.merges", float64(merges.n), "count", "background merges")
	rep.add(true, "columnstore.merge_ms", merges.mean(), "ms", fmt.Sprintf("mean of n=%d", merges.n))
	rm := r.get("columnstore.rows_merged")
	rep.add(true, "columnstore.rows_merged", rm.sum, "count", "rows written into new main stores")
	rep.add(true, "columnstore.delta_rows_max", float64(deltaMax), "count", "largest delta when a merge started")

	faults := a.faults - b.faults
	hits, misses := a.hits-b.hits, a.misses-b.misses
	rep.add(true, "extstore.page_faults_per_query", ratio(float64(faults), float64(selects)), "count",
		fmt.Sprintf("%d faults over %d SELECTs", faults, selects))
	rep.add(true, "extstore.fault_ms_per_query", ratio(float64(a.faultNanos-b.faultNanos)/1e6, float64(selects)), "ms", "FaultCounters nanos")
	rep.add(true, "extstore.pool_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio",
		fmt.Sprintf("%d hits, %d misses", hits, misses))
	rep.add(true, "extstore.evictions", float64(a.evictions-b.evictions), "count", "pool evictions")
	rep.add(true, "extstore.file_bytes_per_user_byte", ratio(float64(storeBytes), float64(userBytes)), "ratio",
		fmt.Sprintf("%d store bytes / %d row bytes", storeBytes, userBytes))

	fg, rateOps := w.ops()
	p50u, p50t := quantile0(untraced.op(fg).lat, 0.5), quantile0(traced.op(fg).lat, 0.5)
	qu, _ := untraced.rate(rateOps...)
	qt, _ := traced.rate(rateOps...)
	rep.add(true, "trace.overhead_p50_pct", 100*ratio(p50t-p50u, p50u), "%",
		fmt.Sprintf("%s p50 %.3f ms traced vs %.3f ms untraced", fg, p50t, p50u))
	rep.add(true, "trace.overhead_qps_pct", 100*ratio(qu-qt, qu), "%",
		fmt.Sprintf("%v %.3f/s traced vs %.3f/s untraced", rateOps, qt, qu))
}

// quantile0 is quantile with 0 for no samples.
func quantile0(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}

// writeSpans dumps every recorded span as one JSON object per line.
func (r *recorder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
