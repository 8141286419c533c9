package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/pgwire"
	"repro/internal/sqlexec"
)

// workload is one traffic mix over one data set.
type workload interface {
	// build creates the engine and loads the data set; dir is a fresh
	// directory for files (WAL, extended store). It is what setup_s times.
	build(dir string) error
	engine() *sqlexec.Engine
	// startBackground starts the workload's background machinery for one
	// phase (the merge daemon) and returns its stop function. tr is nil
	// in untraced phases.
	startBackground(tr *recorder) (stop func())
	// drive runs the client load against addr until ctx is done,
	// checking every answer. Connection i of the load is the i-th
	// connection dialled, which is how tr maps server sessions to it.
	drive(ctx context.Context, addr string, ph *phase, tr *recorder) error
	// verify runs the end-of-run answer checks after the load stopped.
	verify() error
	// close releases the engine's files and goroutines; safe to repeat.
	close() error
	// checkDurable runs after close: acknowledged writes must survive.
	checkDurable() error
	// ops names the closed-loop operation whose latency is gated (p50_ms,
	// p90_ms) and the operations whose rate is gated (qps).
	ops() (latency string, rate []string)
	// report prints the workload's descriptive, ungated metrics.
	report(rep *report, ph *phase)
	// sizes returns the redo-log size, the extended-store file size and
	// the logical size of the data in it (row payload: 8 bytes per
	// integer, the length of each string); 0 where unused.
	sizes() (walBytes, storeBytes, userBytes int64)
}

var workloads = map[string]func(cfg config) workload{
	"point_param": func(cfg config) workload { return newPointParam(cfg) },
	"htap_ingest": func(cfg config) workload { return newHTAPIngest(cfg) },
	"warm_scan":   func(cfg config) workload { return newWarmScan(cfg) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func newWorkload(name string, cfg config) workload {
	mk, ok := workloads[name]
	if !ok {
		return nil
	}
	return mk(cfg)
}

// scaled returns n scaled by cfg.scale, at least min.
func scaled(cfg config, n, min int) int {
	v := int(float64(n) * cfg.scale)
	if v < min {
		return min
	}
	return v
}

// measure serves w's engine for one phase of length d and drives the
// load against it. A traced phase serves through tr's backend shim and
// records per-layer spans and counters.
func measure(w workload, idx int, tr *recorder, d time.Duration) (*phase, error) {
	eng := w.engine()
	var backend pgwire.Backend = pgwire.EngineBackend{Engine: eng}
	if tr != nil {
		backend = tr.backend(eng)
	}
	srv, err := pgwire.Serve(backend, pgwire.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		// Serve registers sys.m_connections only for EngineBackend; the
		// shim must not change what the server does.
		srv.RegisterMonitoring(eng.SysViews())
	}
	stopBG := w.startBackground(tr)
	ph := &phase{idx: idx, ops: map[string]*opStats{}}
	if tr != nil {
		tr.begin(w)
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	ph.start = time.Now()
	err = w.drive(ctx, srv.Addr().String(), ph, tr)
	ph.elapsed = time.Since(ph.start)
	cancel()
	if tr != nil {
		tr.end(w)
	}
	stopBG()
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if serr := srv.Shutdown(sctx); serr != nil && err == nil {
		err = fmt.Errorf("server shutdown: %w", serr)
	}
	return ph, err
}

// withServer serves eng untraced for the duration of fn.
func withServer(eng *sqlexec.Engine, fn func(c *pgwire.Conn) error) error {
	srv, err := pgwire.Serve(pgwire.EngineBackend{Engine: eng}, pgwire.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := pgwire.Dial(pgwire.ClientConfig{Addr: srv.Addr().String()})
	if err != nil {
		return err
	}
	defer c.Close()
	return fn(c)
}

// dialN opens n client connections one after another, so connection i is
// the i-th session the server opens.
func dialN(addr string, n int) ([]*pgwire.Conn, error) {
	conns := make([]*pgwire.Conn, 0, n)
	for i := 0; i < n; i++ {
		c, err := pgwire.Dial(pgwire.ClientConfig{Addr: addr})
		if err != nil {
			closeAll(conns)
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

func closeAll(conns []*pgwire.Conn) {
	for _, c := range conns {
		c.Close()
	}
}

// opStats is one operation's outcomes in one phase.
type opStats struct {
	lat       []float64 // ms, successful operations only
	attempted int64
	failed    int64
}

// phase collects one measured window's outcomes. Safe for concurrent use.
type phase struct {
	// idx numbers the phases of a run; closed loops seed their key
	// generators with it so a phase does not replay the warm-up's keys.
	idx     int
	mu      sync.Mutex
	start   time.Time
	elapsed time.Duration
	ops     map[string]*opStats
	wrong   []string
	// series holds extra per-request samples (ms) that are not
	// operation outcomes, such as how late an open loop sent a request.
	series map[string][]float64
}

// record adds one operation outcome. A wire or SQL error counts as
// failed; a wrong answer is reported separately through wrongf.
func (p *phase) record(op string, ms float64, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.ops[op]
	if s == nil {
		s = &opStats{}
		p.ops[op] = s
	}
	s.attempted++
	if err != nil {
		s.failed++
		return
	}
	s.lat = append(s.lat, ms)
}

func (p *phase) sample(series string, ms float64) {
	p.mu.Lock()
	if p.series == nil {
		p.series = map[string][]float64{}
	}
	p.series[series] = append(p.series[series], ms)
	p.mu.Unlock()
}

func (p *phase) samples(series string) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.series[series]
}

// wrongf records a wrong answer; any makes the run incorrect.
func (p *phase) wrongf(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.wrong) < 20 {
		p.wrong = append(p.wrong, fmt.Sprintf(format, args...))
	}
}

func (p *phase) op(name string) *opStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s := p.ops[name]; s != nil {
		return s
	}
	return &opStats{}
}

func (p *phase) totals() (attempted, failed int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.ops {
		attempted += s.attempted
		failed += s.failed
	}
	return attempted, failed
}

// rate is successful operations of the named ops per second of the phase.
func (p *phase) rate(ops ...string) (float64, int) {
	n := 0
	for _, op := range ops {
		n += len(p.op(op).lat)
	}
	return float64(n) / p.elapsed.Seconds(), n
}

// quantile returns the q-quantile of xs by nearest rank (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// addLatency reports the q-quantile of op's latencies with its sample
// count and how many samples lie beyond it.
func addLatency(rep *report, json bool, gate, name string, ph *phase, op string, q float64) {
	lat := ph.op(op).lat
	v := quantile(lat, q)
	beyond := len(lat) - int(math.Ceil(q*float64(len(lat))))
	rep.addAs(json, gate, name, v, "ms", fmt.Sprintf("n=%d %s, %d beyond p%g", len(lat), op, beyond, q*100))
}

// addRate reports successful ops per second of the phase.
func addRate(rep *report, json bool, gate, name string, ph *phase, ops ...string) {
	v, n := ph.rate(ops...)
	rep.addAs(json, gate, name, v, "1/s", fmt.Sprintf("n=%d %v in %.3f s", n, ops, ph.elapsed.Seconds()))
}

// liveHeapMB is the heap in use after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// isSQLError reports whether err is an ErrorResponse from the server (a
// SQLSTATE-coded statement failure) rather than a broken connection.
func isSQLError(err error) bool {
	var pgErr *pgwire.PGError
	return errors.As(err, &pgErr)
}

// fileSize is the size of the file at path, 0 when it does not exist.
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// closedLoops runs one goroutine per connection, each calling op in a
// closed loop (the next request only after the previous answer) until ctx
// is done. Each connection draws from its own seeded generator. The first
// error any op returns stops the load and is returned.
func closedLoops(ctx context.Context, conns []*pgwire.Conn, seed int64, op func(i int, c *pgwire.Conn, rng *rand.Rand) error) error {
	errs := make(chan error, len(conns))
	for i, c := range conns {
		go func(i int, c *pgwire.Conn) {
			rng := rand.New(rand.NewSource(seed*1000 + int64(i) + 1))
			for ctx.Err() == nil {
				if err := op(i, c, rng); err != nil {
					errs <- fmt.Errorf("connection %d: %w", i, err)
					return
				}
			}
			errs <- nil
		}(i, c)
	}
	var first error
	for range conns {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// outcome records one operation. A SQLSTATE error from the server counts
// as a failed operation and the load goes on; any other error (a broken
// connection) is returned and stops the run.
func outcome(ph *phase, op string, ms float64, err error) error {
	if err != nil && !isSQLError(err) {
		return err
	}
	ph.record(op, ms, err)
	return nil
}

func sinceMS(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// rowsText renders a client result for a wrong-answer message.
func rowsText(res *pgwire.ClientResult) [][]string {
	if res == nil {
		return nil
	}
	out := make([][]string, len(res.Rows))
	for i := range res.Rows {
		for j := range res.Rows[i] {
			out[i] = append(out[i], res.Get(i, j))
		}
	}
	return out
}
