package pgwire

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// The loadgen harness: N concurrent wire connections driving a
// configurable mix of point lookups (extended protocol with $1 params),
// analytic aggregates, dimension joins, and ingest against any pgwire
// server. Latencies
// and errors flow through the stats pipeline (loadgen_* metrics), so the
// report and a Prometheus scrape can never disagree.

// Op names of the traffic mix.
const (
	OpPoint  = "point"
	OpAgg    = "agg"
	OpJoin   = "join"
	OpInsert = "insert"
)

// LoadConfig shapes a load run.
type LoadConfig struct {
	Addr     string
	Conns    int           // concurrent connections (default 100)
	Duration time.Duration // steady-state run time (default 5s)

	// Mix weights (relative; default 65/10/5/20).
	PointWeight  int
	AggWeight    int
	JoinWeight   int
	InsertWeight int

	SeedRows int  // rows seeded into each workload table (default 10000)
	NoSetup  bool // skip CREATE/seed (tables already exist)

	// Obs receives loadgen_* metrics; nil creates a private registry.
	// The per-op quantiles come from its lifetime latency histograms, so
	// they cover this run alone only when the registry is fresh.
	Obs *stats.Registry
}

// OpStats is one op class's outcome.
type OpStats struct {
	Count  int64
	Errors int64
	P50    float64 // milliseconds
	P99    float64
	P999   float64
}

// LoadReport is a run's outcome. ProtocolErrors counts transport/framing
// failures (anything that is not a coded SQLSTATE error); Rejections
// counts admission-control refusals (SQLSTATE class 53) — under overload
// those are the expected failure mode, never hangs.
type LoadReport struct {
	Conns          int
	Wall           time.Duration
	Queries        int64
	QPS            float64
	Errors         int64 // SQLSTATE-coded errors excluding rejections
	Rejections     int64
	ProtocolErrors int64
	PerOp          map[string]*OpStats
	Obs            *stats.Registry // the registry the run recorded into
}

// String renders the report as an aligned table.
func (r *LoadReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "loadgen: %d conns, %v wall, %d queries (%.0f qps), %d errors, %d rejections, %d protocol errors\n",
		r.Conns, r.Wall.Round(time.Millisecond), r.Queries, r.QPS, r.Errors, r.Rejections, r.ProtocolErrors)
	fmt.Fprintf(&sb, "%-8s %10s %8s %10s %10s %10s\n", "op", "count", "errors", "p50", "p99", "p999")
	for _, op := range []string{OpPoint, OpAgg, OpJoin, OpInsert} {
		s := r.PerOp[op]
		if s == nil {
			continue
		}
		fmt.Fprintf(&sb, "%-8s %10d %8d %9.2fms %9.2fms %9.2fms\n", op, s.Count, s.Errors, s.P50, s.P99, s.P999)
	}
	return sb.String()
}

func (c *LoadConfig) fill() {
	if c.Conns <= 0 {
		c.Conns = 100
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.PointWeight <= 0 && c.AggWeight <= 0 && c.JoinWeight <= 0 && c.InsertWeight <= 0 {
		c.PointWeight, c.AggWeight, c.JoinWeight, c.InsertWeight = 65, 10, 5, 20
	}
	if c.SeedRows <= 0 {
		c.SeedRows = 10000
	}
	if c.Obs == nil {
		c.Obs = stats.NewRegistry()
	}
}

// SetupLoadTables creates and seeds the workload tables over the wire
// (idempotent: CREATE TABLE IF NOT EXISTS plus a count check).
func SetupLoadTables(cfg ClientConfig, seedRows int) error {
	c, err := Dial(cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := c.Simple(`CREATE TABLE IF NOT EXISTS loadgen_kv (k INT, v VARCHAR)`); err != nil {
		return fmt.Errorf("loadgen setup: %w", err)
	}
	if _, err := c.Simple(`CREATE TABLE IF NOT EXISTS loadgen_orders (region VARCHAR, amount DOUBLE)`); err != nil {
		return fmt.Errorf("loadgen setup: %w", err)
	}
	if _, err := c.Simple(`CREATE TABLE IF NOT EXISTS loadgen_dim (region VARCHAR, name VARCHAR)`); err != nil {
		return fmt.Errorf("loadgen setup: %w", err)
	}
	res, err := c.Query(`SELECT COUNT(*) FROM loadgen_kv`)
	if err != nil {
		return fmt.Errorf("loadgen setup: %w", err)
	}
	if len(res.Rows) == 1 && res.Get(0, 0) != "0" {
		return nil // already seeded
	}
	regions := []string{"EMEA", "AMER", "APJ"}
	if _, err := c.Simple(`INSERT INTO loadgen_dim VALUES ('EMEA', 'Europe'), ('AMER', 'Americas'), ('APJ', 'Asia-Pacific')`); err != nil {
		return fmt.Errorf("loadgen seed: %w", err)
	}
	const batch = 500
	for lo := 0; lo < seedRows; lo += batch {
		hi := lo + batch
		if hi > seedRows {
			hi = seedRows
		}
		var kv, ord strings.Builder
		kv.WriteString("INSERT INTO loadgen_kv VALUES ")
		ord.WriteString("INSERT INTO loadgen_orders VALUES ")
		for i := lo; i < hi; i++ {
			if i > lo {
				kv.WriteString(", ")
				ord.WriteString(", ")
			}
			fmt.Fprintf(&kv, "(%d, 'v%08d')", i, i)
			fmt.Fprintf(&ord, "('%s', %d.5)", regions[i%3], i%1000)
		}
		if _, err := c.Simple(kv.String()); err != nil {
			return fmt.Errorf("loadgen seed: %w", err)
		}
		if _, err := c.Simple(ord.String()); err != nil {
			return fmt.Errorf("loadgen seed: %w", err)
		}
	}
	return nil
}

// RunLoad dials cfg.Conns connections, runs the mixed workload for
// cfg.Duration, and reports latency quantiles and error counts through
// the stats pipeline.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	cfg.fill()
	if !cfg.NoSetup {
		if err := SetupLoadTables(ClientConfig{Addr: cfg.Addr, User: "loadgen"}, cfg.SeedRows); err != nil {
			return nil, err
		}
	}

	// Dial every connection before starting the clock, with bounded
	// parallelism so a large fleet doesn't overrun the accept backlog.
	conns := make([]*Conn, cfg.Conns)
	dialSem := make(chan struct{}, 64)
	var dialErr atomic.Value
	var dialWG sync.WaitGroup
	for i := range conns {
		dialWG.Add(1)
		go func(i int) {
			defer dialWG.Done()
			dialSem <- struct{}{}
			defer func() { <-dialSem }()
			c, err := Dial(ClientConfig{Addr: cfg.Addr, User: fmt.Sprintf("loadgen%d", i)})
			if err != nil {
				dialErr.Store(err)
				return
			}
			conns[i] = c
		}(i)
	}
	dialWG.Wait()
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	if err, _ := dialErr.Load().(error); err != nil {
		return nil, fmt.Errorf("loadgen dial: %w", err)
	}

	obs := cfg.Obs
	hists := map[string]*stats.Histogram{
		OpPoint:  obs.Histogram("loadgen_query_ms", "op="+OpPoint),
		OpAgg:    obs.Histogram("loadgen_query_ms", "op="+OpAgg),
		OpJoin:   obs.Histogram("loadgen_query_ms", "op="+OpJoin),
		OpInsert: obs.Histogram("loadgen_query_ms", "op="+OpInsert),
	}
	var queries, rejections, protoErrs atomic.Int64
	opCounts := map[string]*atomic.Int64{OpPoint: {}, OpAgg: {}, OpJoin: {}, OpInsert: {}}
	opErrs := map[string]*atomic.Int64{OpPoint: {}, OpAgg: {}, OpJoin: {}, OpInsert: {}}

	total := cfg.PointWeight + cfg.AggWeight + cfg.JoinWeight + cfg.InsertWeight
	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(worker int, c *Conn) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(worker)*7919 + 17))
			// Per-worker key range for collision-free ingest.
			nextKey := int64(cfg.SeedRows) + int64(worker)<<32
			for time.Now().Before(deadline) {
				var op string
				switch w := rng.Intn(total); {
				case w < cfg.PointWeight:
					op = OpPoint
				case w < cfg.PointWeight+cfg.AggWeight:
					op = OpAgg
				case w < cfg.PointWeight+cfg.AggWeight+cfg.JoinWeight:
					op = OpJoin
				default:
					op = OpInsert
				}
				t0 := time.Now()
				var err error
				switch op {
				case OpPoint:
					_, err = c.Query(`SELECT v FROM loadgen_kv WHERE k = $1`, rng.Intn(cfg.SeedRows))
				case OpAgg:
					_, err = c.Query(`SELECT region, COUNT(*), SUM(amount) FROM loadgen_orders GROUP BY region`)
				case OpJoin:
					_, err = c.Query(`SELECT d.name, COUNT(*), SUM(o.amount) FROM loadgen_orders o JOIN loadgen_dim d ON o.region = d.region GROUP BY d.name`)
				case OpInsert:
					nextKey++
					_, err = c.Query(`INSERT INTO loadgen_kv VALUES ($1, $2)`, nextKey, fmt.Sprintf("w%08d", nextKey))
				}
				hists[op].ObserveSince(t0)
				queries.Add(1)
				opCounts[op].Add(1)
				obs.Counter("loadgen_queries_total", "op="+op).Inc()
				if err != nil {
					if pe, ok := err.(*PGError); ok {
						obs.Counter("loadgen_errors_total", "code="+pe.Code).Inc()
						if strings.HasPrefix(pe.Code, "53") {
							rejections.Add(1)
							continue // rejection is the designed overload response
						}
						if pe.Code == CodeAdminShutdown || pe.Code == CodeCannotConnectNow {
							// Orderly drain: the server answered every
							// in-flight query and is closing the socket.
							// Stop the worker — not a protocol error.
							return
						}
						opErrs[op].Add(1)
						continue
					}
					// Transport/framing failure: the connection is not
					// recoverable; stop this worker.
					obs.Counter("loadgen_protocol_errors_total").Inc()
					protoErrs.Add(1)
					opErrs[op].Add(1)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	wall := time.Since(start)

	rep := &LoadReport{
		Conns:          cfg.Conns,
		Wall:           wall,
		Queries:        queries.Load(),
		QPS:            float64(queries.Load()) / wall.Seconds(),
		Rejections:     rejections.Load(),
		ProtocolErrors: protoErrs.Load(),
		PerOp:          map[string]*OpStats{},
		Obs:            obs,
	}
	for _, op := range []string{OpPoint, OpAgg, OpJoin, OpInsert} {
		h := hists[op].Snapshot()
		s := &OpStats{
			Count:  opCounts[op].Load(),
			Errors: opErrs[op].Load(),
			P50:    h.P50,
			P99:    h.P99,
			P999:   h.Quantile(0.999),
		}
		rep.Errors += s.Errors
		rep.PerOp[op] = s
	}
	rep.Errors -= rep.ProtocolErrors // already itemized separately
	if rep.Errors < 0 {
		rep.Errors = 0
	}
	return rep, nil
}
