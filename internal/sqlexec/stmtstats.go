package sqlexec

import (
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
)

// Per-fingerprint workload statistics (pg_stat_statements-style): every
// statement a Session executes is normalized to its fingerprint and
// aggregated here — errors, rows returned and a lifetime latency
// histogram, from which calls, total/min/max and quantiles are read.
// sys.m_statements materializes this table.

const stmtLogCap = 512 // distinct fingerprints retained

// StatementStat is one fingerprint's aggregate, as exposed by
// Engine.StatementStats and sys.m_statements.
type StatementStat struct {
	ID       string // fingerprint, 16 hex digits
	Query    string // normalized statement text
	Calls    int64
	Errors   int64
	Rows     int64 // rows returned to clients
	TotalMs  float64
	MinMs    float64
	MaxMs    float64
	P50Ms    float64
	P95Ms    float64
	P99Ms    float64
	LastCall time.Time
}

type stmtEntry struct {
	stat StatementStat // ID, Query, Errors, Rows, LastCall
	lat  stats.Histogram
}

// stmtLog aggregates statements under one mutex; the map is bounded — at
// capacity a new fingerprint evicts the least-called entry, so a workload
// of unbounded distinct shapes degrades to tracking its heavy hitters
// rather than growing without limit.
type stmtLog struct {
	mu      sync.Mutex
	m       map[string]*stmtEntry
	evicted int64
}

func (l *stmtLog) record(id, norm string, d time.Duration, rows int64, failed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.m == nil {
		l.m = make(map[string]*stmtEntry)
	}
	e := l.m[id]
	if e == nil {
		if len(l.m) >= stmtLogCap {
			l.evictLeastCalled()
		}
		e = &stmtEntry{stat: StatementStat{ID: id, Query: norm}}
		l.m[id] = e
	}
	e.lat.Observe(float64(d) / float64(time.Millisecond))
	if failed {
		e.stat.Errors++
	}
	e.stat.Rows += rows
	e.stat.LastCall = time.Now()
}

// evictLeastCalled drops the entry with the fewest calls; caller holds mu.
func (l *stmtLog) evictLeastCalled() {
	var victim string
	min := int64(-1)
	for id, e := range l.m {
		if n := e.lat.Count(); min < 0 || n < min {
			min, victim = n, id
		}
	}
	if victim != "" {
		delete(l.m, victim)
		l.evicted++
	}
}

// snapshot returns the aggregates, sorted by TotalMs descending.
func (l *stmtLog) snapshot() []StatementStat {
	l.mu.Lock()
	out := make([]StatementStat, 0, len(l.m))
	for _, e := range l.m {
		h, s := e.lat.Snapshot(), e.stat
		s.Calls, s.TotalMs, s.MinMs, s.MaxMs = h.Count, h.Sum, h.Min, h.Max
		s.P50Ms, s.P95Ms, s.P99Ms = h.P50, h.P95, h.P99
		out = append(out, s)
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalMs != out[j].TotalMs {
			return out[i].TotalMs > out[j].TotalMs
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// StatementStats returns the fingerprinted workload aggregates, highest
// total time first — the data behind sys.m_statements.
func (e *Engine) StatementStats() []StatementStat { return e.stmts.snapshot() }

// StatementEvictions reports how many fingerprints were evicted by the
// capacity bound — nonzero means the workload has more distinct shapes
// than the log retains.
func (e *Engine) StatementEvictions() int64 {
	e.stmts.mu.Lock()
	defer e.stmts.mu.Unlock()
	return e.stmts.evicted
}
