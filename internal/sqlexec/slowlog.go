package sqlexec

import (
	"sync"
	"time"
)

// SlowQuery is one statement retained by the slow-query log: the SQL
// text plus the full EXPLAIN ANALYZE profile captured while it ran.
type SlowQuery struct {
	SQL         string
	Fingerprint string // stable fingerprint ID, joins against sys.m_statements
	When        time.Time
	Total       time.Duration
	Profile     *Profile
}

// slowLogCap is how many slow statements the log retains.
const slowLogCap = 32

// slowLog is a bounded ring of the most recent slow statements. When the
// engine's SlowThreshold is set, every SELECT runs profiled and the ones
// crossing the threshold land here — the profile is captured in flight,
// not reconstructed after the fact, so the one slow execution out of a
// thousand fast ones arrives with its operator breakdown attached.
type slowLog struct {
	mu    sync.Mutex
	ring  []*SlowQuery
	next  int
	total int64
}

func (l *slowLog) add(q *SlowQuery) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.ring) < slowLogCap {
		l.ring = append(l.ring, q)
		return
	}
	l.ring[l.next] = q
	l.next = (l.next + 1) % slowLogCap
}

// recent returns retained slow queries, newest first.
func (l *slowLog) recent() []*SlowQuery {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*SlowQuery, 0, len(l.ring))
	for i := 1; i <= len(l.ring); i++ {
		out = append(out, l.ring[(l.next-i+len(l.ring))%len(l.ring)])
	}
	return out
}

// maybeRecordSlow retains the profile when it crossed the engine's
// threshold; called on every profiled statement with its fingerprint ID.
func (e *Engine) maybeRecordSlow(sql, fp string, prof *Profile) {
	if prof == nil || e.SlowThreshold <= 0 || prof.Total < e.SlowThreshold {
		return
	}
	prof.SQL = sql
	e.slow.add(&SlowQuery{SQL: sql, Fingerprint: fp, When: time.Now(),
		Total: prof.Total, Profile: prof})
	e.Obs.Counter("sql_slow_queries_total").Inc()
}

// SlowQueries returns the retained slow statements, newest first.
func (e *Engine) SlowQueries() []*SlowQuery { return e.slow.recent() }

// SlowQueryCount returns how many statements ever crossed the threshold
// (including ones the bounded ring has since evicted).
func (e *Engine) SlowQueryCount() int64 {
	e.slow.mu.Lock()
	defer e.slow.mu.Unlock()
	return e.slow.total
}
