package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/sqlexec"
	"repro/internal/value"
)

// E20ProfileOverhead — EXPLAIN ANALYZE must be cheap enough to leave on:
// the profiling wrappers (per-batch timers on pipeline boundaries, atomic
// counters on the scan hot path) add bounded overhead to a vectorized
// scan+aggregate, which is what makes always-on slow-query capture viable
// (Engine.SlowThreshold profiles every statement).
func E20ProfileOverhead(s Scale) *Table {
	t := &Table{
		ID:     "E20",
		Title:  "EXPLAIN ANALYZE overhead on the vectorized executor",
		Claim:  "per-operator profiling costs under 10% of vectorized scan+aggregate wall time — cheap enough for always-on slow-query capture",
		Header: []string{"run", "time", "overhead", "operators"},
	}

	// Enough rows that the measured wall time dwarfs timer noise even at
	// the tiny test scale; the vectorized executor amortizes the wrappers
	// over 1024-row batches, so overhead shrinks as data grows.
	n := s.Rows
	if n < 120_000 {
		n = 120_000
	}
	eng := sqlexec.NewEngine()
	eng.MustQuery(`CREATE TABLE pfact (id INT, grp VARCHAR, v DOUBLE)`)
	rows := make([]value.Row, n)
	groups := []string{"g0", "g1", "g2", "g3", "g4", "g5", "g6", "g7"}
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i)), value.String(groups[i%8]), value.Float(float64(i % 1000))}
	}
	ent := eng.Cat.MustTable("pfact")
	ent.Primary().ApplyInsert(rows, 1)
	ent.Primary().Merge(2)
	eng.Mgr.AdvanceTo(2)
	eng.Mode = sqlexec.ModeVectorized

	const q = `SELECT grp, COUNT(*), SUM(v) FROM pfact WHERE v < 900 GROUP BY grp`
	const pairs = 21
	// The two variants run as interleaved pairs, each run from a fresh GC,
	// and the overhead is the median of the per-pair ratios: on a shared
	// machine the wall time of one run swings by tens of percent, but the
	// two halves of a pair see the same load, so their ratio stays put
	// where a best-of-N over separate blocks does not.
	timed := func(run func()) time.Duration {
		runtime.GC()
		st := time.Now()
		run()
		return time.Since(st)
	}
	var plainT, profT []time.Duration
	var ratios []float64
	var prof *sqlexec.Profile
	for r := 0; r < pairs; r++ {
		a := timed(func() { eng.MustQuery(q) })
		b := timed(func() {
			_, p, err := eng.AnalyzeSQL(q)
			if err != nil {
				panic(err)
			}
			prof = p
		})
		plainT, profT = append(plainT, a), append(profT, b)
		ratios = append(ratios, (b.Seconds()-a.Seconds())/a.Seconds()*100)
	}
	median := func(d []time.Duration) time.Duration {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return d[len(d)/2]
	}
	plain, profiled := median(plainT), median(profT)
	sort.Float64s(ratios)
	overhead := ratios[len(ratios)/2]
	if overhead < 0 {
		overhead = 0
	}
	ops := 0
	var count func(o *sqlexec.OpProfile)
	count = func(o *sqlexec.OpProfile) {
		ops++
		for _, c := range o.Children {
			count(c)
		}
	}
	count(prof.Root)

	t.AddRow("vectorized", ms(plain), "-", "-")
	t.AddRow("vectorized + profile", ms(profiled), fmt.Sprintf("%.1f%%", overhead), fmt.Sprint(ops))
	t.Note("%d rows, median of %d interleaved pairs; profiled runs also feed the slow-query log when SlowThreshold is set", n, pairs)
	return t
}
