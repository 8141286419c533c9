package sqlexec

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/columnstore"
	"repro/internal/extstore"
	"repro/internal/value"
)

// This file implements the "compiled" executor: plans are specialized into
// fused closure pipelines before execution, the software analog of SAP
// HANA SOE's SQL→C→LLVM code generation (§IV-A, [11], [12]). Compared to
// the Volcano interpreter it removes (a) the per-tuple iterator interface
// calls, (b) row materialization ahead of filters — predicates run
// directly against typed column accessors — and (c) boxed value
// comparisons on hot integer paths.

// pipe pushes rows into emit until exhausted.
type pipe func(emit func(value.Row) error) error

// errStop terminates a pipeline early (LIMIT).
var errStop = fmt.Errorf("sqlexec: pipeline stop")

// compilePlan specializes a plan node into a pipe, attaching the analyze
// wrapper when the statement is profiled.
func compilePlan(p Plan, ctx *execCtx) (pipe, error) {
	pp, err := compilePlanRaw(p, ctx)
	if err != nil {
		return nil, err
	}
	return ctx.prof.wrapPipe(p, pp), nil
}

func compilePlanRaw(p Plan, ctx *execCtx) (pipe, error) {
	switch x := p.(type) {
	case *ScanPlan:
		return compileScan(x, ctx)
	case *TableFuncPlan:
		it, err := newTableFuncIter(x, ctx)
		if err != nil {
			return nil, err
		}
		return iterToPipe(it), nil
	case *VirtualScanPlan:
		it, err := newVirtualIter(x, ctx)
		if err != nil {
			return nil, err
		}
		return iterToPipe(it), nil
	case *FilterPlan:
		child, err := compilePlan(x.Child, ctx)
		if err != nil {
			return nil, err
		}
		pred, err := compileExpr(x.Pred, resolverFor(x.Child.columns()), ctx.reg)
		if err != nil {
			return nil, err
		}
		params := ctx.params
		return func(emit func(value.Row) error) error {
			env := Env{Params: params}
			return child(func(row value.Row) error {
				env.Row = row
				if v := pred(&env); !v.IsNull() && v.AsBool() {
					return emit(row)
				}
				return nil
			})
		}, nil
	case *ProjectPlan:
		child, err := compilePlan(x.Child, ctx)
		if err != nil {
			return nil, err
		}
		res := resolverFor(x.Child.columns())
		exprs := make([]evalFn, len(x.Exprs))
		for i, e := range x.Exprs {
			f, err := compileExpr(e, res, ctx.reg)
			if err != nil {
				return nil, err
			}
			exprs[i] = f
		}
		params := ctx.params
		return func(emit func(value.Row) error) error {
			env := Env{Params: params}
			return child(func(row value.Row) error {
				env.Row = row
				out := make(value.Row, len(exprs))
				for i, f := range exprs {
					out[i] = f(&env)
				}
				return emit(out)
			})
		}, nil
	case *JoinPlan:
		return compileJoin(x, ctx)
	case *AggPlan:
		return compileAgg(x, ctx)
	case *DistinctPlan:
		child, err := compilePlan(x.Child, ctx)
		if err != nil {
			return nil, err
		}
		return func(emit func(value.Row) error) error {
			seen := map[string]bool{}
			return child(func(row value.Row) error {
				k := row.Key()
				if seen[k] {
					return nil
				}
				seen[k] = true
				return emit(row)
			})
		}, nil
	case *SortPlan:
		child, err := compilePlan(x.Child, ctx)
		if err != nil {
			return nil, err
		}
		res := resolverFor(x.Child.columns())
		keys := make([]evalFn, len(x.Keys))
		descs := make([]bool, len(x.Keys))
		for i, k := range x.Keys {
			f, err := compileExpr(k.Expr, res, ctx.reg)
			if err != nil {
				return nil, err
			}
			keys[i], descs[i] = f, k.Desc
		}
		params := ctx.params
		return func(emit func(value.Row) error) error {
			type keyed struct{ row, k value.Row }
			var all []keyed
			env := Env{Params: params}
			if err := child(func(row value.Row) error {
				env.Row = row
				ks := make(value.Row, len(keys))
				for i, f := range keys {
					ks[i] = f(&env)
				}
				all = append(all, keyed{row, ks})
				return nil
			}); err != nil {
				return err
			}
			sort.SliceStable(all, func(a, b int) bool {
				for i := range keys {
					c := value.Compare(all[a].k[i], all[b].k[i])
					if descs[i] {
						c = -c
					}
					if c != 0 {
						return c < 0
					}
				}
				return false
			})
			for _, kr := range all {
				if err := emit(kr.row); err != nil {
					return err
				}
			}
			return nil
		}, nil
	case *LimitPlan:
		child, err := compilePlan(x.Child, ctx)
		if err != nil {
			return nil, err
		}
		n, off := x.N, x.Offset
		return func(emit func(value.Row) error) error {
			skipped, emitted := 0, 0
			err := child(func(row value.Row) error {
				if skipped < off {
					skipped++
					return nil
				}
				if emitted >= n {
					return errStop
				}
				emitted++
				if err := emit(row); err != nil {
					return err
				}
				if emitted >= n {
					return errStop
				}
				return nil
			})
			if err == errStop {
				return nil
			}
			return err
		}, nil
	case *AliasPlan:
		return compilePlan(x.Child, ctx)
	case *ValuesPlan:
		it, err := newValuesIter(x, ctx)
		if err != nil {
			return nil, err
		}
		return iterToPipe(it), nil
	}
	return nil, fmt.Errorf("sql: no compiler for %T", p)
}

func iterToPipe(it iterator) pipe {
	return func(emit func(value.Row) error) error {
		if err := it.Open(); err != nil {
			return err
		}
		defer it.Close()
		for {
			row, ok, err := it.Next()
			if err != nil || !ok {
				return err
			}
			if err := emit(row); err != nil {
				return err
			}
		}
	}
}

// --- fused scan -------------------------------------------------------------

// colGetter reads one column at a physical row position without boxing
// intermediary rows.
type colGetter func(pos int) value.Value

// compileScan fuses partition iteration, visibility, predicate and row
// materialization into one loop. Predicates of the shape <intCol> <op>
// <literal> compile to raw int64 comparisons over the bit-packed storage.
func compileScan(s *ScanPlan, ctx *execCtx) (pipe, error) {
	parts := s.scanParts()
	ncols := len(s.Entry.Schema)
	pruned := s.Pruned
	filterExpr := s.Filter
	cols := s.columns()
	reg := ctx.reg
	params := ctx.params
	ts := ctx.ts
	stats := ctx.stats
	op := ctx.prof.node(s)

	return func(emit func(value.Row) error) error {
		stats.PartitionsPruned += pruned
		if op != nil {
			op.partsPruned.Add(int64(pruned))
		}
		for _, part := range parts {
			if part.ColdReadPenalty > 0 {
				time.Sleep(time.Duration(part.ColdReadPenalty) * time.Microsecond)
				stats.ColdPenaltyMicros += part.ColdReadPenalty
			}
			faults0, faultNS0 := extstore.FaultCounters()
			snap := part.Table.Snapshot(ts)
			stats.PartitionsScanned++
			if op != nil {
				op.partsScanned.Add(1)
			}
			n := snap.NumRows()

			getters := make([]colGetter, ncols)
			for c := 0; c < ncols; c++ {
				getters[c] = makeGetter(snap, c)
			}

			// Specialized predicate over positions; falls back to the
			// generic expression evaluator over materialized rows.
			fastPred, genericPred, err := compileScanPredicate(filterExpr, snap, cols, params, reg)
			if err != nil {
				return err
			}

			// Accumulate the row count locally and flush once per
			// partition: a per-row stats write in this loop is measurable
			// against raw int comparisons.
			scanned := 0
			env := Env{Params: params}
			for pos := 0; pos < n; pos++ {
				if !snap.Visible(pos) {
					continue
				}
				scanned++
				if fastPred != nil && !fastPred(pos) {
					continue
				}
				row := make(value.Row, ncols)
				for c := 0; c < ncols; c++ {
					row[c] = getters[c](pos)
				}
				if genericPred != nil {
					env.Row = row
					if v := genericPred(&env); v.IsNull() || !v.AsBool() {
						continue
					}
				}
				if err := emit(row); err != nil {
					stats.RowsScanned += scanned
					if op != nil {
						op.rowsScanned.Add(int64(scanned))
					}
					return err
				}
			}
			stats.RowsScanned += scanned
			if op != nil {
				op.rowsScanned.Add(int64(scanned))
			}
			attributeFaults(stats, op, faults0, faultNS0)
		}
		return nil
	}, nil
}

// attributeFaults charges the page faults that happened since the given
// extstore counter snapshot to the stats block and operator profile.
// Under concurrent queries the per-operator attribution is approximate
// (the process-wide counters stay exact).
func attributeFaults(stats *ExecStats, op *OpProfile, faults0, faultNS0 int64) {
	faults1, faultNS1 := extstore.FaultCounters()
	if faults1 == faults0 {
		return
	}
	stats.PageFaults += int(faults1 - faults0)
	stats.PageFaultMicros += int((faultNS1 - faultNS0) / 1000)
	if op != nil {
		op.pageFaults.Add(faults1 - faults0)
		op.faultNS.Add(faultNS1 - faultNS0)
	}
}

// makeGetter builds a specialized accessor spanning main and delta parts.
func makeGetter(snap *columnstore.Snapshot, col int) colGetter {
	mainRows := snap.MainRows()
	mc := snap.MainColumn(col)
	dc := snap.DeltaColumn(col)
	deltaGet := func(pos int) value.Value {
		d := pos - mainRows
		if dc == nil || d >= dc.Len() {
			return value.Null
		}
		return dc.Get(d)
	}
	if mc == nil {
		return deltaGet
	}
	// Specialize on reader capabilities, not concrete structs: hot and
	// paged warm columns expose the same accessors.
	kind := mc.Kind()
	if m, ok := mc.(columnstore.IntAccessor); ok && kind != value.KindFloat && kind != value.KindString {
		return func(pos int) value.Value {
			if pos < mainRows {
				if mc.IsNull(pos) {
					return value.Null
				}
				return value.Value{K: kind, I: m.Int64(pos)}
			}
			return deltaGet(pos)
		}
	}
	if m, ok := mc.(columnstore.FloatAccessor); ok && kind == value.KindFloat {
		return func(pos int) value.Value {
			if pos < mainRows {
				if mc.IsNull(pos) {
					return value.Null
				}
				return value.Float(m.Float64(pos))
			}
			return deltaGet(pos)
		}
	}
	return func(pos int) value.Value {
		if pos < mainRows {
			return mc.Get(pos)
		}
		return deltaGet(pos)
	}
}

// intReader reads an int64 at a position; ok=false means NULL or
// non-integer storage.
type intReader func(pos int) (int64, bool)

func makeIntReader(snap *columnstore.Snapshot, col int) intReader {
	mainRows := snap.MainRows()
	mc, dc := snap.MainColumn(col), snap.DeltaColumn(col)
	m, mok := mc.(columnstore.IntAccessor)
	if mok {
		switch mc.Kind() {
		case value.KindInt, value.KindTime, value.KindBool:
		default:
			mok = false
		}
	}
	if dc != nil && dc.Kind() != value.KindInt && dc.Kind() != value.KindTime && dc.Kind() != value.KindBool {
		return nil
	}
	if !mok && mc != nil && mc.Len() > 0 {
		return nil // main part not integer-addressable (e.g. RLE): generic path
	}
	return func(pos int) (int64, bool) {
		if pos < mainRows {
			if !mok || mc.IsNull(pos) {
				return 0, false
			}
			return m.Int64(pos), true
		}
		d := pos - mainRows
		if dc == nil || d >= dc.Len() || dc.IsNull(d) {
			return 0, false
		}
		return dc.Int64(d), true
	}
}

// compileScanPredicate splits the pushed filter into position-specialized
// conjuncts (int comparisons, dictionary equality) and a generic residue.
func compileScanPredicate(filter Expr, snap *columnstore.Snapshot, cols []colInfo, params []value.Value, reg *Registry) (func(pos int) bool, evalFn, error) {
	if filter == nil {
		return nil, nil, nil
	}
	var fastParts []func(pos int) bool
	var rest []Expr
	for _, conj := range splitConjuncts(filter) {
		if f := tryFastConjunct(conj, snap, cols, params); f != nil {
			fastParts = append(fastParts, f)
			continue
		}
		rest = append(rest, conj)
	}
	var fast func(pos int) bool
	if len(fastParts) > 0 {
		fast = func(pos int) bool {
			for _, f := range fastParts {
				if !f(pos) {
					return false
				}
			}
			return true
		}
	}
	var generic evalFn
	if len(rest) > 0 {
		f, err := compileExpr(andAll(rest), resolverFor(cols), reg)
		if err != nil {
			return nil, nil, err
		}
		generic = f
	}
	return fast, generic, nil
}

// tryFastConjunct specializes col <op> constant over integer storage and
// col = 'string' over dictionary storage, where the constant is a literal
// or a bound parameter (colConstCmp). Returns nil when not applicable.
func tryFastConjunct(e Expr, snap *columnstore.Snapshot, cols []colInfo, params []value.Value) func(pos int) bool {
	cr, op, val, ok := colConstCmp(e, params)
	if !ok {
		return nil
	}
	col := -1
	for i, c := range cols {
		if (cr.Qual == "" || cr.Qual == c.Qual) && cr.Name == c.Name {
			col = i
			break
		}
	}
	if col < 0 {
		return nil
	}

	// Integer comparison fast path.
	if val.K == value.KindInt || val.K == value.KindTime || val.K == value.KindBool {
		rd := makeIntReader(snap, col)
		if rd == nil {
			return nil
		}
		k := val.I
		switch op {
		case "=":
			return func(pos int) bool { v, ok := rd(pos); return ok && v == k }
		case "<>":
			return func(pos int) bool { v, ok := rd(pos); return ok && v != k }
		case "<":
			return func(pos int) bool { v, ok := rd(pos); return ok && v < k }
		case "<=":
			return func(pos int) bool { v, ok := rd(pos); return ok && v <= k }
		case ">":
			return func(pos int) bool { v, ok := rd(pos); return ok && v > k }
		case ">=":
			return func(pos int) bool { v, ok := rd(pos); return ok && v >= k }
		}
		return nil
	}

	// Dictionary equality fast path: compare value IDs in main storage.
	// Requires a table-wide dictionary (DictIndexed); paged warm columns
	// use per-chunk dictionaries and take the generic path instead.
	if val.K == value.KindString && op == "=" {
		mc, ok := snap.MainColumn(col).(columnstore.DictIndexed)
		if !ok {
			return nil
		}
		mainRows := snap.MainRows()
		dc := snap.DeltaColumn(col)
		id, found := mc.LookupID(val.S)
		want := val.S
		return func(pos int) bool {
			if pos < mainRows {
				return found && !mc.IsNull(pos) && mc.IDAt(pos) == id
			}
			d := pos - mainRows
			if dc == nil || d >= dc.Len() || dc.IsNull(d) {
				return false
			}
			return dc.Get(d).S == want
		}
	}
	return nil
}

// --- fused join and aggregation -------------------------------------------

func compileJoin(p *JoinPlan, ctx *execCtx) (pipe, error) {
	left, err := compilePlan(p.L, ctx)
	if err != nil {
		return nil, err
	}
	right, err := compilePlan(p.R, ctx)
	if err != nil {
		return nil, err
	}
	lres, rres := resolverFor(p.L.columns()), resolverFor(p.R.columns())
	var lKeys, rKeys []evalFn
	for i := range p.EquiL {
		lf, err := compileExpr(p.EquiL[i], lres, ctx.reg)
		if err != nil {
			return nil, err
		}
		rf, err := compileExpr(p.EquiR[i], rres, ctx.reg)
		if err != nil {
			return nil, err
		}
		lKeys, rKeys = append(lKeys, lf), append(rKeys, rf)
	}
	var residual evalFn
	if p.Residual != nil {
		f, err := compileExpr(p.Residual, resolverFor(p.columns()), ctx.reg)
		if err != nil {
			return nil, err
		}
		residual = f
	}
	rWidth := len(p.R.columns())
	leftOuter := p.LeftOuter
	params := ctx.params

	return func(emit func(value.Row) error) error {
		// Build.
		var build map[string][]value.Row
		var rRows []value.Row
		env := Env{Params: params}
		if len(rKeys) > 0 {
			build = make(map[string][]value.Row)
			key := make(value.Row, len(rKeys))
			if err := right(func(row value.Row) error {
				env.Row = row
				for i, f := range rKeys {
					key[i] = f(&env)
				}
				k := key.Key()
				build[k] = append(build[k], row)
				return nil
			}); err != nil {
				return err
			}
		} else {
			if err := right(func(row value.Row) error {
				rRows = append(rRows, row)
				return nil
			}); err != nil {
				return err
			}
		}
		// Probe.
		return left(func(lrow value.Row) error {
			var matches []value.Row
			if build != nil {
				env.Row = lrow
				key := make(value.Row, len(lKeys))
				hasNull := false
				for i, f := range lKeys {
					key[i] = f(&env)
					if key[i].IsNull() {
						hasNull = true
					}
				}
				if !hasNull {
					matches = build[key.Key()]
				}
			} else {
				matches = rRows
			}
			matched := false
			for _, rrow := range matches {
				combined := make(value.Row, 0, len(lrow)+len(rrow))
				combined = append(combined, lrow...)
				combined = append(combined, rrow...)
				if residual != nil {
					env.Row = combined
					if v := residual(&env); v.IsNull() || !v.AsBool() {
						continue
					}
				}
				matched = true
				if err := emit(combined); err != nil {
					return err
				}
			}
			if leftOuter && !matched {
				combined := make(value.Row, len(lrow)+rWidth)
				copy(combined, lrow)
				return emit(combined)
			}
			return nil
		})
	}, nil
}

func compileAgg(p *AggPlan, ctx *execCtx) (pipe, error) {
	child, err := compilePlan(p.Child, ctx)
	if err != nil {
		return nil, err
	}
	res := resolverFor(p.Child.columns())
	groups := make([]evalFn, len(p.GroupBy))
	for i, g := range p.GroupBy {
		f, err := compileExpr(g, res, ctx.reg)
		if err != nil {
			return nil, err
		}
		groups[i] = f
	}
	specs := p.Aggs
	args := make([]evalFn, len(specs))
	for i, a := range specs {
		if a.Arg != nil {
			f, err := compileExpr(a.Arg, res, ctx.reg)
			if err != nil {
				return nil, err
			}
			args[i] = f
		}
	}
	params := ctx.params

	return func(emit func(value.Row) error) error {
		type group struct {
			key  value.Row
			accs []aggAcc
		}
		table := map[string]*group{}
		var order []string
		env := Env{Params: params}
		if err := child(func(row value.Row) error {
			env.Row = row
			key := make(value.Row, len(groups))
			for i, f := range groups {
				key[i] = f(&env)
			}
			k := key.Key()
			g := table[k]
			if g == nil {
				g = &group{key: key, accs: make([]aggAcc, len(specs))}
				table[k] = g
				order = append(order, k)
			}
			for i := range specs {
				var v value.Value
				if args[i] != nil {
					v = args[i](&env)
				}
				g.accs[i].add(v, specs[i])
			}
			return nil
		}); err != nil {
			return err
		}
		if len(order) == 0 && len(groups) == 0 {
			g := &group{accs: make([]aggAcc, len(specs))}
			table[""] = g
			order = append(order, "")
		}
		for _, k := range order {
			g := table[k]
			row := make(value.Row, 0, len(g.key)+len(specs))
			row = append(row, g.key...)
			for i := range specs {
				row = append(row, g.accs[i].result(specs[i]))
			}
			if err := emit(row); err != nil {
				return err
			}
		}
		return nil
	}, nil
}
