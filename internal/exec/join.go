package exec

import (
	"fmt"
	"strings"

	"ojv/internal/algebra"
	"ojv/internal/obs"
	"ojv/internal/rel"
)

// probePlan is the compiled half of an index probe: the base table the
// right operand resolves to, whether its pre-update state is wanted, the
// selection over it, the unique key or secondary index the probe goes
// through, and where in a left row the probe key comes from.
type probePlan struct {
	t     *rel.Table
	old   bool
	where algebra.Pred              // nil: no selection over the table
	sel   func(rel.Row) algebra.Tri // where, compiled against the table
	ix    *rel.Index                // nil: the probe goes through the unique key
	// leftCols are the left-row positions of the probe key, in key or index
	// column order; rightCols are the table's columns in the same order
	// (they key the transient delta index of the old-state delete case).
	leftCols, rightCols []int
}

// planIndexProbe plans an index probe when the right operand is a base
// table (optionally under a selection) with an index covering the equijoin
// columns; it returns nil when no probe applies.
func (c *compiler) planIndexProbe(right algebra.Expr, leftSchema rel.Schema, pairs [][2]algebra.ColRef) (*probePlan, error) {
	p := &probePlan{}
	var tname string
	unwrap := func(e algebra.Expr) bool {
		switch r := e.(type) {
		case *algebra.TableRef:
			tname = r.Name
			return true
		case *algebra.OldTableRef:
			tname = r.Name
			p.old = true
			return true
		}
		return false
	}
	if !unwrap(right) {
		if s, ok := right.(*algebra.Select); ok && unwrap(s.Input) {
			p.where = s.Pred
		} else {
			return nil, nil
		}
	}
	var err error
	if p.t, err = c.table(tname); err != nil {
		return nil, err
	}
	rightOffsets := make([]int, len(pairs))
	for i, pr := range pairs {
		o := p.t.Schema().IndexOf(pr[1].Table, pr[1].Column)
		if o < 0 {
			return nil, nil
		}
		rightOffsets[i] = o
	}
	// Prefer the unique key, then any secondary index on the same column set.
	if sameColumnSet(p.t.KeyCols(), rightOffsets) {
		p.rightCols = p.t.KeyCols()
	} else if p.ix = p.t.IndexOnSet(rightOffsets); p.ix != nil {
		p.rightCols = p.ix.Cols()
	} else {
		return nil, nil
	}
	p.leftCols = make([]int, len(p.rightCols))
	for i, rc := range p.rightCols {
		for j, pr := range pairs {
			if rightOffsets[j] == rc {
				p.leftCols[i] = leftSchema.MustIndexOf(pr[0].Table, pr[0].Column)
			}
		}
	}
	if p.where != nil {
		f, err := p.where.Compile(p.t.Schema())
		if err != nil {
			return nil, err
		}
		p.sel = f
	}
	return p, nil
}

// String names the probe for the physical-plan rendering: the table (± for
// its old state), the key or index probed with its columns, the selection.
func (p *probePlan) String() string {
	cols := make([]string, len(p.rightCols))
	for i, c := range p.rightCols {
		cols[i] = p.t.Schema()[c].Name
	}
	name := p.t.Name()
	if p.old {
		name += "±"
	}
	via := "unique key"
	if p.ix != nil {
		via = "index " + p.ix.Name()
	}
	out := fmt.Sprintf("probe %s via %s(%s)", name, via, strings.Join(cols, ","))
	if p.where != nil {
		out += " select " + p.where.String()
	}
	return out
}

// indexProbe is one run of a probePlan: the plan plus what depends on the
// run's delta and the scratch a serial probe loop reuses, so steady-state
// probing allocates no key string and no one-element slice.
type indexProbe struct {
	*probePlan
	// Old-state adjustment: when probing the pre-update state of a table
	// with a bound delta, exclude freshly inserted rows (insert case) or
	// re-admit deleted rows via a transient delta index (delete case).
	excludeKeys  map[string]bool
	deltaByProbe map[string][]rel.Row
	keyBuf       []byte
	oneRow       [1]rel.Row
}

// start binds the plan to one run.
func (p *probePlan) start(ctx *Context) indexProbe {
	ip := indexProbe{probePlan: p}
	delta := ctx.Deltas[p.t.Name()]
	if !p.old || len(delta) == 0 {
		return ip
	}
	if ctx.DeltaIsInsert {
		ip.excludeKeys = make(map[string]bool, len(delta))
		for _, d := range delta {
			ip.excludeKeys[p.t.KeyOf(d)] = true
		}
		return ip
	}
	ip.deltaByProbe = make(map[string][]rel.Row, len(delta))
	for _, d := range delta {
		k := rel.EncodeRowCols(d, p.rightCols)
		ip.deltaByProbe[k] = append(ip.deltaByProbe[k], d)
	}
	return ip
}

// candidates returns the candidate right rows for one left row; the bool is
// false when an equijoin column of the left row is NULL (no match possible).
// The returned slice is valid until the next call.
func (ip *indexProbe) candidates(l rel.Row) ([]rel.Row, bool) {
	for _, c := range ip.leftCols {
		if l[c].IsNull() {
			return nil, false
		}
	}
	ip.keyBuf = rel.AppendRowCols(ip.keyBuf[:0], l, ip.leftCols)
	var rows []rel.Row
	if ip.ix != nil {
		rows = ip.ix.LookupBytes(ip.keyBuf)
	} else if row, ok := ip.t.GetEncodedBytes(ip.keyBuf); ok {
		ip.oneRow[0] = row
		rows = ip.oneRow[:]
	}
	if ip.excludeKeys == nil && ip.deltaByProbe == nil && ip.sel == nil {
		return rows, true
	}
	out := make([]rel.Row, 0, len(rows)+1)
	for _, r := range rows {
		if ip.excludeKeys != nil && ip.excludeKeys[ip.t.KeyOf(r)] {
			continue
		}
		out = append(out, r)
	}
	if ip.deltaByProbe != nil {
		out = append(out, ip.deltaByProbe[string(ip.keyBuf)]...)
	}
	if ip.sel != nil {
		kept := out[:0]
		for _, r := range out {
			if ip.sel(r) == algebra.True {
				kept = append(kept, r)
			}
		}
		out = kept
	}
	return out, true
}

// JoinRelations joins two already-materialized relations with the given
// predicate, using a hash join when an equijoin conjunct exists. The
// table-set split for equijoin extraction is inferred from the relations'
// schemas.
func JoinRelations(kind algebra.JoinKind, left, right Relation, pred algebra.Pred) (Relation, error) {
	concat := left.Schema.Concat(right.Schema)
	f, err := pred.Compile(concat)
	if err != nil {
		return Relation{}, err
	}
	leftTabs := make(map[string]bool)
	for _, t := range left.Schema.Tables() {
		leftTabs[t] = true
	}
	rightTabs := make(map[string]bool)
	for _, t := range right.Schema.Tables() {
		rightTabs[t] = true
	}
	pairs, _ := algebra.EquiPairs(pred, leftTabs, rightTabs)
	if len(pairs) > 0 {
		return hashJoin(1, nil, kind, left, right, concat, f, pairs)
	}
	return nestedLoopJoin(kind, left, right, concat, f)
}

func sameColumnSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[int]bool, len(a))
	for _, x := range a {
		m[x] = true
	}
	for _, x := range b {
		if !m[x] {
			return false
		}
	}
	return true
}

func nullExtendRight(l rel.Row, nRight int) rel.Row {
	out := make(rel.Row, len(l)+nRight)
	copy(out, l)
	return out // trailing values are the zero Value, i.e. NULL
}

func nullExtendLeft(r rel.Row, nLeft int) rel.Row {
	out := make(rel.Row, nLeft+len(r))
	copy(out[nLeft:], r)
	return out
}

// hashJoin joins two materialized relations through the streaming join
// source by hashing the right input on the equijoin columns and probing
// with the left in batches. With workers > 1 large batches probe in
// parallel morsels; the result is byte-identical at every worker count.
func hashJoin(workers int, metrics *obs.Registry, kind algebra.JoinKind, left, right Relation, concat rel.Schema, pred func(rel.Row) algebra.Tri, pairs [][2]algebra.ColRef) (Relation, error) {
	leftCols := make([]int, len(pairs))
	rightCols := make([]int, len(pairs))
	for i, p := range pairs {
		leftCols[i] = left.Schema.MustIndexOf(p[0].Table, p[0].Column)
		rightCols[i] = right.Schema.MustIndexOf(p[1].Table, p[1].Column)
	}
	return joinMaterialized(workers, metrics, kind, left, right, concat, pred, leftCols, rightCols)
}

// nestedLoopJoin handles joins without equijoin conjuncts.
func nestedLoopJoin(kind algebra.JoinKind, left, right Relation, concat rel.Schema, pred func(rel.Row) algebra.Tri) (Relation, error) {
	return joinMaterialized(1, nil, kind, left, right, concat, pred, nil, nil)
}

// joinMaterialized wraps two materialized relations in scan sources, runs
// the streaming hash/nested-loop join, and drains the result.
func joinMaterialized(workers int, metrics *obs.Registry, kind algebra.JoinKind, left, right Relation, concat rel.Schema, pred func(rel.Row) algebra.Tri, leftCols, rightCols []int) (Relation, error) {
	ctx := &Context{Parallelism: workers, Metrics: metrics}
	outSchema := concat
	if kind == algebra.SemiJoin || kind == algebra.AntiJoin {
		outSchema = left.Schema
	}
	src := &hashJoinSource{
		opBase:     opBase{schema: outSchema},
		ctx:        ctx,
		kind:       kind,
		left:       newRelSource(ctx, left),
		right:      newRelSource(ctx, right),
		pred:       pred,
		leftCols:   leftCols,
		rightCols:  rightCols,
		leftWidth:  len(left.Schema),
		rightWidth: len(right.Schema),
	}
	if err := src.Open(); err != nil {
		src.Close()
		return Relation{}, err
	}
	out, err := Drain(src)
	cerr := src.Close()
	if err != nil {
		return Relation{}, err
	}
	if cerr != nil {
		return Relation{}, cerr
	}
	return out, nil
}

// newRelSource scans an in-memory relation (no metrics, no span).
func newRelSource(ctx *Context, r Relation) Source {
	return &scanSource{
		opBase: opBase{schema: r.Schema},
		ctx:    ctx,
		fetch:  func(*Context) []rel.Row { return r.Rows },
	}
}
