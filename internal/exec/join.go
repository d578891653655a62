package exec

import (
	"fmt"
	"slices"
	"strings"

	"ojv/internal/algebra"
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

// Want names a secondary index a compiled join goes through, or would go
// through if it existed: a base table and the column set (offsets,
// ascending) of its equijoin columns. Program.Wants lists them.
type Want struct {
	Table string
	Cols  []int
}

// planIndexProbe plans an index probe when the right operand is a base
// table (under any chain of selections) with an index covering the equijoin
// columns; it returns nil when no probe applies. A probe that needs a
// secondary index — whether or not one exists yet — is recorded in
// c.wants: the compiler reports, it never creates.
func (c *compiler) planIndexProbe(right algebra.Expr, leftSchema rel.Schema, pairs [][2]algebra.ColRef) (*probePlan, error) {
	p := &probePlan{}
	// §4.1 leaves σq(σp(T)) as a right operand (view.isLeafish): peel the
	// whole chain, innermost selection first in the conjunction.
	var sels []algebra.Pred
	for {
		s, ok := right.(*algebra.Select)
		if !ok {
			break
		}
		sels = append(sels, s.Pred)
		right = s.Input
	}
	var tname string
	switch r := right.(type) {
	case *algebra.TableRef:
		tname = r.Name
	case *algebra.OldTableRef:
		tname = r.Name
		p.old = true
	default:
		return nil, nil
	}
	if len(sels) > 0 {
		slices.Reverse(sels)
		p.where = algebra.MakeAnd(sels...)
	}
	var err error
	if p.t, err = c.table(tname); err != nil {
		return nil, err
	}
	rightOffsets := make([]int, len(pairs))
	for i, pr := range pairs {
		o := p.t.Schema().IndexOf(pr[1].Table, pr[1].Column)
		if o < 0 || slices.Contains(rightOffsets[:i], o) {
			return nil, nil
		}
		rightOffsets[i] = o
	}
	// Prefer the unique key, then any secondary index on the same column set.
	if rel.SameIntSet(p.t.KeyCols(), rightOffsets) {
		p.rightCols = p.t.KeyCols()
	} else {
		want := Want{Table: tname, Cols: slices.Clone(rightOffsets)}
		slices.Sort(want.Cols)
		c.wants = append(c.wants, want)
		if p.ix = p.t.IndexOnSet(rightOffsets); p.ix == nil {
			return nil, nil
		}
		p.rightCols = p.ix.Cols()
	}
	p.leftCols = make([]int, len(p.rightCols))
	for i, rc := range p.rightCols {
		j := slices.Index(rightOffsets, rc)
		p.leftCols[i] = leftSchema.MustIndexOf(pairs[j][0].Table, pairs[j][0].Column)
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
	// Old-state adjustment: when probing the pre-step state of the delta's
	// table, exclude the added rows' handles and re-admit the removed rows
	// via a transient delta index.
	excluded     map[int32]bool
	deltaByProbe map[string][]rel.Row
	keyBuf       []byte
	// out is the candidate scratch, refilled per left row: the rows the
	// bucket's handles resolve to, filtered and extended.
	out []rel.Row
}

// start binds the plan to one run, keeping the scratch of prev, the probe
// of an earlier run of the same join.
func (p *probePlan) start(ctx *Context, prev *indexProbe) indexProbe {
	ip := indexProbe{probePlan: p, keyBuf: prev.keyBuf[:0], out: prev.out[:0]}
	if !p.old || p.t.Name() != ctx.DeltaTable {
		return ip
	}
	if len(ctx.Added) > 0 {
		ip.excluded = make(map[int32]bool, len(ctx.Added))
		for _, r := range ctx.Added {
			ip.keyBuf = rel.AppendRowCols(ip.keyBuf[:0], r, p.t.KeyCols())
			if h, ok := p.t.HandleBytes(ip.keyBuf); ok {
				ip.excluded[h] = true
			}
		}
	}
	if len(ctx.Removed) > 0 {
		ip.deltaByProbe = make(map[string][]rel.Row, len(ctx.Removed))
		for _, d := range ctx.Removed {
			k := rel.EncodeRowCols(d, p.rightCols)
			ip.deltaByProbe[k] = append(ip.deltaByProbe[k], d)
		}
	}
	return ip
}

// keySet returns the encoded keys of rows in table t, nil when there are
// none: the added rows an old-state read leaves out.
func keySet(t *rel.Table, rows []rel.Row) map[string]bool {
	if len(rows) == 0 {
		return nil
	}
	keys := make(map[string]bool, len(rows))
	for _, r := range rows {
		keys[t.KeyOf(r)] = true
	}
	return keys
}

// release drops the run's delta-derived state and the rows left in the
// candidate scratch, keeping the scratch.
func (ip *indexProbe) release() {
	ip.excluded, ip.deltaByProbe = nil, nil
	clear(ip.out[:cap(ip.out)])
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
	out := ip.out[:0]
	if ip.ix != nil {
		for h := ip.ix.Get(ip.keyBuf).Head; h != rel.NoHandle; h = ip.ix.Next(h) {
			if !ip.excluded[h] {
				out = append(out, ip.t.Row(h))
			}
		}
	} else if h, ok := ip.t.HandleBytes(ip.keyBuf); ok && !ip.excluded[h] {
		out = append(out, ip.t.Row(h))
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
	ip.out = out
	return out, true
}
