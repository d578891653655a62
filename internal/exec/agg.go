package exec

import (
	"fmt"

	"ojv/internal/algebra"
	"ojv/internal/obs"
	"ojv/internal/rel"
)

// aggState accumulates one aggregate within one group.
type aggState struct {
	count   int64     // rows (COUNT(*)) or non-null inputs (others)
	sum     rel.Value // running sum; NULL until the first non-null input
	nonNull int64
}

// compileGroupBy compiles γ into a blocking streaming source: input batches
// fold into per-group aggregate states as they arrive (only the group
// states are retained, never the input rows), and the finalized groups
// emit in first-seen order once the input is exhausted. SQL aggregate
// semantics: COUNT(*) counts rows, COUNT(c) counts non-null values,
// SUM/AVG over zero non-null inputs are NULL.
func compileGroupBy(n *node, e *algebra.GroupBy) error {
	in := n.kids[0]
	groupCols := make([]int, len(e.GroupCols))
	for i, c := range e.GroupCols {
		p := in.schema.IndexOf(c.Table, c.Column)
		if p < 0 {
			return fmt.Errorf("exec: group column %s not in %s", c, in.schema)
		}
		groupCols[i] = p
	}
	aggCols := make([]int, len(e.Aggs))
	for i, a := range e.Aggs {
		if a.Func == algebra.AggCount && a.Col == (algebra.ColRef{}) {
			aggCols[i] = -1 // COUNT(*)
			continue
		}
		p := in.schema.IndexOf(a.Col.Table, a.Col.Column)
		if p < 0 {
			return fmt.Errorf("exec: aggregate column %s not in %s", a.Col, in.schema)
		}
		aggCols[i] = p
	}
	n.label = "groupby"
	n.start = func(ctx *Context, parent *obs.Span, old Source) Source {
		sp := opSpan(parent, "exec.groupby")
		s := reuse[groupBySource](old)
		*s = groupBySource{
			opBase:    opBase{schema: n.schema, span: sp},
			ctx:       ctx,
			in:        in.start(ctx, sp, s.in),
			aggs:      e.Aggs,
			groupCols: groupCols,
			aggCols:   aggCols,
		}
		return s
	}
	return nil
}

// group is one aggregation group: its output row, carved when the group is
// first seen with the key values in place and the aggregates filled in at
// finalization, and its aggregate states.
type group struct {
	row  rel.Row
	aggs []aggState
}

type groupBySource struct {
	opBase
	ctx       *Context
	in        Source
	aggs      []algebra.Aggregate
	groupCols []int
	aggCols   []int

	started bool
	out     []rel.Row
	pos     int
}

func (s *groupBySource) Open() error { return s.in.Open() }

func (s *groupBySource) Next(b *Batch) (bool, error) {
	if !s.started {
		s.started = true
		if err := s.fold(); err != nil {
			return false, err
		}
	}
	b.Reset()
	limit := s.ctx.batchSize()
	for s.pos < len(s.out) && b.Len() < limit {
		b.Append(s.out[s.pos])
		s.pos++
	}
	if b.Len() == 0 {
		return false, nil
	}
	s.observe(b)
	return true, nil
}

// fold consumes the input batch by batch, accumulating group states, then
// finalizes the output rows in first-seen group order.
func (s *groupBySource) fold() error {
	groups := make(map[string]*group)
	var order []string
	var in Batch
	for {
		ok, err := s.in.Next(&in)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for _, r := range in.Rows {
			k := rel.EncodeRowCols(r, s.groupCols)
			g := groups[k]
			if g == nil {
				g = &group{row: s.ctx.newRow(len(s.schema)), aggs: make([]aggState, len(s.aggs))}
				for i, c := range s.groupCols {
					g.row[i] = r[c]
				}
				groups[k] = g
				order = append(order, k)
			}
			for i := range s.aggs {
				st := &g.aggs[i]
				if s.aggCols[i] < 0 {
					st.count++
					continue
				}
				v := r[s.aggCols[i]]
				st.count++
				if v.IsNull() {
					continue
				}
				st.nonNull++
				if st.sum.IsNull() {
					st.sum = v
				} else {
					st.sum = rel.Add(st.sum, v)
				}
			}
		}
	}
	s.out = make([]rel.Row, 0, len(groups))
	for _, k := range order {
		g := groups[k]
		at := g.row[len(s.groupCols):]
		for i, a := range s.aggs {
			st := g.aggs[i]
			switch a.Func {
			case algebra.AggCount:
				if s.aggCols[i] < 0 {
					at[i] = rel.Int(st.count)
				} else {
					at[i] = rel.Int(st.nonNull)
				}
			case algebra.AggSum:
				at[i] = st.sum
			case algebra.AggAvg:
				if st.nonNull != 0 {
					at[i] = rel.Float(st.sum.AsFloat() / float64(st.nonNull))
				}
			default:
				return fmt.Errorf("exec: unsupported aggregate %v", a.Func)
			}
		}
		s.out = append(s.out, g.row)
	}
	return nil
}

func (s *groupBySource) Close() error {
	err := s.in.Close()
	s.ctx, s.out = nil, nil
	s.finish()
	return err
}
