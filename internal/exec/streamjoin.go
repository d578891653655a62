package exec

import (
	"fmt"

	"ojv/internal/algebra"
	"ojv/internal/obs"
	"ojv/internal/rel"
)

// Streaming join sources. The physical choice mirrors the materializing
// executor: index nested loop when the right operand is a (selected) base
// table with a usable index on the equijoin columns, hash join when an
// equijoin exists, nested loop otherwise. The build side (the right input)
// is drained and hashed at Open — subsumption-free streaming of both sides
// is impossible for outer joins, and a materialized build side is what
// makes the probe side stream — while the probe side flows batch-at-a-time.
func (c *compiler) compileJoin(n *node, e *algebra.Join) error {
	left, right := n.kids[0], n.kids[1]
	leftSchema, rightSchema := left.alg, right.alg
	concat := leftSchema.Concat(rightSchema)
	pred, err := e.Pred.Compile(concat)
	if err != nil {
		return err
	}
	pairs, _ := algebra.EquiPairs(e.Pred, algebra.TableSet(e.Left), algebra.TableSet(e.Right))

	n.schema = concat
	if e.Kind == algebra.SemiJoin || e.Kind == algebra.AntiJoin {
		n.schema = leftSchema
	}
	kind, rightWidth := e.Kind, len(rightSchema)

	// Index nested loop: only for kinds that never emit unmatched right
	// rows, when the right operand is a (selected) base table with a hash
	// index (or the unique key) on exactly the equijoin columns. The right
	// operand then lives in the probe plan and is never started.
	if kind != algebra.RightOuterJoin && kind != algebra.FullOuterJoin && len(pairs) > 0 {
		probe, err := c.planIndexProbe(e.Right, leftSchema, pairs)
		if err != nil {
			return err
		}
		if probe != nil {
			n.label = fmt.Sprintf("join.index[%s] %s", kind, probe)
			n.kids = n.kids[:1]
			n.start = func(ctx *Context, parent *obs.Span, old Source) Source {
				sp := opSpan(parent, "exec.join.index")
				s := reuse[probeJoinSource](old)
				*s = probeJoinSource{
					opBase:     opBase{schema: n.schema, span: sp},
					ctx:        ctx,
					kind:       kind,
					left:       left.start(ctx, sp, s.left),
					rightWidth: rightWidth,
					pred:       pred,
					probe:      probe.start(ctx, &s.probe),
					in:         Batch{Rows: s.in.Rows[:0]},
					rowBuf:     s.rowBuf,
				}
				return s
			}
			return nil
		}
	}

	name := "exec.join.hash"
	n.label = fmt.Sprintf("join.hash[%s] build right on %s", kind, e.Pred)
	if len(pairs) == 0 {
		name = "exec.join.nested"
		n.label = fmt.Sprintf("join.nested[%s] on %s", kind, e.Pred)
	}
	leftCols := make([]int, len(pairs))
	rightCols := make([]int, len(pairs))
	for i, p := range pairs {
		leftCols[i] = leftSchema.MustIndexOf(p[0].Table, p[0].Column)
		rightCols[i] = rightSchema.MustIndexOf(p[1].Table, p[1].Column)
	}
	leftWidth := len(leftSchema)
	n.start = func(ctx *Context, parent *obs.Span, old Source) Source {
		sp := opSpan(parent, name)
		s := reuse[hashJoinSource](old)
		*s = hashJoinSource{
			opBase:     opBase{schema: n.schema, span: sp},
			ctx:        ctx,
			kind:       kind,
			left:       left.start(ctx, sp, s.left),
			right:      right.start(ctx, sp, s.right),
			pred:       pred,
			leftCols:   leftCols,
			rightCols:  rightCols,
			leftWidth:  leftWidth,
			rightWidth: rightWidth,
			in:         Batch{Rows: s.in.Rows[:0]},
			keyBuf:     s.keyBuf[:0],
			rowBuf:     s.rowBuf,
		}
		return s
	}
	return nil
}

// probeJoinSource drives inner/left-outer/semi/anti joins through an index
// probe: left batches stream in, each row probes the right table's index.
type probeJoinSource struct {
	opBase
	ctx        *Context
	kind       algebra.JoinKind
	left       Source
	rightWidth int
	pred       func(rel.Row) algebra.Tri
	probe      indexProbe

	in     Batch
	rowBuf rel.Row
}

func (s *probeJoinSource) Open() error { return s.left.Open() }

func (s *probeJoinSource) Next(b *Batch) (bool, error) {
	b.Reset()
	for b.Len() == 0 {
		ok, err := s.left.Next(&s.in)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
		s.ctx.Metrics.Add("exec.join.index.probe_rows", int64(s.in.Len()))
		for _, l := range s.in.Rows {
			matched := false
			cands, ok := s.probe.candidates(l)
			if ok {
				for _, r := range cands {
					// The candidate is concatenated in place: a row that
					// passes the predicate is emitted as it stands, and only
					// the next candidate after it needs a fresh buffer.
					if s.rowBuf == nil {
						s.rowBuf = make(rel.Row, len(l)+s.rightWidth)
					}
					copy(s.rowBuf, l)
					copy(s.rowBuf[len(l):], r)
					if s.pred(s.rowBuf) != algebra.True {
						continue
					}
					matched = true
					if s.kind == algebra.InnerJoin || s.kind == algebra.LeftOuterJoin {
						b.Append(s.rowBuf)
						s.rowBuf = nil
					} else {
						break
					}
				}
			}
			switch s.kind {
			case algebra.LeftOuterJoin:
				if !matched {
					b.Append(nullExtendRight(l, s.rightWidth))
				}
			case algebra.SemiJoin:
				if matched {
					b.Append(l)
				}
			case algebra.AntiJoin:
				if !matched {
					b.Append(l)
				}
			}
		}
	}
	s.observe(b)
	return true, nil
}

// Close drops what the run read — its context, and the rows left in the
// input batch and the probe's candidate scratch — and keeps the scratch
// itself for an instance's next run.
func (s *probeJoinSource) Close() error {
	err := s.left.Close()
	s.ctx = nil
	s.in.Clear()
	s.probe.release()
	s.finish()
	return err
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

// joinTable is the materialized build side of a hash or nested-loop join:
// build-row indexes bucketed by the uint64 prehash of the equijoin columns,
// or, with no equijoin columns, the full index list. Buckets fill in build
// order, so every candidate list is ascending and a probe row meets its
// matches in build order. Hash collisions only add candidates that the join
// predicate — which always contains the equijoin conjuncts — filters out.
type joinTable struct {
	buckets map[uint64][]int32 // nil for a nested-loop table
	all     []int32            // every row, the nested-loop candidate list
}

// buildJoinTable hashes rows on cols. Empty cols builds the nested-loop
// table whose candidate list is every row.
func buildJoinTable(rows []rel.Row, cols []int) *joinTable {
	t := &joinTable{}
	if len(cols) == 0 {
		t.all = make([]int32, len(rows))
		for i := range t.all {
			t.all[i] = int32(i)
		}
		return t
	}
	t.buckets = make(map[uint64][]int32)
	var buf []byte
	for i, r := range rows {
		if anyNull(r, cols) {
			continue // a NULL equijoin key never matches
		}
		var h uint64
		h, buf = rel.HashRowCols(r, cols, buf)
		t.buckets[h] = append(t.buckets[h], int32(i))
	}
	return t
}

// candidates returns the build-row indexes a probe row must be tested
// against, threading the caller's hash scratch buffer through. A nil list
// from a hashed table means the probe key is NULL or unmatched.
func (t *joinTable) candidates(l rel.Row, probeCols []int, buf []byte) ([]int32, []byte) {
	if t.buckets == nil {
		return t.all, buf
	}
	if anyNull(l, probeCols) {
		return nil, buf
	}
	var h uint64
	h, buf = rel.HashRowCols(l, probeCols, buf)
	return t.buckets[h], buf
}

func anyNull(r rel.Row, cols []int) bool {
	for _, c := range cols {
		if r[c].IsNull() {
			return true
		}
	}
	return false
}

// hashJoinSource implements every join kind: the right input is drained
// and hashed at Open, then left batches stream through the probe in
// left-row order. Unmatched right rows (right/full outer) are emitted last,
// in right order, after the left side is exhausted.
type hashJoinSource struct {
	opBase
	ctx                   *Context
	kind                  algebra.JoinKind
	left, right           Source
	pred                  func(rel.Row) algebra.Tri
	leftCols, rightCols   []int // empty: no equijoin, nested-loop candidates
	leftWidth, rightWidth int

	rightRows []rel.Row
	table     *joinTable
	in        Batch
	keyBuf    []byte  // probe-key hash scratch
	rowBuf    rel.Row // concatenation scratch, cloned on emit
	leftDone  bool
	matched   []bool // right rows some left row matched (right/full outer)
	tailPos   int
}

func (s *hashJoinSource) Open() error {
	if err := s.right.Open(); err != nil {
		return err
	}
	r, err := Drain(s.right)
	if err != nil {
		return err
	}
	s.rightRows = r.Rows
	if len(s.rightCols) > 0 {
		s.ctx.Metrics.Add("exec.join.hash.build_rows", int64(len(s.rightRows)))
	}
	s.table = buildJoinTable(s.rightRows, s.rightCols)
	if s.kind == algebra.RightOuterJoin || s.kind == algebra.FullOuterJoin {
		s.matched = make([]bool, len(s.rightRows))
	}
	return s.left.Open()
}

func (s *hashJoinSource) Next(b *Batch) (bool, error) {
	b.Reset()
	for !s.leftDone && b.Len() == 0 {
		ok, err := s.left.Next(&s.in)
		if err != nil {
			return false, err
		}
		if !ok {
			s.leftDone = true
			break
		}
		if len(s.leftCols) > 0 {
			s.ctx.Metrics.Add("exec.join.hash.probe_rows", int64(s.in.Len()))
		} else {
			s.ctx.Metrics.Add("exec.join.nested.probe_rows", int64(s.in.Len()))
		}
		s.probeBatch(b)
	}
	if s.leftDone && b.Len() == 0 && s.matched != nil {
		s.emitTail(b)
	}
	if b.Len() == 0 {
		return false, nil
	}
	s.observe(b)
	return true, nil
}

// probeBatch joins the buffered left batch against the build table,
// appending output rows to b in left-row order.
func (s *hashJoinSource) probeBatch(b *Batch) {
	if s.rowBuf == nil {
		s.rowBuf = make(rel.Row, s.leftWidth+s.rightWidth)
	}
	for _, l := range s.in.Rows {
		matched := false
		var cands []int32
		cands, s.keyBuf = s.table.candidates(l, s.leftCols, s.keyBuf)
		for _, idx := range cands {
			copy(s.rowBuf, l)
			copy(s.rowBuf[len(l):], s.rightRows[idx])
			if s.pred(s.rowBuf) != algebra.True {
				continue
			}
			matched = true
			if s.matched != nil {
				s.matched[idx] = true
			}
			switch s.kind {
			case algebra.InnerJoin, algebra.LeftOuterJoin, algebra.RightOuterJoin, algebra.FullOuterJoin:
				b.Append(s.rowBuf.Clone())
			}
		}
		switch s.kind {
		case algebra.LeftOuterJoin, algebra.FullOuterJoin:
			if !matched {
				b.Append(nullExtendRight(l, s.rightWidth))
			}
		case algebra.SemiJoin:
			if matched {
				b.Append(l)
			}
		case algebra.AntiJoin:
			if !matched {
				b.Append(l)
			}
		}
	}
}

// emitTail appends one batch of unmatched right rows (right/full outer
// joins).
func (s *hashJoinSource) emitTail(b *Batch) {
	limit := s.ctx.batchSize()
	for s.tailPos < len(s.rightRows) && b.Len() < limit {
		i := s.tailPos
		s.tailPos++
		if !s.matched[i] {
			b.Append(nullExtendLeft(s.rightRows[i], s.leftWidth))
		}
	}
}

func (s *hashJoinSource) Close() error {
	lerr := s.left.Close()
	rerr := s.right.Close()
	s.ctx, s.rightRows, s.table, s.matched = nil, nil, nil, nil
	s.in.Clear()
	s.finish()
	if lerr != nil {
		return lerr
	}
	return rerr
}
