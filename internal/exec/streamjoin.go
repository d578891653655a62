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
// makes the probe side stream — while the probe side flows batch-at-a-time
// with optional morsel parallelism inside each batch.
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
			n.start = func(ctx *Context, parent *obs.Span) Source {
				sp := opSpan(parent, "exec.join.index")
				return &probeJoinSource{
					opBase:     opBase{schema: n.schema, span: sp},
					ctx:        ctx,
					kind:       kind,
					left:       left.open(ctx, sp),
					rightWidth: rightWidth,
					pred:       pred,
					probe:      probe.start(ctx),
				}
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
	n.start = func(ctx *Context, parent *obs.Span) Source {
		sp := opSpan(parent, name)
		return &hashJoinSource{
			opBase:     opBase{schema: n.schema, span: sp},
			ctx:        ctx,
			kind:       kind,
			left:       left.open(ctx, sp),
			right:      right.open(ctx, sp),
			pred:       pred,
			leftCols:   leftCols,
			rightCols:  rightCols,
			leftWidth:  leftWidth,
			rightWidth: rightWidth,
		}
	}
	return nil
}

// probeJoinSource drives inner/left-outer/semi/anti joins through an index
// probe: left batches stream in, each row probes the right table's index.
// The probe carries serial scratch state, so probing never parallelizes —
// index lookups are already proportional to the (small) delta on the left.
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

func (s *probeJoinSource) Close() error {
	err := s.left.Close()
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

// probeScratch is per-worker probe state, reused across morsels and
// batches so steady-state probing allocates nothing.
type probeScratch struct {
	keyBuf []byte
	rowBuf rel.Row
}

// hashJoinSource implements every join kind: the right input is drained
// and hashed at Open (concurrently with opening the left input, preserving
// the concurrent-subtree evaluation of independent plan branches), then
// left batches stream through the probe. Large batches probe in parallel
// morsels whose output chunks concatenate in morsel order, so the output
// is byte-identical at every worker count. Unmatched right rows
// (right/full outer) are emitted last, in right order, after the left side
// is exhausted.
type hashJoinSource struct {
	opBase
	ctx                   *Context
	kind                  algebra.JoinKind
	left, right           Source
	pred                  func(rel.Row) algebra.Tri
	leftCols, rightCols   []int // empty: no equijoin, nested-loop candidates
	leftWidth, rightWidth int

	rightRows     []rel.Row
	table         *joinTable
	in            Batch
	scratch       []probeScratch
	workerMatched [][]bool
	workerMorsels []int64
	leftDone      bool
	matched       []bool
	tailPos       int
}

func (s *hashJoinSource) Open() error {
	workers := s.ctx.workers()
	err := runTasks(workers,
		func() error {
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
			s.table = buildJoinTable(workers, s.rightRows, s.rightCols)
			return nil
		},
		s.left.Open,
	)
	if err != nil {
		return err
	}
	s.scratch = make([]probeScratch, workers)
	if s.needMatchedRight() {
		s.workerMatched = make([][]bool, workers)
	}
	if s.ctx.Metrics != nil {
		s.workerMorsels = make([]int64, workers)
	}
	return nil
}

func (s *hashJoinSource) needMatchedRight() bool {
	return s.kind == algebra.RightOuterJoin || s.kind == algebra.FullOuterJoin
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
	if s.leftDone && b.Len() == 0 && s.needMatchedRight() {
		s.emitTail(b)
	}
	if b.Len() == 0 {
		return false, nil
	}
	s.observe(b)
	return true, nil
}

// probeBatch joins the buffered left batch against the build table,
// appending output rows to b: in parallel morsels when the batch and build
// side are large enough, serially otherwise. Either way the output order
// is left-row order.
func (s *hashJoinSource) probeBatch(b *Batch) {
	n := s.in.Len()
	workers := s.ctx.workers()
	if workers > 1 && len(s.rightRows)+n >= partitionedJoinMinRows {
		nchunks := (n + probeMorsel - 1) / probeMorsel
		chunks := make([][]rel.Row, nchunks)
		forChunks(workers, n, probeMorsel, func(w, ci, lo, hi int) {
			if s.workerMorsels != nil {
				s.workerMorsels[w]++
			}
			chunks[ci] = s.probeRange(lo, hi, w, nil)
		})
		for _, c := range chunks {
			b.Rows = append(b.Rows, c...)
		}
		return
	}
	b.Rows = s.probeRange(0, n, 0, b.Rows)
}

// probeRange joins left rows [lo,hi) of the buffered batch, appending
// output rows to dst. w selects the per-worker scratch and matched bitmap;
// the caller guarantees at most one concurrent invocation per w.
func (s *hashJoinSource) probeRange(lo, hi, w int, dst []rel.Row) []rel.Row {
	sc := &s.scratch[w]
	if sc.rowBuf == nil {
		sc.rowBuf = make(rel.Row, s.leftWidth+s.rightWidth)
	}
	var matchedRight []bool
	if s.workerMatched != nil {
		if s.workerMatched[w] == nil {
			s.workerMatched[w] = make([]bool, len(s.rightRows))
		}
		matchedRight = s.workerMatched[w]
	}
	for _, l := range s.in.Rows[lo:hi] {
		matched := false
		var cands []int32
		cands, sc.keyBuf = s.table.candidates(l, s.leftCols, sc.keyBuf)
		for _, idx := range cands {
			r := s.rightRows[idx]
			copy(sc.rowBuf, l)
			copy(sc.rowBuf[len(l):], r)
			if s.pred(sc.rowBuf) != algebra.True {
				continue
			}
			matched = true
			if matchedRight != nil {
				matchedRight[idx] = true
			}
			switch s.kind {
			case algebra.InnerJoin, algebra.LeftOuterJoin, algebra.RightOuterJoin, algebra.FullOuterJoin:
				dst = append(dst, sc.rowBuf.Clone())
			}
		}
		switch s.kind {
		case algebra.LeftOuterJoin, algebra.FullOuterJoin:
			if !matched {
				dst = append(dst, nullExtendRight(l, s.rightWidth))
			}
		case algebra.SemiJoin:
			if matched {
				dst = append(dst, l)
			}
		case algebra.AntiJoin:
			if !matched {
				dst = append(dst, l)
			}
		}
	}
	return dst
}

// emitTail appends one batch of unmatched right rows (right/full outer
// joins), OR-merging the per-worker matched bitmaps on first use.
func (s *hashJoinSource) emitTail(b *Batch) {
	if s.matched == nil {
		s.matched = make([]bool, len(s.rightRows))
		for _, wm := range s.workerMatched {
			for i, m := range wm {
				if m {
					s.matched[i] = true
				}
			}
		}
	}
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
	for w, n := range s.workerMorsels {
		if n > 0 {
			s.ctx.Metrics.Add(fmt.Sprintf("exec.morsels.worker.%d", w), n)
			s.ctx.Metrics.Add("exec.morsels.total", n)
		}
	}
	s.workerMorsels = nil
	s.finish()
	if lerr != nil {
		return lerr
	}
	return rerr
}
