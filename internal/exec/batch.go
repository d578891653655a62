package exec

import (
	"ojv/internal/obs"
	"ojv/internal/rel"
)

// DefaultBatchSize is the number of rows a pipeline batch targets when
// Context.BatchSize is unset. Batches are soft-capped: operators with
// fan-out (joins) may overshoot for one input batch rather than split
// their output.
const DefaultBatchSize = 1024

// Batch is one unit of batch-at-a-time data flow: a slice of row
// references. The slice (the container) is scratch owned by whoever calls
// Next and is overwritten by the following Next call; the rows themselves
// are shared, never mutated in place, and may be retained. Operators that
// keep rows across batches (dedup, group-by, hash build) therefore retain
// only the row references, never the batch.
type Batch struct {
	Rows []rel.Row
}

// Reset empties the batch, keeping its capacity for reuse.
func (b *Batch) Reset() { b.Rows = b.Rows[:0] }

// Clear empties the batch and drops every row reference its capacity still
// holds, keeping the capacity: a batch kept between runs then retains no
// rows of the last one.
func (b *Batch) Clear() {
	clear(b.Rows[:cap(b.Rows)])
	b.Rows = b.Rows[:0]
}

// Len returns the number of rows currently in the batch.
func (b *Batch) Len() int { return len(b.Rows) }

// Append adds one row reference to the batch.
func (b *Batch) Append(r rel.Row) { b.Rows = append(b.Rows, r) }

// Source is a pull-based batch iterator — the interface every streaming
// operator implements. The protocol is Open, Next until it returns false,
// Close; Close must be called on every path once construction succeeded
// (including after errors), and is idempotent. Next fills the caller's
// batch: it resets b and appends up to the pipeline's batch size rows
// (joins may overshoot; operators may also return fewer, and callers must
// tolerate an occasional empty batch). A false first return value means the
// source is exhausted.
type Source interface {
	// Schema describes the rows every batch carries.
	Schema() rel.Schema
	// Open acquires inputs and builds blocking state (hash-join build
	// sides). It must be called exactly once, before the first Next.
	Open() error
	// Next fills b with the next batch, reporting false at exhaustion.
	Next(b *Batch) (bool, error)
	// Close releases the operator and its inputs and ends its span.
	Close() error
}

// Drain pulls a source to exhaustion into a materialized Relation. The
// caller is responsible for Open and Close.
func Drain(src Source) (Relation, error) {
	out := Relation{Schema: src.Schema()}
	var b Batch
	for {
		ok, err := src.Next(&b)
		if err != nil {
			return Relation{}, err
		}
		if !ok {
			return out, nil
		}
		out.Rows = append(out.Rows, b.Rows...)
	}
}

// opSpan starts the per-operator span for one pipeline node. Spans attach
// to the parent operator's span (the pipeline mirrors the plan tree under
// Context.Span) and end at Close, carrying total row and batch counts
// emitted at batch boundaries. A nil parent makes every call a no-op.
func opSpan(parent *obs.Span, name string) *obs.Span {
	return parent.Child(name)
}

// endSpan publishes an operator's totals and ends its span. It is what
// makes Close idempotent span-wise: callers guard it with their own closed
// flag.
func endSpan(sp *obs.Span, rows, batches int64) {
	if sp == nil {
		return
	}
	sp.SetInt("rows", rows)
	sp.SetInt("batches", batches)
	sp.End()
}
