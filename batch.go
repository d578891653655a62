package ojv

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"ojv/internal/pipeline"
)

// ReadPolicy selects what a batch's owner sees through the Database's view
// readers while statements are pending.
type ReadPolicy int

const (
	// ReadCommitted (the default) leaves view reads untouched: they observe
	// only flushed state. Point reads through WriteBatch.Get still merge the
	// pending overlay — that is the batch's read-your-writes guarantee.
	ReadCommitted ReadPolicy = iota
	// ReadFlush makes WriteBatch.Rows flush pending statements first, so a
	// view read through the batch always reflects every staged statement.
	ReadFlush
)

// BatchOptions tunes a WriteBatch.
type BatchOptions struct {
	// FlushRows asks the maintenance goroutine to flush when the net pending
	// rows reach the threshold (0 disables). The flush is asynchronous: the
	// statement that crosses the threshold kicks the goroutine and returns
	// immediately; a flush failure surfaces through Err and the next
	// explicit Flush/Close, not from the enqueueing call.
	FlushRows int
	// FlushInterval adds a time bound to the maintenance goroutine: pending
	// statements flush at least this often (0 disables). The goroutine
	// skips kicks and ticks while a previous flush error is unresolved, so
	// a poisoned batch never loses its pending statements.
	FlushInterval time.Duration
	// ReadPolicy selects the Rows read semantics (see ReadPolicy).
	ReadPolicy ReadPolicy
	// MaintWorkers sizes the pool that maintains a flush's independent
	// components (conflict.go) concurrently: min(MaintWorkers, components)
	// workers, inline on the flushing goroutine when that is at most one. It
	// selects no code path — results are bit-identical and the failure
	// contract (see Flush) is the same at every value.
	MaintWorkers int
	// Tracer, when set, records a view.flush span root per flush (children:
	// plan, one flush.component per independent component — each with one
	// flush.step per single-table statement and a commit).
	Tracer *Tracer
	// Metrics, when set, collects the view.flush.* counters and histograms.
	Metrics *Metrics
}

// WriteBatch is the group-commit write pipeline: it stages Insert, Delete
// and Update statements in a coalescing delta queue and maintains every
// registered view once per flush instead of once per statement, amortizing
// the fixed maintenance cost (BENCH_5: ~100µs per run) across the batch.
//
// Semantics:
//
//   - Statements validate at enqueue (schema, key uniqueness, outbound
//     foreign keys — all against the committed tables overlaid with the
//     batch's own pending writes) and fail individually without disturbing
//     the queue. Inbound RESTRICT checks happen at flush.
//   - Get merges the pending overlay (read-your-writes point reads); view
//     reads follow the configured ReadPolicy.
//   - A flush drains the net per-table deltas through the same write path
//     as single statements (write.go): the delta tables partition into
//     independent components, and each component — its base deltas plus one
//     undo-logged changeset per affected view family, which evaluates its
//     own ΔV^D program once for all its views — commits or rolls back
//     atomically. A failed component restores its pre-flush state exactly
//     and keeps its statements pending; the flush records itself in Err
//     and suspends auto-flushing until Flush succeeds or Discard drops the
//     batch (see Flush for what happens to the other components).
//   - Auto flushes (FlushRows threshold and FlushInterval tick) run on one
//     dedicated maintenance goroutine, never inline in a writer's
//     statement. View readers are isolated from the flush by epochs: they
//     keep reading the last committed snapshot and switch to the new one
//     only when its component commits.
//   - Deletes across tables flush children-first and inserts parents-first,
//     so cross-table batches respect foreign keys; a batch that both grows
//     and shrinks the same FK chain in conflicting ways may still fail at
//     flush (call Flush between such statements).
//
// A WriteBatch is safe for concurrent use, but statements from concurrent
// writers coalesce into one queue: a writer deleting a key another writer
// just staged annihilates that insert, exactly as the same sequence of
// synchronous statements would.
type WriteBatch struct {
	db   *Database
	opts BatchOptions

	mu       sync.Mutex
	q        *pipeline.Queue
	flushErr error
	closed   bool
	// stopped records that the maintenance goroutine was told to stop; it
	// can be set while the batch is still open (a poisoned Close), and
	// guards stop against a second close.
	stopped bool

	// kick wakes the maintenance goroutine for a threshold flush. Capacity
	// 1: consecutive threshold crossings coalesce into one wakeup.
	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// NewWriteBatch opens a write batch over the database. Close it to flush
// remaining statements and stop the maintenance goroutine (when
// configured). Any auto-flush policy — FlushRows, FlushInterval or both —
// starts one maintenance goroutine that performs the flushes off the
// writers' statement path.
func (db *Database) NewWriteBatch(opts ...BatchOptions) *WriteBatch {
	var o BatchOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	b := &WriteBatch{db: db, opts: o, q: pipeline.New(db.cat)}
	if o.FlushRows > 0 || o.FlushInterval > 0 {
		b.kick = make(chan struct{}, 1)
		b.stop = make(chan struct{})
		b.done = make(chan struct{})
		go b.maintainLoop(o.FlushInterval)
	}
	return b
}

// maintainLoop is the maintenance goroutine: it owns every auto flush, so
// writers never run maintenance inline. It wakes on a threshold kick or on
// the interval tick and exits on stop. Explicit Flush/Close calls run their
// flush inline instead; b.mu serializes the two paths.
func (b *WriteBatch) maintainLoop(every time.Duration) {
	defer close(b.done)
	var tickC <-chan time.Time
	if every > 0 {
		tick := time.NewTicker(every)
		defer tick.Stop()
		tickC = tick.C
	}
	for {
		select {
		case <-b.stop:
			return
		case <-b.kick:
			b.flushAsync("rows")
		case <-tickC:
			b.flushAsync("interval")
		}
	}
}

// flushAsync is one maintenance-goroutine flush. A closed batch or a sticky
// flush error suspends auto-flushing (the queue must survive for an
// explicit retry or Discard), so those states skip the flush entirely.
func (b *WriteBatch) flushAsync(trigger string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || b.flushErr != nil {
		return
	}
	b.flushLocked(trigger)
}

// enqueue runs one statement against the queue under both locks (b.mu, then
// db.mu for reads — always in that order) and applies the auto-flush policy
// by kicking the maintenance goroutine; it never flushes inline.
func (b *WriteBatch) enqueue(stmt func() error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("ojv: write batch is closed")
	}
	b.db.mu.RLock()
	err := stmt()
	b.db.mu.RUnlock()
	if err != nil {
		return err
	}
	b.opts.Metrics.Observe("view.flush.queue.depth", int64(b.q.Len()))
	if b.opts.FlushRows > 0 && b.q.Len() >= b.opts.FlushRows && b.flushErr == nil {
		select {
		case b.kick <- struct{}{}:
		default: // a wakeup is already pending; the flush will see our rows
		}
	}
	return nil
}

// Insert stages an insert statement.
func (b *WriteBatch) Insert(table string, rows []Row) error {
	return b.enqueue(func() error { return b.q.Insert(table, rows) })
}

// Delete stages a delete statement and returns the deleted rows, resolved
// at enqueue time from the committed tables overlaid with the batch's
// pending writes — the batch path has no Delete/Insert asymmetry: callers
// get the deleted rows without forcing a synchronous maintenance run.
func (b *WriteBatch) Delete(table string, keys [][]Value) ([]Row, error) {
	var out []Row
	err := b.enqueue(func() error {
		var err error
		out, err = b.q.Delete(table, keys)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Update stages a keyed replace (the key must not change).
func (b *WriteBatch) Update(table string, key []Value, newRow Row) error {
	return b.enqueue(func() error { return b.q.Update(table, key, newRow) })
}

// Get returns the row with the given key as the batch observes it: the
// pending overlay merges over the committed table (read-your-writes).
func (b *WriteBatch) Get(table string, key []Value) (Row, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.db.mu.RLock()
	defer b.db.mu.RUnlock()
	return b.q.Get(table, key)
}

// Rows returns a registered view's rows. Under ReadFlush pending
// statements flush first; under ReadCommitted the read sees only flushed
// state (the batch's staged statements are invisible to view readers).
func (b *WriteBatch) Rows(viewName string) ([]Row, error) {
	if b.opts.ReadPolicy == ReadFlush {
		if err := b.Flush(); err != nil {
			return nil, err
		}
	}
	v := b.db.View(viewName)
	if v == nil {
		return nil, fmt.Errorf("ojv: unknown view %s", viewName)
	}
	return v.Rows(), nil
}

// PendingStatements returns the number of statements staged and not yet
// flushed.
func (b *WriteBatch) PendingStatements() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.q.Statements()
}

// PendingRows returns the net pending rows a flush would apply.
func (b *WriteBatch) PendingRows() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.q.Len()
}

// Err returns the sticky error of the last failed flush, if any. While
// non-nil, auto-flushing (threshold and background) is suspended; an
// explicit Flush retries and clears it on success, Discard drops the batch.
func (b *WriteBatch) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.flushErr
}

// Discard drops every pending statement and clears the flush error.
func (b *WriteBatch) Discard() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.q.Reset()
	b.flushErr = nil
}

// Flush drains the pending statements and returns only when the flush has
// completed. Each independent component of the flush commits or rolls back
// atomically on its own, its tables' and views' epochs taking its commit
// at its own commit boundary. On error every failed component is restored exactly
// and its statements remain pending behind Err; components that committed
// stay committed and their statements leave the queue, so a retried Flush
// re-plans and re-validates only what failed. A flush whose delta tables
// form one component (any flush over tables that one view joins, or that
// foreign keys connect) is therefore all-or-nothing. A concurrent maintenance-
// goroutine flush serializes before this one: Flush observes its outcome
// (possibly an empty queue, or its sticky error) rather than racing it.
func (b *WriteBatch) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.flushLocked("explicit")
}

// Close flushes remaining statements, stops the maintenance goroutine and
// marks the batch closed. Closing twice is a no-op. A failed final flush
// leaves the batch open (poisoned) so the statements are not lost — but
// the maintenance goroutine still stops, so an abandoned poisoned batch
// does not leak it; a later successful Flush (or Discard) plus Close
// completes the shutdown.
func (b *WriteBatch) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	err := b.flushLocked("close")
	if err == nil {
		b.closed = true
	}
	// Stop the maintenance goroutine exactly once, then wait for it after
	// releasing b.mu: an in-flight async flush blocked on the lock gets to
	// finish (and observe the closed/poisoned state) instead of deadlocking
	// against our wait.
	var wait chan struct{}
	if b.stop != nil && !b.stopped {
		b.stopped = true
		close(b.stop)
		wait = b.done
	}
	b.mu.Unlock()
	if wait != nil {
		<-wait
	}
	return err
}

// plan partitions the queue's delta tables into independent components and
// plans each one, under the flush's plan span. Planning reads the queue's
// shared entry maps, so it stays on the flushing goroutine; only the
// independent apply/commit work fans out. It only reads the queue, so a
// panic on the way leaves the queue as it was: the panic becomes a
// *PanicError, and a later Flush plans the same statements again.
func (b *WriteBatch) plan(root *Span) (comps []flushComponent, err error) {
	span := root.Child("plan")
	defer func() {
		if p := recover(); p != nil {
			comps, err = nil, &PanicError{Value: p, Stack: debug.Stack()}
		}
		span.End()
	}()
	comps = b.db.partition(b.q.DeltaTables())
	steps := 0
	for i := range comps {
		comps[i].steps = b.q.PlanFor(comps[i].tables)
		steps += len(comps[i].steps)
	}
	span.SetInt("steps", int64(steps)).SetInt("components", int64(len(comps)))
	return comps, nil
}

// flushLocked is the group commit. Caller holds b.mu; trigger names what
// initiated the flush (explicit, rows, interval or close) for the trace. It
// partitions the queue's delta tables, plans each component, hands the
// components to the database's one write path (Database.commit) and
// reconciles the queue with the outcome. Readers are isolated throughout:
// a component's view and table epochs take its writes only when it commits.
func (b *WriteBatch) flushLocked(trigger string) error {
	if b.q.Statements() == 0 {
		return nil
	}
	start := time.Now()
	statements, staged, coalesced, netRows := b.q.Statements(), b.q.StagedRows(), b.q.CoalescedRows(), b.q.Len()

	b.db.mu.Lock()
	defer b.db.mu.Unlock()

	root := b.opts.Tracer.StartSpan("view.flush").
		SetStr("trigger", trigger).
		SetInt("statements", int64(statements)).
		SetInt("rows_staged", int64(staged)).
		SetInt("rows_flushed", int64(netRows)).
		SetInt("rows_coalesced", int64(coalesced))
	defer root.End()

	comps, err := b.plan(root)
	if err != nil {
		b.flushErr = fmt.Errorf("ojv: flush failed: %w", err)
		b.opts.Metrics.Add("view.flush.errors", 1)
		return b.flushErr
	}
	b.opts.Metrics.Observe("view.flush.components", int64(len(comps)))

	var firstErr error
	var committed []string
	for i, err := range b.db.commit(comps, b.opts.MaintWorkers, root) {
		if err == nil {
			committed = append(committed, comps[i].tables...)
		} else if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		if len(committed) > 0 {
			// Those entries are applied; replaying them would double-apply.
			b.q.DropTables(committed)
		}
		b.flushErr = fmt.Errorf("ojv: flush failed: %w", firstErr)
		b.opts.Metrics.Add("view.flush.errors", 1)
		return b.flushErr
	}

	b.q.Reset()
	b.flushErr = nil
	b.opts.Metrics.Add("view.flush.count", 1)
	b.opts.Metrics.Add("view.flush.statements", int64(statements))
	b.opts.Metrics.Add("view.flush.rows.staged", int64(staged))
	b.opts.Metrics.Add("view.flush.rows.flushed", int64(netRows))
	b.opts.Metrics.Add("view.flush.rows.coalesced", int64(coalesced))
	b.opts.Metrics.Observe("view.flush.size", int64(netRows))
	b.opts.Metrics.Observe("view.flush.latency.us", time.Since(start).Microseconds())
	return nil
}
