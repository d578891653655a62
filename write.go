package ojv

import (
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"ojv/internal/pipeline"
	"ojv/internal/view"
)

// The write path (DESIGN.md §14, "The write path"). Every base-table
// mutation — a synchronous statement, a WriteBatch flush at any worker
// count — reaches the tables and the views through commitComponent: the
// caller partitions its delta tables into independent components
// (conflict.go), gives each component its plan, and commitComponent applies
// each one atomically. A statement is the degenerate input: one component,
// its table's cached one, and one step.

// execute runs one synchronous statement as a one-step plan over the one
// component its table belongs to, through the catalog's validating
// appliers. It returns the step as applied: a delete's Removed rows are
// the rows the catalog removed. The component is the table's cached one
// (tableComponent); its step slot is emptied on every exit, so the cache
// holds none of the statement's rows.
func (db *Database) execute(st pipeline.Step) (pipeline.Step, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.cat.Table(st.Table) == nil {
		return st, fmt.Errorf("ojv: unknown table %s", st.Table)
	}
	c := db.tableComponent(st.Table)
	c.steps = append(c.steps[:0], st)
	defer clear(c.steps)
	err := db.commitComponent(c, nil)
	return c.steps[0], err
}

// commit applies independent components on up to workers goroutines —
// inline on the calling goroutine when that is one — and returns each
// component's outcome, indexed like comps. Every component is attempted: a
// failed one has rolled back alone and disturbs no other. root is the
// caller's flush span, nil for statements. Caller holds db.mu, the write
// path's one lock: workers need no lock of their own, because partition
// gives each delta table and each affected view to exactly one component,
// so no two components write the same container.
func (db *Database) commit(comps []flushComponent, workers int, root *Span) []error {
	errs := make([]error, len(comps))
	if workers > len(comps) {
		workers = len(comps)
	}
	if workers <= 1 {
		for i := range comps {
			errs[i] = db.commitComponent(&comps[i], root)
		}
		return errs
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = db.commitComponent(&comps[i], root)
			}
		}()
	}
	for _, i := range dispatchOrder(comps) {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return errs
}

// dispatchOrder returns the component indices largest-delta-first: with
// fewer workers than components, starting the largest component earliest
// minimizes the tail — a big component dispatched last runs alone after
// the small ones drain. Sizes are known at plan time (net delta rows per
// step); the sort is stable, so equal-sized components keep plan order.
// Results are unaffected either way: components are independent by
// construction.
func dispatchOrder(comps []flushComponent) []int {
	order := make([]int, len(comps))
	sizes := make([]int, len(comps))
	for i, c := range comps {
		order[i] = i
		for _, st := range c.steps {
			sizes[i] += st.Len()
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] > sizes[order[b]] })
	return order
}

// stagedFamily pairs a view family with its one changeset for the whole
// component.
type stagedFamily struct {
	f     *family
	cs    *view.Changeset
	stats *MaintStats
}

// PanicError is what a write returns when it panicked: the panic value and
// the stack it was raised on. In a component's base apply or maintenance,
// the component unwinds as it does for a failing step, so its tables and
// views read as before, and the database stays usable. A panic inside a
// view store's mutation, between its start and its undo record, tears that
// family's changeset (view.Changeset.Torn): the family is re-materialized
// from the restored base tables instead of rolled back. A panic while a
// WriteBatch flush plans its components changes nothing: the flush fails
// with it, behind Err, and the queue keeps every statement for a retry. A
// panic while a component commits or rolls back is not contained. Every
// commit, a family's and a table's, is one walk, rel.Store.Commit: it
// walks the container's log under the mutex readers seal epochs under and
// releases the mutex on every path. On a panic it keeps the commits walked
// before but lets no pin seal the interrupted walk, so a pin never waits and
// readers keep pinning the last sealed epoch; the container's next commit
// walks the interrupted records again.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("ojv: panic during a write: %v\n%s", e.Value, e.Stack)
}

// Unwrap returns the panic value when it is an error.
func (e *PanicError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// commitComponent applies and commits one component: each step mutates its
// base table, then stages maintenance for that single-table delta into
// every component family's changeset — base delta first, then the views,
// the sequence of single-table updates the maintenance layer is proven
// against. On success the changesets commit together (each family walks
// its log into its open epoch there) and the component's tables walk
// theirs; the next pin of each seals it. On any failure — an error or a
// panic — everything unwinds: staged changesets in reverse family order,
// then each of the component's tables back to its state at its last
// commit, which is its state when the component began, then any
// family a panic tore is rebuilt from those tables, so the component's
// tables and views return to their pre-call state. The changesets are staged
// in c.staged, which is emptied on every exit, a panic's included. Caller
// holds db.mu, and the component is the only writer of its tables and
// families (see commit).
func (db *Database) commitComponent(c *flushComponent, root *Span) error {
	if len(c.steps) == 0 {
		return nil
	}
	views := 0
	for _, f := range c.families {
		views += len(f.m.Members())
	}
	span := root.Child("flush.component").
		SetStr("tables", strings.Join(c.tables, ",")).
		SetInt("views", int64(views)).
		SetInt("steps", int64(len(c.steps)))
	defer span.End()

	staged := c.staged[:0]
	for _, f := range c.families {
		staged = append(staged, stagedFamily{f: f, cs: f.m.Begin()})
	}
	c.staged = staged
	defer clear(staged)
	var cause error
	for i := range c.steps {
		if cause = db.applyStep(&c.steps[i], staged, span); cause != nil {
			break
		}
	}
	if cause == nil {
		commit := span.Child("commit")
		for _, s := range staged {
			s.f.m.CommitStaged(s.cs, s.stats)
			for _, v := range s.f.views {
				v.LastStats = s.stats
			}
		}
		commit.End()
		db.cat.PublishTableEpochs(c.tables)
		return nil
	}

	var rbErr error
	undo := func(err error) {
		if err != nil && rbErr == nil {
			rbErr = err
		}
	}
	for j := len(staged) - 1; j >= 0; j-- {
		if !staged[j].cs.Torn() {
			undo(staged[j].f.m.RollbackStaged(staged[j].cs))
		}
	}
	undo(db.cat.Rollback(c.tables))
	for _, s := range staged {
		if s.cs.Torn() {
			undo(rebuild(s))
		}
	}
	if rbErr != nil {
		return fmt.Errorf("%w (rollback also failed: %v)", cause, rbErr)
	}
	return cause
}

// applyStep applies one step's base delta and stages its maintenance into
// every family's changeset. A panic on the way — in base apply, an
// operator, the store or a FailPoint — becomes the step's error, a
// *PanicError, so the component unwinds as it does for a failing step.
// Component workers and the goroutine that calls a statement or a Flush
// both reach this code, so none can take the process down with a component
// half staged.
func (db *Database) applyStep(st *pipeline.Step, staged []stagedFamily, span *Span) (err error) {
	stepSpan := span.Child("flush.step").
		SetStr("table", st.Table).
		SetStr("op", st.Op.String()).
		SetInt("rows", int64(st.Len()))
	defer stepSpan.End()
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	if err = db.applyBase(st); err != nil {
		return err
	}
	return stageStep(st, staged)
}

// rebuild re-materializes a family whose changeset a panic tore from the
// component's restored base tables. A panic there is reported, not raised;
// the family is then as the two panics left it.
func rebuild(s stagedFamily) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	return s.f.m.Rebuild(s.cs)
}

// applyBase applies one step's base-table delta through the catalog's
// validating mutation path, so key and foreign-key constraints hold at every
// step maintenance sees, whatever else wrote to the catalog since the step's
// statements were staged. It records the rows the catalog removed or
// replaced into the step, so maintenance sees what was actually there (a
// synchronous delete learns its rows this way, and a flush the rows a
// synchronous statement rewrote after enqueue). Whatever part of the step
// applied before a failure, the table's log holds it for the unwind.
func (db *Database) applyBase(st *pipeline.Step) (err error) {
	switch st.Op {
	case pipeline.OpInsert:
		return db.cat.Insert(st.Table, st.Added)
	case pipeline.OpDelete:
		st.Removed, err = db.cat.Delete(st.Table, st.Keys)
		return err
	}
	for i := range st.Keys {
		if st.Removed[i], err = db.cat.Update(st.Table, st.Keys[i], st.Added[i]); err != nil {
			return err
		}
	}
	return nil
}

// stageStep stages one applied step's maintenance into each family's
// changeset: every family runs its compiled ΔV^D program over the step's
// signed delta.
func stageStep(st *pipeline.Step, staged []stagedFamily) error {
	for j := range staged {
		s := &staged[j]
		m := s.f.m
		stats, err := m.ApplyDelta(s.cs, st.Table, st.Removed, st.Added)
		if err != nil {
			return fmt.Errorf("maintaining view %s: %w", m.Name(), err)
		}
		s.stats = view.AccumulateStats(s.stats, stats)
	}
	return nil
}
