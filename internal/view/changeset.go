package view

import (
	"fmt"

	"ojv/internal/rel"
)

// Changeset is one atomic maintenance run over a single family's stored
// view. Every mutation of the store — row inserts and deletes on a
// Materialized (which carry the patternCount and per-table chain updates
// with them, through its link hook), and the replacement of a group's state
// row on an AggMaterialized, which is a delete and an insert too — is staged
// through the changeset, into the undo log of the store's rel.Store. The
// log, its rollback and the commit walk are the Store's (rel/store.go); the
// changeset adds the fault hook, the torn mark and the family scope.
// Rollback returns the view to its state at Begin: the same rows at the same
// handles, the same counters and the same membership of every per-table
// chain (a row's place within a chain is not state and may differ). The
// one way to commit is the family's CommitStaged, whose walk (epoch.go)
// releases the slots the run deleted.
//
// The paper assumes "the base tables have already been updated" when
// maintenance runs; without a changeset any mid-apply error (a duplicate
// view key, a missing deletion row, a Section 5.2/5.3 cleanup failure)
// would leave the view half-maintained and permanently inconsistent with
// those tables. The changeset is what makes OnInsert/OnDelete/OnModify —
// and, through the staged ApplyDelta, the multi-view ojv.Database update
// path — all-or-nothing: a modify's two halves stage into one changeset.
//
// A changeset is single-use and not safe for concurrent use; a maintenance
// run applies its view mutations on one goroutine, so one changeset per run
// suffices.
//
// Fault-injection sites. Options.FailPoint, when set, is consulted with a
// site label immediately before every staged mutation:
//
//	primary-insert            apply step 1, insertion of a ΔV^D row
//	primary-delete            apply step 1, deletion of a ΔV^D row
//	secondary-orphan-delete   §5.2 cleanup, orphan removal (insert case)
//	secondary-orphan-insert   §5.2 cleanup, new-orphan insertion (delete case)
//	frombase-orphan-delete    §5.3 cleanup, orphan removal (insert case)
//	frombase-orphan-insert    §5.3 cleanup, new-orphan insertion (delete case)
//	agg-primary-fold          aggregation view, the delete or the insert of
//	                          a group the primary delta replaces
//	agg-secondary-fold        aggregation view, the delete or the insert of
//	                          a group the secondary delta replaces
type Changeset struct {
	m *Maintainer
	// from is where the changeset's segment of the store's log begins: a
	// run that nests inside another commits or rolls back its own records.
	from int
	done bool
	// torn is set from the start of a store mutation until its undo record
	// is logged, so a panic in between leaves it set (see Torn).
	torn bool
}

// Begin opens a changeset over the maintainer's stored view. Callers stage
// maintenance through ApplyDelta and then either CommitStaged or
// RollbackStaged; OnInsert/OnDelete/OnModify do all three internally.
func (m *Maintainer) Begin() *Changeset { return &Changeset{m: m, from: m.st.Pending()} }

// Len returns the number of undo records staged so far.
func (cs *Changeset) Len() int { return cs.m.st.Pending() - cs.from }

// fail consults the fault-injection hook of every member of the family at a
// mutation site, in join order, and returns the first error.
func (cs *Changeset) fail(site string) error {
	for _, mem := range cs.m.members {
		if mem.opts.FailPoint == nil {
			continue
		}
		if err := mem.opts.FailPoint(site); err != nil {
			return err
		}
	}
	return nil
}

// insertRow stages the insertion of one row under its key.
func (cs *Changeset) insertRow(site, key string, row rel.Row) error {
	if err := cs.fail(site); err != nil {
		return err
	}
	if _, dup := cs.m.st.Lookup(key); dup {
		return duplicateKey(cs.m.def.Name, row)
	}
	cs.torn = true
	cs.m.st.Insert(key, row)
	cs.torn = false
	return nil
}

// deleteKey stages the deletion of the row with the given key, reporting
// whether a row was removed. The key is only read.
func (cs *Changeset) deleteKey(site string, key []byte) (rel.Row, bool, error) {
	if err := cs.fail(site); err != nil {
		return nil, false, err
	}
	h, ok := cs.m.st.LookupBytes(key)
	if !ok {
		return nil, false, nil
	}
	cs.torn = true
	row := cs.m.st.At(h).Row
	cs.m.st.Remove(h)
	cs.torn = false
	return row, true, nil
}

// Torn reports whether a panic interrupted one of the changeset's store
// mutations between its start and its undo record. The store may then hold
// a change the log does not record, which Rollback cannot undo: the family
// has to be rebuilt from its base tables (Maintainer.Rebuild). A panic
// anywhere else — at a FailPoint, in an operator, between mutations —
// leaves a changeset Rollback restores.
func (cs *Changeset) Torn() bool { return cs.torn }

// Rollback restores the stored view to its state at Begin by replaying the
// undo log in reverse (rel.Store.Rollback); every row that was live at Begin
// is live again at the handle it had. Rolling back an already-finished
// changeset is a no-op. An error means an undo record could not be applied —
// possible only if the view was mutated outside the changeset — and the view
// must be re-materialized.
func (cs *Changeset) Rollback() error {
	if cs.done {
		return nil
	}
	cs.done = true
	if cs.torn {
		return fmt.Errorf("view %s: rollback: a store mutation was interrupted; re-materialize the view", cs.m.Name())
	}
	if err := cs.m.st.Rollback(cs.from); err != nil {
		return fmt.Errorf("view %s: rollback: %v; re-materialize the view", cs.m.Name(), err)
	}
	return nil
}
