package view

import (
	"errors"
	"fmt"

	"ojv/internal/rel"
)

// Changeset is the undo log for one atomic maintenance run over a single
// maintainer's stored view. Every mutation of the store — row inserts and
// deletes on a Materialized (which carry the patternCount and per-table chain
// updates with them), and the replacement of a group's state row on an
// AggMaterialized, which is a delete and an insert too — is staged through
// the changeset, which records enough to restore the exact pre-mutation
// state. Rollback replays the log in reverse, returning the view to its
// state at Begin: the same rows at the same handles, the same counters and
// the same membership of every per-table chain (a row's place within a chain
// is not state and may differ). Commit makes the run permanent.
//
// A record is the row's handle and nothing else. That is enough because a
// staged delete only unlinks its row and leaves it in its slot (store.go):
// rollback relinks the slot, commit releases it. An epoch is indexed by the
// same handles, and the committing changeset's log is the list of slots the
// next epoch differs in (epoch.go).
//
// The paper assumes "the base tables have already been updated" when
// maintenance runs; without a changeset any mid-apply error (a duplicate
// view key, a missing deletion row, a Section 5.2/5.3 cleanup failure)
// would leave the view half-maintained and permanently inconsistent with
// those tables. The changeset is what makes OnInsert/OnDelete/OnModify —
// and, through the staged Apply* API, the multi-view ojv.Database update
// path — all-or-nothing.
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
//	modify-between-passes     OnModify, between the delete and insert passes
type Changeset struct {
	m    *Maintainer
	rows []rowUndo
	done bool
	// torn is set from the start of a store mutation until its undo record
	// is logged, so a panic in between leaves it set (see Torn).
	torn bool
}

type undoKind uint8

const (
	// undoViewInsert reverts an insertRow: unlink the staged row and release
	// its slot.
	undoViewInsert undoKind = iota
	// undoViewDelete reverts a deleteKey: relink the row, still in its slot.
	undoViewDelete
)

// rowUndo is one mutation of a stored row: 8 bytes and no pointers, so the log is
// never scanned by the collector and its buffer is reused from changeset to
// changeset.
type rowUndo struct {
	kind undoKind
	h    int32
}

// Begin opens an undo-logged changeset over the maintainer's stored view.
// Callers stage maintenance through the Apply* methods and then either
// Commit or Rollback; OnInsert/OnDelete/OnModify do all three internally.
// The row log starts in the buffer the previous changeset handed back.
func (m *Maintainer) Begin() *Changeset {
	cs := &Changeset{m: m, rows: m.logBuf[:0]}
	m.logBuf = nil
	return cs
}

// Len returns the number of undo records staged so far.
func (cs *Changeset) Len() int { return len(cs.rows) }

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
	cs.torn = true
	h, err := cs.m.st.insertRow(key, row)
	if err == nil {
		cs.rows = append(cs.rows, rowUndo{kind: undoViewInsert, h: h})
	}
	cs.torn = false
	return err
}

// deleteKey stages the deletion of the row with the given key, reporting
// whether a row was removed. The key is only read.
func (cs *Changeset) deleteKey(site string, key []byte) (rel.Row, bool, error) {
	if err := cs.fail(site); err != nil {
		return nil, false, err
	}
	cs.torn = true
	h, row, ok := cs.m.st.unlinkKey(key)
	if ok {
		cs.rows = append(cs.rows, rowUndo{kind: undoViewDelete, h: h})
	}
	cs.torn = false
	return row, ok, nil
}

// Torn reports whether a panic interrupted one of the changeset's store
// mutations between its start and its undo record. The store may then hold
// a change the log does not record, which Rollback cannot undo: the family
// has to be rebuilt from its base tables (Maintainer.Rebuild). A panic
// anywhere else — at a FailPoint, in an operator, between mutations —
// leaves a changeset Rollback restores.
func (cs *Changeset) Torn() bool { return cs.torn }

// Commit makes every staged mutation permanent: the slots of the rows the
// run deleted are released, and the log is dropped. A maintainer that
// keeps epochs commits through CommitStaged, which walks the log first.
// Committing an already-finished changeset is a no-op.
func (cs *Changeset) Commit() {
	if cs.done {
		return
	}
	slab := &cs.m.st.stored().slab
	for _, r := range cs.rows {
		if r.kind == undoViewDelete {
			slab.Release(r.h)
		}
	}
	cs.finish()
}

// finish ends the changeset and hands the row log's buffer back to the
// maintainer for the next Begin.
func (cs *Changeset) finish() {
	if cap(cs.rows) > cap(cs.m.logBuf) {
		cs.m.logBuf = cs.rows[:0]
	}
	cs.rows = nil
	cs.done = true
}

// undoRow reverts one record, after checking that the slot is in the state
// the record left it in: an inserted row linked under its key, a deleted one
// still in its slot with its key free. The two mutations name the store
// through cs, not the alias, so that ojvlint sees them — and their exemption
// — for what they are.
func (cs *Changeset) undoRow(r rowUndo) error {
	s := cs.m.st.stored()
	if r.h >= s.slab.Used() || s.slab.At(r.h).Row == nil {
		return errMutatedOutside
	}
	at, linked := s.rows[s.slab.At(r.h).Key]
	switch {
	case r.kind == undoViewInsert && linked && at == r.h:
		//ojvlint:ignore failsite rollback must never consult the fault hook: undo replay has to succeed unconditionally
		cs.m.st.unlink(r.h)
		s.slab.Release(r.h)
	case r.kind == undoViewDelete && !linked:
		//ojvlint:ignore failsite rollback must never consult the fault hook: undo replay has to succeed unconditionally
		cs.m.st.relink(r.h)
	default:
		return errMutatedOutside
	}
	return nil
}

var errMutatedOutside = errors.New("a staged row is not where the changeset left it")

// Rollback restores the stored view to its state at Begin by replaying the
// undo log in reverse; every row that was live at Begin is live again at the
// handle it had. Rolling back an already-finished changeset is a no-op. An
// error means an undo record could not be applied — possible only if the view
// was mutated outside the changeset — and the view must be re-materialized.
func (cs *Changeset) Rollback() error {
	if cs.done {
		return nil
	}
	defer cs.finish()
	if cs.torn {
		return fmt.Errorf("view %s: rollback: a store mutation was interrupted; re-materialize the view", cs.m.Name())
	}
	for i := len(cs.rows) - 1; i >= 0; i-- {
		if err := cs.undoRow(cs.rows[i]); err != nil {
			return fmt.Errorf("view %s: rollback: %v; re-materialize the view", cs.m.Name(), err)
		}
	}
	return nil
}
