package view

import (
	"fmt"

	"ojv/internal/rel"
)

// Changeset is the undo log for one atomic maintenance run over a single
// maintainer's stored view. Every view mutation — row inserts and deletes
// on a Materialized (which carry the patternCount and per-table chain
// updates with them) and group mutations on an AggMaterialized — is staged
// through the changeset, which records enough to restore the exact
// pre-mutation state. Commit discards the log; Rollback replays it in
// reverse, returning the view to its state at Begin: the same rows, the
// same counters and the same membership of every per-table chain (a row's
// handle and its place within a chain are not state and may differ).
//
// The paper assumes "the base tables have already been updated" when
// maintenance runs; without a changeset any mid-apply error (a duplicate
// view key, a missing deletion row, a Section 5.2/5.3 cleanup failure)
// would leave the view half-maintained and permanently inconsistent with
// those tables. The changeset is what makes OnInsert/OnDelete/OnModify —
// and, through the staged Apply* API, the multi-view ojv.Database update
// path — all-or-nothing.
//
// A changeset is single-use and not safe for concurrent use; maintenance
// applies view mutations serially (see Options.Parallelism), so one
// changeset per run suffices.
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
//	agg-primary-fold          aggregation view, one primary-delta row folded
//	agg-secondary-fold        aggregation view, one secondary-delta row folded
//	modify-between-passes     OnModify, between the delete and insert passes
type Changeset struct {
	m    *Maintainer
	undo []undoRec
	// snapGroups marks aggregation-group keys whose pre-mutation state is
	// already in the log, so each group is snapshotted at most once.
	snapGroups map[string]bool
	done       bool
}

type undoKind uint8

const (
	// undoViewInsert reverts an insertRow: delete the staged key.
	undoViewInsert undoKind = iota
	// undoViewDelete reverts a deleteKey: re-insert the removed row.
	undoViewDelete
	// undoAggGroup reverts all mutations of one aggregation group: restore
	// the snapshotted group, or remove it when the snapshot marks absence.
	undoAggGroup
)

type undoRec struct {
	kind undoKind
	key  string
	row  rel.Row
	// group is the deep-copied pre-mutation group state; nil means the
	// group did not exist at Begin.
	group *aggGroup
}

// Begin opens an undo-logged changeset over the maintainer's stored view.
// Callers stage maintenance through the Apply* methods and then either
// Commit or Rollback; OnInsert/OnDelete/OnModify do all three internally.
func (m *Maintainer) Begin() *Changeset {
	return &Changeset{m: m}
}

// Len returns the number of undo records staged so far.
func (cs *Changeset) Len() int { return len(cs.undo) }

// fail consults the fault-injection hook at a mutation site.
func (cs *Changeset) fail(site string) error {
	if cs.m.opts.FailPoint == nil {
		return nil
	}
	return cs.m.opts.FailPoint(site)
}

// insertRow stages the insertion of one view row under its view key.
func (cs *Changeset) insertRow(site, key string, row rel.Row) error {
	if err := cs.fail(site); err != nil {
		return err
	}
	if err := cs.m.mv.insertRow(key, row); err != nil {
		return err
	}
	cs.undo = append(cs.undo, undoRec{kind: undoViewInsert, key: key})
	return nil
}

// deleteKey stages the deletion of the view row with the given key,
// reporting whether a row was removed.
func (cs *Changeset) deleteKey(site, key string) (rel.Row, bool, error) {
	if err := cs.fail(site); err != nil {
		return nil, false, err
	}
	row, ok := cs.m.mv.deleteKey(key)
	if ok {
		cs.undo = append(cs.undo, undoRec{kind: undoViewDelete, key: key, row: row})
	}
	return row, ok, nil
}

// snapshotGroup records an aggregation group's pre-mutation state, once per
// changeset. It must run before the group is first touched; fold calls it
// for every row it merges.
func (cs *Changeset) snapshotGroup(key string) {
	if cs.snapGroups == nil {
		cs.snapGroups = make(map[string]bool)
	}
	if cs.snapGroups[key] {
		return
	}
	cs.snapGroups[key] = true
	var snap *aggGroup
	if g, ok := cs.m.agg.groups[key]; ok {
		snap = g.clone()
	}
	cs.undo = append(cs.undo, undoRec{kind: undoAggGroup, key: key, group: snap})
}

// Commit discards the undo log, making every staged mutation permanent.
// Committing an already-finished changeset is a no-op.
func (cs *Changeset) Commit() {
	cs.undo = nil
	cs.snapGroups = nil
	cs.done = true
}

// Rollback restores the stored view to its state at Begin by replaying the
// undo log in reverse. Rolling back an already-finished changeset is a
// no-op. An error means an undo record could not be applied — possible only
// if the view was mutated outside the changeset — and the view must be
// re-materialized.
func (cs *Changeset) Rollback() error {
	if cs.done {
		return nil
	}
	cs.done = true
	undo := cs.undo
	cs.undo = nil
	cs.snapGroups = nil
	for i := len(undo) - 1; i >= 0; i-- {
		r := undo[i]
		switch r.kind {
		case undoViewInsert:
			//ojvlint:ignore failsite rollback must never consult the fault hook: undo replay has to succeed unconditionally
			if _, ok := cs.m.mv.deleteKey(r.key); !ok {
				return fmt.Errorf("view %s: rollback: staged row vanished; re-materialize the view", cs.m.def.Name)
			}
		case undoViewDelete:
			//ojvlint:ignore failsite rollback must never consult the fault hook: undo replay has to succeed unconditionally
			if err := cs.m.mv.insertRow(r.key, r.row); err != nil {
				return fmt.Errorf("view %s: rollback: %v; re-materialize the view", cs.m.def.Name, err)
			}
		case undoAggGroup:
			// The direct map writes below bypass fold, so the epoch dirty set
			// must learn the key here; the rolled-back group resolves to its
			// unchanged committed state at the next publish.
			if cs.m.agg.dirtyGroups != nil {
				cs.m.agg.dirtyGroups[r.key] = struct{}{}
			}
			if r.group == nil {
				//ojvlint:ignore failsite rollback must never consult the fault hook: undo replay has to succeed unconditionally
				delete(cs.m.agg.groups, r.key)
			} else {
				//ojvlint:ignore failsite rollback must never consult the fault hook: undo replay has to succeed unconditionally
				cs.m.agg.groups[r.key] = r.group
			}
		}
	}
	return nil
}
