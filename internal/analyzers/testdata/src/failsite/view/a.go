// Package view is the failsite corpus: a miniature changeset whose staged
// mutations must consult a FailPoint site first, with site names enumerable
// and in parity with the fault matrices.
package view

import "ojv/internal/rel"

// Materialized mirrors the stored view: its rows live in a rel.Slab. Its
// insertRow/unlinkKey and the unlink/relink halves a staged delete is made
// of are the site-less primitives only the changeset wrappers may reach
// unguarded, and only they write a slot. One primitive calling another of
// its own type is not a staged mutation of its own.
type Materialized struct {
	rows map[string]int32
	slab rel.Slab
}

// at returns a slot, as the real store does.
func (m *Materialized) at(h int32) *rel.Slot { return m.slab.At(h) }

func (m *Materialized) insertRow(k string, row rel.Row) int32 {
	h := m.slab.Alloc()
	*m.at(h) = rel.Slot{Key: k, Row: row}
	m.relink(h)
	return h
}

func (m *Materialized) unlinkKey(k string) int32 {
	h := m.rows[k]
	m.unlink(h)
	return h
}

func (m *Materialized) relink(h int32) { m.rows[m.at(h).Key] = h }

func (m *Materialized) unlink(h int32) { delete(m.rows, m.at(h).Key) }

// release frees an unlinked slot: nothing a reader can see changes, so it is
// not a staged mutation and needs no consult.
func (m *Materialized) release(h int32) { m.slab.Release(h) }

// AggMaterialized mirrors the aggregation store: its groups are state rows
// in a rel.Slab too.
type AggMaterialized struct {
	slab rel.Slab
}

type Maintainer struct {
	mv  *Materialized
	agg *AggMaterialized
	fp  func(site string) error
}

type Changeset struct {
	m   *Maintainer
	log []int32
}

// fail consults the fault-injection hook at a mutation site.
func (cs *Changeset) fail(site string) error {
	if cs.m.fp == nil {
		return nil
	}
	return cs.m.fp(site)
}

// insertRow and deleteKey are the site-bearing wrappers: they consult first
// and forward their own site parameter, which is the sanctioned shape.
func (cs *Changeset) insertRow(site, k string, v int) error {
	if err := cs.fail(site); err != nil {
		return err
	}
	cs.log = append(cs.log, cs.m.mv.insertRow(k, rel.Row{rel.Int(int64(v))}))
	return nil
}

func (cs *Changeset) deleteKey(site, k string) error {
	if err := cs.fail(site); err != nil {
		return err
	}
	cs.log = append(cs.log, cs.m.mv.unlinkKey(k))
	return nil
}

// commit releases the slots the run unlinked: finalization, not a staged
// mutation.
func (cs *Changeset) commit() {
	for _, h := range cs.log {
		cs.m.mv.release(h)
	}
}

// applyPrimary stages through the wrappers with literal sites that both
// matrices list: fully conforming.
func applyPrimary(cs *Changeset, k string, v int) error {
	if err := cs.insertRow("s-insert", k, v); err != nil {
		return err
	}
	return cs.deleteKey("s-delete", k)
}

// applyDynamic builds the site name at run time, so the crash-point set is
// no longer statically enumerable.
func applyDynamic(cs *Changeset, site, k string) error {
	return cs.deleteKey(site+"-next", k) // want `failpoint site argument of deleteKey must be a string literal \(or forward the caller's site parameter\)`
}

// repairOrphan mutates the stored view directly with no consult at all.
func repairOrphan(m *Maintainer, k string) {
	m.mv.unlinkKey(k) // want `staged view mutation unlinkKey is not preceded by a FailPoint consult in repairOrphan`
}

// hideRow and showRow reach past the wrappers to the halves of a delete, by
// handle: as unguarded as a delete by key.
func hideRow(m *Maintainer, h int32) {
	m.mv.unlink(h) // want `staged view mutation unlink is not preceded by a FailPoint consult in hideRow`
}

func showRow(cs *Changeset, h int32) {
	cs.m.mv.relink(h) // want `staged view mutation relink is not preceded by a FailPoint consult in showRow`
}

// rewriteRow and rewriteAliased reach past every primitive into the slab:
// a row replaced in its slot is a staged mutation, through the store's
// accessor, the slab's own, or a local holding the slot.
func rewriteRow(m *Maintainer, h int32, row rel.Row) {
	m.mv.at(h).Row = row // want `staged write into a view slab slot is not preceded by a FailPoint consult in rewriteRow`
}

func rewriteAliased(cs *Changeset, h int32, row rel.Row) {
	sl := cs.m.mv.slab.At(h)
	sl.Row = row // want `staged write into a view slab slot is not preceded by a FailPoint consult in rewriteAliased`
}

// rewriteGuarded consults first: guarded.
func rewriteGuarded(cs *Changeset, h int32, row rel.Row) error {
	if err := cs.fail("s-insert"); err != nil {
		return err
	}
	*cs.m.mv.at(h) = rel.Slot{Key: "k", Row: row}
	return nil
}

// hideGuarded consults the bare hook before unlinking by handle: guarded.
func hideGuarded(cs *Changeset, h int32) error {
	if err := cs.fail("s-delete"); err != nil {
		return err
	}
	cs.m.mv.unlink(h)
	return nil
}

// restateGroup edits a group's state row in its slot, unguarded: a group is
// a slab slot like a view row, and writing it is as much a staged mutation.
func restateGroup(m *Maintainer, h int32, st rel.Row) {
	m.agg.slab.At(h).Row = st // want `staged write into a view slab slot is not preceded by a FailPoint consult in restateGroup`
}

// applyMixed reuses one site name for two mutation kinds, so a matrix entry
// for it no longer identifies a unique crash point.
func applyMixed(cs *Changeset, k string) error {
	if err := cs.insertRow("s-kinds", k, 1); err != nil { // want `failpoint site "s-kinds" is used with multiple mutation kinds \(deleteKey, insertRow\)`
		return err
	}
	return cs.deleteKey("s-kinds", k)
}

// applyUntested consults a site neither matrix lists: an untested crash
// point, reported against both matrices.
func applyUntested(cs *Changeset, k string) error {
	return cs.insertRow("s-missing", k, 2) // want `failpoint site "s-missing" is consulted in the flush path but missing from the view test fault matrix \(wantSites\)` `failpoint site "s-missing" is consulted in the flush path but missing from the oracle fault matrix \(flushFaultSites\)`
}

// undoReplay is the vetted exception: rollback must never consult the hook,
// and says so in source, at the relink of a deleted row and at the unlink of
// an inserted one.
func undoReplay(cs *Changeset) {
	for i := len(cs.log) - 1; i >= 0; i-- {
		h := cs.log[i]
		if i%2 == 0 {
			//ojvlint:ignore failsite rollback replay must succeed unconditionally, so it never consults the fault hook
			cs.m.mv.relink(h)
			continue
		}
		//ojvlint:ignore failsite rollback replay must succeed unconditionally, so it never consults the fault hook
		cs.m.mv.unlink(h)
		cs.m.mv.release(h)
	}
}

// localCopy stages into a locally built view, not committed state handed
// in: out of scope for the guard, its slots included.
func localCopy(k string, v int) *Materialized {
	scratch := &Materialized{rows: map[string]int32{}}
	h := scratch.insertRow(k, rel.Row{rel.Int(int64(v))})
	scratch.at(h).Row = nil
	return scratch
}
