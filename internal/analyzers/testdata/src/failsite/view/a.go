// Package view is the failsite corpus: a miniature changeset whose staged
// mutations must consult a FailPoint site first, with site names enumerable
// and in parity with the fault matrices.
package view

import "ojv/internal/rel"

// Materialized mirrors the stored view: its rows live in a rel.Store, whose
// Insert, Fill, Remove and Update are site-less primitives only the
// changeset wrappers may reach unguarded, as is the view's link hook; only
// they write a slot. One primitive calling another of its own type is not a
// staged mutation of its own.
type Materialized struct {
	rows  rel.Store
	count int
}

// linkSlot is the view's link hook: it files a row in the view's own
// structures, or takes it out.
func (m *Materialized) linkSlot(h int32, link bool) {
	if link {
		m.count++
	} else {
		m.count--
	}
}

// AggMaterialized mirrors the aggregation store: its groups are state rows
// in a rel.Store too.
type AggMaterialized struct {
	rows rel.Store
}

type Maintainer struct {
	mv  *Materialized
	agg *AggMaterialized
	fp  func(site string) error
}

type Changeset struct {
	m    *Maintainer
	from int
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
	cs.m.mv.rows.Insert(k, rel.Row{rel.Int(int64(v))})
	return nil
}

func (cs *Changeset) deleteKey(site, k string) error {
	if err := cs.fail(site); err != nil {
		return err
	}
	if h, ok := cs.m.mv.rows.Lookup(k); ok {
		cs.m.mv.rows.Remove(h)
	}
	return nil
}

// commit walks the log and releases the slots the run unlinked:
// finalization, not a staged mutation.
func (cs *Changeset) commit() {
	cs.m.mv.rows.Commit(cs.from, 0, nil, nil)
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
	h, _ := m.mv.rows.Lookup(k)
	m.mv.rows.Remove(h) // want `staged view mutation Remove is not preceded by a FailPoint consult in repairOrphan`
}

// hideRow and showRow reach past the wrappers: to the view's link hook, and
// to the store's unlogged fill, as unguarded as a staged delete or insert.
func hideRow(m *Maintainer, h int32) {
	m.mv.linkSlot(h, false) // want `staged view mutation linkSlot is not preceded by a FailPoint consult in hideRow`
}

func showRow(cs *Changeset, k string) {
	cs.m.mv.rows.Fill(k, rel.Row{rel.Int(1)}) // want `staged view mutation Fill is not preceded by a FailPoint consult in showRow`
}

// rewriteRow and rewriteAliased reach past every primitive into the slab:
// a row replaced in its slot is a staged mutation, through the store's
// accessor or a local holding the slot.
func rewriteRow(m *Maintainer, h int32, row rel.Row) {
	m.mv.rows.At(h).Row = row // want `staged write into a view slab slot is not preceded by a FailPoint consult in rewriteRow`
}

func rewriteAliased(cs *Changeset, h int32, row rel.Row) {
	sl := cs.m.mv.rows.At(h)
	sl.Row = row // want `staged write into a view slab slot is not preceded by a FailPoint consult in rewriteAliased`
}

// rewriteGuarded consults first: guarded.
func rewriteGuarded(cs *Changeset, h int32, row rel.Row) error {
	if err := cs.fail("s-insert"); err != nil {
		return err
	}
	*cs.m.mv.rows.At(h) = rel.Slot{Key: "k", Row: row}
	return nil
}

// hideGuarded consults the bare hook before removing by handle: guarded.
func hideGuarded(cs *Changeset, h int32) error {
	if err := cs.fail("s-delete"); err != nil {
		return err
	}
	cs.m.mv.rows.Remove(h)
	return nil
}

// restateGroup edits a group's state row in place, unguarded: a group is a
// store slot like a view row, and updating it is as much a staged mutation.
func restateGroup(m *Maintainer, h int32, st rel.Row) {
	m.agg.rows.Update(h, st) // want `staged view mutation Update is not preceded by a FailPoint consult in restateGroup`
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

// fillFamily is the vetted exception: a registration-time fill outside any
// changeset, which says so in source.
func fillFamily(m *Maintainer, keys []string) {
	for _, k := range keys {
		//ojvlint:ignore failsite a registration-time fill outside any changeset, which no rollback or epoch sees
		m.mv.rows.Fill(k, rel.Row{rel.Int(0)})
	}
}

// localCopy stages into a locally built view, not committed state handed
// in: out of scope for the guard, its slots included.
func localCopy(k string, v int) *Materialized {
	scratch := &Materialized{}
	scratch.rows.Init(scratch.linkSlot, true)
	h := scratch.rows.Insert(k, rel.Row{rel.Int(int64(v))})
	scratch.rows.At(h).Row = nil
	return scratch
}
