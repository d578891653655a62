package ojv

import (
	"sort"

	"ojv/internal/pipeline"
)

// Conflict analysis for the write path (DESIGN.md §14).
//
// A write's net deltas touch a set of base tables; a maintenance run of a
// view reads its whole footprint (its base tables plus FK-referenced
// tables its plans probe, Maintainer.Footprint). Two delta tables conflict
// — must commit in one atomic component — when
//
//   - some registered view's footprint contains both (the view's one
//     changeset covers both tables' maintenance, and its reads of either
//     must not observe the other mid-apply), or
//   - they are FK-adjacent and both have pending deltas (an insert's FK
//     validation reads the referenced table; a delete's RESTRICT check
//     reads the referencing one).
//
// The transitive closure of the conflict relation partitions the delta
// tables into independent components. Every view family (one registered
// view, or several sharing one store, DESIGN.md §19; its views share a
// footprint) with a non-empty footprint∩delta overlap lands in exactly one
// component (the first rule forces its whole overlap into one), and
// families with an empty overlap have nothing to maintain: their plans
// no-op on unrelated tables, so skipping them leaves reader-visible state
// bit-identical. Components share no written table and no family, so any
// interleaving of their commits is equivalent to applying them one after
// another.

// flushComponent is one independently committable unit of a write: the
// delta tables it writes (sorted), the view families it maintains (in
// registration order; a family's views share one footprint, one store and
// one changeset, DESIGN.md §19) and the plan over those tables — one step
// for a synchronous statement, Queue.PlanFor(tables) for a flush. staged is
// commitComponent's scratch, one entry per family, empty between commits.
type flushComponent struct {
	tables   []string
	families []*family
	steps    []pipeline.Step
	staged   []stagedFamily
}

// tableComponent returns the component a statement on table commits
// through: partition({table}), computed by the first statement after the
// registry last changed and kept, with its step and staging scratch, until
// it changes again. A one-table component depends on db.families and their
// footprints alone — rule 2 unites delta tables only — so registration,
// DropView, AddForeignKey, CreateTable and LoadCatalog clear the cache;
// nothing keyed on the catalog's design generation would do, since a view
// that reuses existing arrangements, or joins a family, leaves it where it
// was. Caller holds db.mu.
func (db *Database) tableComponent(table string) *flushComponent {
	c := db.components[table]
	if c == nil {
		c = &db.partition([]string{table})[0]
		db.components[table] = c
	}
	return c
}

// partition splits the sorted, duplicate-free delta tables into independent
// components and assigns each affected view to its component; the caller
// fills in the plans. Caller holds db.mu (which also excludes view
// registration). Component order follows each component's first table, so
// the partition is deterministic for a given delta.
func (db *Database) partition(delta []string) []flushComponent {
	// Union-find over positions in delta; index resolves a table name to
	// its position, or -1 when the table has no delta.
	parent := make([]int, len(delta))
	for i := range parent {
		parent[i] = i
	}
	index := func(t string) int {
		if i := sort.SearchStrings(delta, t); i < len(delta) && delta[i] == t {
			return i
		}
		return -1
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	// Rule 1: a view footprint's delta tables conflict pairwise. Remember
	// each affected family's anchor table to place it in its component later.
	type familyOverlap struct {
		f      *family
		anchor int
	}
	var overlaps []familyOverlap
	for _, f := range db.families {
		anchor := -1
		for _, t := range f.footprint {
			i := index(t)
			switch {
			case i < 0:
			case anchor < 0:
				anchor = i
			default:
				union(anchor, i)
			}
		}
		if anchor >= 0 {
			overlaps = append(overlaps, familyOverlap{f: f, anchor: anchor})
		}
	}

	// Rule 2: FK-adjacent delta tables conflict. Adjacency is symmetric, so
	// walking each delta table's outbound keys finds every adjacent pair.
	for i, t := range delta {
		for _, fk := range db.cat.ForeignKeys(t) {
			if r := index(fk.RefTable); r >= 0 {
				union(i, r)
			}
		}
	}

	compOf := make([]int, len(delta)) // root position → component index + 1
	var comps []flushComponent
	for i, t := range delta {
		root := find(i)
		if compOf[root] == 0 {
			comps = append(comps, flushComponent{})
			compOf[root] = len(comps)
		}
		c := &comps[compOf[root]-1]
		c.tables = append(c.tables, t)
	}
	for _, o := range overlaps {
		c := &comps[compOf[find(o.anchor)]-1]
		c.families = append(c.families, o.f)
	}
	return comps
}
