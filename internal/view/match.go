package view

import (
	"sort"
	"strings"

	"ojv/internal/algebra"
)

// Matches reports whether a query expression is answerable from this view
// definition by an exact match: the two SPOJ expressions have the same
// join-disjunctive normal form — the same terms with structurally equal
// predicates. The normal form is a canonical form for SPOJ expressions
// (Galindo-Legaria; the paper's Section 2.2), so syntactically different
// trees — different join orders, commuted outer joins, selections pushed
// to different depths — match whenever they denote the same view.
//
// The forms compared are those without foreign-key term elimination: the
// definition's was computed when the view was created, and a foreign key
// declared since would eliminate terms from the query's alone.
//
// This is deliberately the exact-match special case of the view-matching
// problem; the general containment test ("can part of the query be
// computed from the view") is the subject of the companion VLDB 2005 paper
// and out of scope here.
func (d *Definition) Matches(query algebra.Expr) bool {
	qnf, err := algebra.Normalize(query, nil)
	if err != nil {
		return false
	}
	return sameNormalForm(d.nfNoFK, qnf)
}

func sameNormalForm(a, b *algebra.NormalForm) bool {
	if len(a.Terms) != len(b.Terms) || len(a.AllTables) != len(b.AllTables) {
		return false
	}
	for i := range a.AllTables {
		if a.AllTables[i] != b.AllTables[i] {
			return false
		}
	}
	key := func(t algebra.Term) string {
		conj := algebra.ConjunctSet(t.Pred)
		parts := make([]string, 0, len(conj))
		for c := range conj {
			parts = append(parts, c)
		}
		sort.Strings(parts)
		return t.SourceKey() + "|" + strings.Join(parts, "&")
	}
	seen := make(map[string]bool, len(a.Terms))
	for _, t := range a.Terms {
		seen[key(t)] = true
	}
	for _, t := range b.Terms {
		if !seen[key(t)] {
			return false
		}
	}
	return true
}
