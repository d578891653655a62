package view

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"ojv/internal/algebra"
	"ojv/internal/obs"
)

// MaintenanceScript renders the maintenance plan for updates to one table
// as the sequence of SQL-like statements the paper presents (the Q1..Q4 of
// Section 7): compute the primary delta into a temporary table, apply it,
// then one orphan-cleanup statement per indirectly affected term. The
// script is explanatory output — execution uses the compiled plan — but it
// mirrors the executed steps one for one.
func (m *Maintainer) MaintenanceScript(table string, isInsert bool) (string, error) {
	return m.script(table, isInsert, nil)
}

// AnnotatedMaintenanceScript renders the same script annotated with
// observed statistics from a recorded maintenance run: root must be the
// view.maintain span of a run with the same table and direction, and each
// statement gets an "observed: rows=… time=…" comment from the matching
// span. Statements without a matching span (e.g. per-term statements of the
// combined insertion cleanup, which executes as one pass) stay bare.
func (m *Maintainer) AnnotatedMaintenanceScript(table string, isInsert bool, root *obs.Span) (string, error) {
	return m.script(table, isInsert, root)
}

func (m *Maintainer) script(table string, isInsert bool, root *obs.Span) (string, error) {
	plan, err := m.Plan(table, true)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	verb := "insertion into"
	if !isInsert {
		verb = "deletion from"
	}
	fmt.Fprintf(&b, "-- maintenance of %s after %s %s\n", m.def.Name, verb, table)
	if plan.primary == nil && len(plan.indirect) == 0 {
		fmt.Fprintf(&b, "-- no terms affected: nothing to do\n")
		return b.String(), nil
	}

	step := 1
	if plan.primary != nil {
		fmt.Fprintf(&b, "-- Q%d: compute primary delta ΔV^D\n", step)
		fmt.Fprintf(&b, "select * into #delta from %s;\n", renderFrom(plan.primary))
		annotate(&b, root.Find("primary.eval"))
		step++
		fmt.Fprintf(&b, "-- Q%d: apply primary delta\n", step)
		if isInsert {
			fmt.Fprintf(&b, "insert into %s select * from #delta;\n", m.def.Name)
		} else {
			fmt.Fprintf(&b, "delete from %s where <view key> in (select <view key> from #delta);\n", m.def.Name)
		}
		annotate(&b, root.Find("primary.apply"))
		step++
	}
	for _, ip := range plan.indirect {
		step = m.renderIndirect(&b, step, ip, isInsert)
		annotate(&b, findTermSpan(root, ip.term.SourceKey()))
	}
	if sec := root.Find("secondary"); sec != nil {
		if src, _ := sec.AttrStr("source"); src == "view-combined" {
			fmt.Fprintf(&b, "-- all term updates executed as one combined pass\n")
			annotate(&b, sec)
		}
	}
	return b.String(), nil
}

// annotate appends the observed row count and duration of one span as a
// comment. A nil span (no recorded run, or no matching phase) emits nothing.
func annotate(b *strings.Builder, s *obs.Span) {
	if s == nil || !s.Ended() {
		return
	}
	if rows, ok := s.AttrInt("rows"); ok {
		// Pipeline-backed statements also report batch granularity next to
		// the row counts.
		if batches, ok := s.AttrInt("batches"); ok {
			fmt.Fprintf(b, "--   observed: rows=%d batches=%d time=%s\n", rows, batches, s.Duration().Round(time.Microsecond))
			return
		}
		fmt.Fprintf(b, "--   observed: rows=%d time=%s\n", rows, s.Duration().Round(time.Microsecond))
		return
	}
	fmt.Fprintf(b, "--   observed: time=%s\n", s.Duration().Round(time.Microsecond))
}

// findTermSpan locates the secondary-cleanup span for one term in a
// recorded run (named "term" on the from-view path, "term.apply" on the
// from-base path).
func findTermSpan(root *obs.Span, key string) *obs.Span {
	sec := root.Find("secondary")
	if sec == nil {
		return nil
	}
	for _, c := range sec.Children() {
		if c.Name() != "term" && c.Name() != "term.apply" {
			continue
		}
		if k, ok := c.AttrStr("term"); ok && k == key {
			return c
		}
	}
	return nil
}

// renderIndirect emits the orphan statement for one indirectly affected
// term, in the style of the paper's Q3/Q4.
func (m *Maintainer) renderIndirect(b *strings.Builder, step int, ip *indirectPlan, isInsert bool) int {
	termKey := strings.Join(keyColumnNames(m, ip.term.Tables), ", ")
	nullTests := m.nullTests(ip)
	pi := m.piPredicate(ip)
	if isInsert {
		fmt.Fprintf(b, "-- Q%d: update term {%s} — delete orphans absorbed by the insert\n", step, ip.term.SourceKey())
		fmt.Fprintf(b, "delete from %s\nwhere %s\n  and (%s) in (select %s from #delta where %s);\n",
			m.def.Name, nullTests, termKey, termKey, pi)
	} else {
		fmt.Fprintf(b, "-- Q%d: update term {%s} — insert tuples that became orphans\n", step, ip.term.SourceKey())
		fmt.Fprintf(b, "insert into %s\nselect distinct <%s columns null-extended>\nfrom #delta d where %s\n  and not exists (select 1 from %s v where %s);\n",
			m.def.Name, ip.term.SourceKey(), pi, m.def.Name, matchTests(m, ip))
	}
	return step + 1
}

// nullTests renders the σ nn(Ti) ∧ n(Si) selection that identifies the
// term's orphan rows in the view, using one key column per table as the
// paper's null(T) implementation does.
func (m *Maintainer) nullTests(ip *indirectPlan) string {
	var parts []string
	for i, t := range m.def.tables {
		w := witnessColumn(m, t)
		if ip.tiMask&(1<<uint(i)) != 0 {
			parts = append(parts, w+" is not null")
		} else {
			parts = append(parts, w+" is null")
		}
	}
	return strings.Join(parts, " and ")
}

// piPredicate renders Pi = ∨_k nn(Tk) over the directly affected parents.
func (m *Maintainer) piPredicate(ip *indirectPlan) string {
	var disjuncts []string
	for _, mask := range ip.parentMasks {
		var conj []string
		for i, t := range m.def.tables {
			if mask&(1<<uint(i)) != 0 {
				conj = append(conj, witnessColumn(m, t)+" is not null")
			}
		}
		disjuncts = append(disjuncts, strings.Join(conj, " and "))
	}
	sort.Strings(disjuncts)
	if len(disjuncts) == 1 {
		return disjuncts[0]
	}
	return "(" + strings.Join(disjuncts, ") or (") + ")"
}

// matchTests renders the eq(Ti) correlation between a delta row and a view
// row for the deletion-case anti-join.
func matchTests(m *Maintainer, ip *indirectPlan) string {
	var parts []string
	for _, c := range keyColumnNames(m, ip.term.Tables) {
		parts = append(parts, fmt.Sprintf("v.%s = d.%s", c, c))
	}
	return strings.Join(parts, " and ")
}

// witnessColumn returns one key column of a table, qualified.
func witnessColumn(m *Maintainer, table string) string {
	tab := m.def.cat.Table(table)
	return table + "." + tab.Schema()[tab.KeyCols()[0]].Name
}

// keyColumnNames lists the key columns of a table set, unqualified.
func keyColumnNames(m *Maintainer, tables []string) []string {
	var out []string
	for _, t := range tables {
		tab := m.def.cat.Table(t)
		for _, kc := range tab.KeyCols() {
			out = append(out, tab.Schema()[kc].Name)
		}
	}
	return out
}

// renderFrom renders a delta expression as a SQL-ish FROM clause: the left
// spine becomes a join chain; null-if/condense fix-ups are noted as
// comments in place.
func renderFrom(e algebra.Expr) string {
	switch n := e.(type) {
	case *algebra.DeltaRef:
		return "Δ" + n.Name
	case *algebra.TableRef:
		return n.Name
	case *algebra.OldTableRef:
		return n.Name + "_old"
	case *algebra.RelRef:
		return "@" + n.Name
	case *algebra.Select:
		return renderFrom(n.Input) + " where " + n.Pred.String()
	case *algebra.Join:
		var kw string
		switch n.Kind {
		case algebra.InnerJoin:
			kw = "join"
		case algebra.LeftOuterJoin:
			kw = "left outer join"
		case algebra.RightOuterJoin:
			kw = "right outer join"
		case algebra.FullOuterJoin:
			kw = "full outer join"
		case algebra.SemiJoin:
			kw = "semijoin"
		case algebra.AntiJoin:
			kw = "antijoin"
		}
		right := renderFrom(n.Right)
		if _, ok := n.Right.(*algebra.Select); ok {
			right = "(" + right + ")"
		}
		return renderFrom(n.Left) + "\n  " + kw + " " + right + " on " + n.Pred.String()
	case *algebra.NullIf:
		return renderFrom(n.Input) + "\n  -- λ: null out " + strings.Join(n.NullTables, ", ") + " unless " + n.Unless.String()
	case *algebra.Condense:
		return renderFrom(n.Input) + "\n  -- δ: remove duplicates and subsumed rows per left key"
	default:
		return e.String()
	}
}
