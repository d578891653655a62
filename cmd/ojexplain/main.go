// Command ojexplain prints the maintenance machinery the paper describes
// for one of the built-in example views: the join-disjunctive normal form
// (Section 2.2), the subsumption graph (Section 2.3), the maintenance graph
// before and after foreign-key reduction (Sections 3.1, 6.2), and the
// primary-delta expression in its bushy, left-deep and FK-simplified forms
// (Sections 4, 4.1, 6.1), each followed by the physical plan the executor
// compiles for it: one line per operator, and for every join the algorithm
// chosen and the key or index an index join probes. The view is arranged
// first, as CreateView would (DESIGN.md §16), and the arrangements it
// derived are listed above the ΔV^D forms, so the plans are the ones a
// registered view runs: a join that still hash-builds its right operand —
// a non-leaf operand of the bushy form, a right or full outer join — shows
// here, not only in a trace.
//
// With -check it instead runs the plan-invariant verifier over every
// compiled maintenance plan of the view and exits non-zero on the first
// violation, printing the section-numbered diagnostic.
//
// With -stats it materializes the view, executes a traced sample
// maintenance run (a batch delete of a few unreferenced rows followed by
// their re-insertion, leaving the data unchanged), and prints the
// maintenance scripts annotated with the observed per-statement row counts
// and durations, followed by the recorded span trees.
//
// Usage:
//
//	ojexplain -view v1 -update T
//	ojexplain -view v1fk -update T      # Example 10 / Figure 2-3 setting
//	ojexplain -view v2fk -update O      # Figure 4 setting
//	ojexplain -view v3 -update lineitem # the experimental view
//	ojexplain -view ojview -update lineitem
//	ojexplain -view v1fk -check         # verify all plans, exit 1 on violation
//	ojexplain -view v1 -stats           # annotate the plan with observed span stats
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ojv/internal/algebra"
	"ojv/internal/exec"
	"ojv/internal/fixture"
	"ojv/internal/obs"
	"ojv/internal/rel"
	"ojv/internal/tpch"
	"ojv/internal/view"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ojexplain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	viewName := fs.String("view", "v1", "v1 | v1fk | v2 | v2fk | v3 | core | ojview")
	update := fs.String("update", "", "updated base table (defaults to a sensible table per view)")
	check := fs.Bool("check", false, "verify every compiled maintenance plan against the paper's invariants and exit")
	stats := fs.Bool("stats", false, "run a traced sample maintenance pass and annotate the plan with observed stats")
	strategy := fs.String("strategy", "auto", "secondary-delta strategy for -stats: auto | base")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cat, expr, defaultTable, err := resolveView(*viewName)
	if err != nil {
		fmt.Fprintf(stderr, "ojexplain: %v\n", err)
		return 1
	}
	table := *update
	if table == "" {
		table = defaultTable
	}
	if *check {
		if err := checkPlans(stdout, cat, expr, *viewName, *update); err != nil {
			fmt.Fprintf(stderr, "ojexplain: %v\n", err)
			return 1
		}
		return 0
	}
	if *stats {
		st, err := parseStrategy(*strategy)
		if err != nil {
			fmt.Fprintf(stderr, "ojexplain: %v\n", err)
			return 2
		}
		if err := explainStats(stdout, cat, expr, *viewName, table, st); err != nil {
			fmt.Fprintf(stderr, "ojexplain: %v\n", err)
			return 1
		}
		return 0
	}
	if err := explain(stdout, cat, expr, *viewName, table); err != nil {
		fmt.Fprintf(stderr, "ojexplain: %v\n", err)
		return 1
	}
	return 0
}

func parseStrategy(s string) (view.Strategy, error) {
	switch s {
	case "auto":
		return view.StrategyAuto, nil
	case "base":
		return view.StrategyFromBase, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q (want auto or base)", s)
	}
}

func resolveView(name string) (*rel.Catalog, algebra.Expr, string, error) {
	switch name {
	case "v1", "v1fk":
		withFK := name == "v1fk"
		cat, err := fixture.RSTU(fixture.RSTUOptions{Rows: 8, Seed: 1, WithFK: withFK})
		if err != nil {
			return nil, nil, "", err
		}
		return cat, fixture.V1Expr(withFK), "T", nil
	case "v2", "v2fk":
		withFK := name == "v2fk"
		cat, err := fixture.COL(fixture.COLOptions{Customers: 5, Orders: 8, Lineitems: 12, Seed: 1, WithFK: withFK})
		if err != nil {
			return nil, nil, "", err
		}
		return cat, fixture.V2Expr(), "O", nil
	case "v3", "core", "ojview":
		db, err := tpch.Generate(tpch.Config{ScaleFactor: 0.0005, Seed: 1})
		if err != nil {
			return nil, nil, "", err
		}
		switch name {
		case "core":
			return db.Catalog, tpch.V3CoreExpr(), "lineitem", nil
		case "ojview":
			return db.Catalog, tpch.OJViewExpr(), "lineitem", nil
		default:
			return db.Catalog, tpch.V3Expr(), "lineitem", nil
		}
	default:
		return nil, nil, "", fmt.Errorf("unknown view %q (want v1, v1fk, v2, v2fk, v3, core or ojview)", name)
	}
}

// checkPlans builds the view's maintenance plans, which verifies each one
// against the paper's invariants, and reports the result. When table is
// non-empty, only that table's plans are verified.
func checkPlans(w io.Writer, cat *rel.Catalog, expr algebra.Expr, name, table string) error {
	def, err := view.Define(cat, name, expr, allOutput(cat, expr))
	if err != nil {
		return err
	}
	m, err := view.NewMaintainer(def, view.Options{})
	if err != nil {
		return err
	}
	if table != "" {
		for _, fkOK := range []bool{true, false} {
			if _, err := m.Plan(table, fkOK); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "ojexplain: view %s: maintenance plans for updates to %s satisfy the paper's invariants\n", name, table)
		return nil
	}
	if err := m.VerifyAllPlans(); err != nil {
		return err
	}
	fmt.Fprintf(w, "ojexplain: view %s: all maintenance plans (%d tables, fk and no-fk contracts) satisfy the paper's invariants\n",
		name, len(def.Tables()))
	return nil
}

func explain(w io.Writer, cat *rel.Catalog, expr algebra.Expr, name, table string) error {
	fmt.Fprintf(w, "view %s =\n%s\n", name, indent(algebra.FormatTree(expr)))

	nfNoFK, err := algebra.Normalize(expr, nil)
	if err != nil {
		return err
	}
	nf, err := algebra.Normalize(expr, cat)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "join-disjunctive normal form (%d terms):\n", len(nf.Terms))
	for i, t := range nf.Terms {
		fmt.Fprintf(w, "  E%d = σ[%s](%s)\n", i+1, t.Pred, strings.Join(t.Tables, " × "))
	}
	if len(nf.Eliminated) > 0 {
		for _, t := range nf.Eliminated {
			fmt.Fprintf(w, "  (term {%s} eliminated: its net contribution is empty by a foreign key)\n", t.SourceKey())
		}
	}
	fmt.Fprintln(w, "subsumption graph (term -> parents):")
	for i, t := range nf.Terms {
		var parents []string
		for _, p := range nf.Parents[i] {
			parents = append(parents, "{"+nf.Terms[p].SourceKey()+"}")
		}
		if len(parents) == 0 {
			parents = []string{"(root)"}
		}
		fmt.Fprintf(w, "  {%s} -> %s\n", t.SourceKey(), strings.Join(parents, " "))
	}

	gPlain, err := nfNoFK.MaintenanceGraph(table, algebra.MaintOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "maintenance graph for updates to %s:          %s\n", table, gPlain)
	gFK, err := nf.MaintenanceGraph(table, algebra.MaintOptions{ExploitFKs: true, FKs: cat})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "reduced maintenance graph (Theorem 3):        %s\n", orNone(gFK.String()))

	// Arrange as registration would, so the physical plans below are what a
	// registered view runs; the catalog is handed back as it was found.
	def, err := view.Define(cat, name, expr, allOutput(cat, expr))
	if err != nil {
		return err
	}
	m, err := view.NewMaintainer(def, view.Options{})
	if err != nil {
		return err
	}
	if err := m.Arrange(); err != nil {
		return err
	}
	defer m.Release()
	arranged := "none: every probe is served by a key or a declared index"
	if held := m.Arrangements(); len(held) > 0 {
		arranged = strings.Join(held, ", ")
	}
	fmt.Fprintf(w, "arrangements: %s\n", arranged)

	bushy, err := view.BuildPrimaryDelta(cat, expr, table, false, false)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ΔV^D (Section 4 transform, bushy):\n%s", indent(algebra.FormatTree(bushy)))
	if err := physicalPlan(w, cat, bushy); err != nil {
		return err
	}
	leftDeep, err := view.BuildPrimaryDelta(cat, expr, table, true, false)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ΔV^D (left-deep, Section 4.1):\n%s", indent(algebra.FormatTree(leftDeep)))
	if err := physicalPlan(w, cat, leftDeep); err != nil {
		return err
	}
	simplified, err := view.BuildPrimaryDelta(cat, expr, table, true, true)
	if err != nil {
		return err
	}
	if simplified == nil {
		fmt.Fprintln(w, "ΔV^D (FK-simplified, Section 6.1): provably empty")
	} else {
		fmt.Fprintf(w, "ΔV^D (FK-simplified, Section 6.1):\n%s", indent(algebra.FormatTree(simplified)))
		if err := physicalPlan(w, cat, simplified); err != nil {
			return err
		}
	}

	// The maintenance plan as the paper's Q1..Qn statements.
	for _, insert := range []bool{true, false} {
		script, err := m.MaintenanceScript(table, insert)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n%s", script)
	}
	return nil
}

// physicalPlan prints the program the executor compiles for a ΔV^D
// expression against the catalog's current indexes — what a maintenance
// run of that expression starts.
func physicalPlan(w io.Writer, cat *rel.Catalog, e algebra.Expr) error {
	prog, err := exec.Compile(cat, nil, e)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  physical plan:\n%s", indentBy(prog.String(), "    "))
	return nil
}

// explainStats materializes the view, runs one traced delete of a few
// unreferenced rows followed by their re-insertion (a net no-op on the
// data), and prints the maintenance scripts annotated with the observed
// per-statement stats plus the full recorded span trees. The trace is
// deterministic up to durations.
func explainStats(w io.Writer, cat *rel.Catalog, expr algebra.Expr, name, table string, strategy view.Strategy) error {
	def, err := view.Define(cat, name, expr, allOutput(cat, expr))
	if err != nil {
		return err
	}
	tracer := obs.NewTracer()
	metrics := obs.NewRegistry()
	m, err := view.NewMaintainer(def, view.Options{
		Strategy: strategy,
		Tracer:   tracer,
		Metrics:  metrics,
	})
	if err != nil {
		return err
	}
	if err := m.Materialize(); err != nil {
		return err
	}

	keys := deletableKeys(cat, table, 4)
	if len(keys) == 0 {
		return fmt.Errorf("view %s: table %s has no rows deletable without violating a foreign key", name, table)
	}
	deleted, err := cat.Delete(table, keys)
	if err != nil {
		return err
	}
	if _, err := m.OnDelete(table, deleted); err != nil {
		return err
	}
	if err := cat.Insert(table, deleted); err != nil {
		return err
	}
	if _, err := m.OnInsert(table, deleted); err != nil {
		return err
	}

	fmt.Fprintf(w, "-- sample run: deleted and re-inserted %d rows of %s\n\n", len(deleted), table)
	for _, insert := range []bool{false, true} {
		root := findMaintainRoot(tracer, insert)
		script, err := m.AnnotatedMaintenanceScript(table, insert, root)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", script)
	}
	fmt.Fprintf(w, "recorded spans:\n%s", obs.RenderTree(tracer.Roots(), true))
	return nil
}

// findMaintainRoot picks the recorded view.maintain root span for the given
// direction.
func findMaintainRoot(tracer *obs.Tracer, insert bool) *obs.Span {
	want := "delete"
	if insert {
		want = "insert"
	}
	for _, r := range tracer.Roots() {
		if r.Name() != "view.maintain" {
			continue
		}
		if op, ok := r.AttrStr("op"); ok && op == want {
			return r
		}
	}
	return nil
}

// deletableKeys picks up to n keys of existing rows that no foreign key
// references (scanning the referencing tables), in sorted row order.
func deletableKeys(cat *rel.Catalog, table string, n int) [][]rel.Value {
	referenced := make(map[string]bool)
	for _, ref := range cat.ReferencingKeys(table) {
		ft := cat.Table(ref.Table)
		var cols []int
		for _, c := range ref.FK.Cols {
			cols = append(cols, ft.Schema().MustIndexOf(ref.Table, c))
		}
		for _, row := range ft.Rows() {
			referenced[rel.EncodeRowCols(row, cols)] = true
		}
	}
	rows := cat.Table(table).Rows()
	rel.SortRows(rows) // Rows() has map order; keep the key choice deterministic
	var keys [][]rel.Value
	for _, row := range rows {
		kv := row.Project(cat.Table(table).KeyCols())
		if referenced[rel.EncodeValues(kv...)] {
			continue
		}
		keys = append(keys, kv)
		if len(keys) == n {
			break
		}
	}
	return keys
}

// allOutput projects every column of every referenced table.
func allOutput(cat *rel.Catalog, expr algebra.Expr) []algebra.ColRef {
	var out []algebra.ColRef
	for _, t := range expr.Tables() {
		sch, _ := cat.TableSchema(t)
		for _, c := range sch {
			out = append(out, algebra.Col(c.Table, c.Name))
		}
	}
	return out
}

func indent(s string) string { return indentBy(s, "  ") }

func indentBy(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

func orNone(s string) string {
	if s == "" {
		return "(no affected terms — maintenance is a no-op)"
	}
	return s
}
