package algebra

import (
	"fmt"
	"sort"
	"strings"

	"ojv/internal/rel"
)

// JoinKind distinguishes the join operators of the algebra.
type JoinKind int8

// Join kinds. SemiJoin and AntiJoin are the paper's left semijoin and left
// antijoin; their result schema is the left input's schema.
const (
	InnerJoin JoinKind = iota
	LeftOuterJoin
	RightOuterJoin
	FullOuterJoin
	SemiJoin
	AntiJoin
)

// String returns the paper's spelling of the join kind.
func (k JoinKind) String() string {
	switch k {
	case InnerJoin:
		return "join"
	case LeftOuterJoin:
		return "lo"
	case RightOuterJoin:
		return "ro"
	case FullOuterJoin:
		return "fo"
	case SemiJoin:
		return "semijoin"
	case AntiJoin:
		return "antijoin"
	default:
		return fmt.Sprintf("JoinKind(%d)", int8(k))
	}
}

// Expr is a node of a logical algebra expression.
type Expr interface {
	// Tables returns the base tables referenced below this node, in
	// first-appearance order. A DeltaRef counts as its underlying table.
	Tables() []string
	// Children returns the node's inputs.
	Children() []Expr
	String() string
}

// TableRef is a leaf referencing a base table's current contents.
type TableRef struct{ Name string }

// Tables implements Expr.
func (e *TableRef) Tables() []string { return []string{e.Name} }

// Children implements Expr.
func (e *TableRef) Children() []Expr { return nil }

func (e *TableRef) String() string { return e.Name }

// DeltaRef is a leaf referencing the delta (inserted or deleted rows) of a
// base table. Its schema is the table's schema; the executor resolves it
// from the evaluation context's bindings.
type DeltaRef struct{ Name string }

// Tables implements Expr.
func (e *DeltaRef) Tables() []string { return []string{e.Name} }

// Children implements Expr.
func (e *DeltaRef) Children() []Expr { return nil }

func (e *DeltaRef) String() string { return "Δ" + e.Name }

// OldTableRef is a leaf referencing the pre-update state of a base table.
// The executor reconstructs it from the current table and the bound delta
// (current minus inserted rows, or current plus deleted rows), which is how
// the paper's T± ⋉la ΔT and T± ∪ ΔT expressions are evaluated.
type OldTableRef struct{ Name string }

// Tables implements Expr.
func (e *OldTableRef) Tables() []string { return []string{e.Name} }

// Children implements Expr.
func (e *OldTableRef) Children() []Expr { return nil }

func (e *OldTableRef) String() string { return e.Name + "ᵒ" }

// RelRef is a leaf referencing a named, already-materialized relation bound
// in the executor's context. The maintenance engine uses it to feed
// intermediate results (such as secondary-delta candidate sets) back into
// algebraic expressions. TableNames lists the base tables whose columns the
// relation carries, so that predicates resolve sides correctly.
type RelRef struct {
	Name       string
	TableNames []string
}

// Tables implements Expr.
func (e *RelRef) Tables() []string { return e.TableNames }

// Children implements Expr.
func (e *RelRef) Children() []Expr { return nil }

func (e *RelRef) String() string { return "@" + e.Name }

// Select is σ_p.
type Select struct {
	Input Expr
	Pred  Pred
}

// Tables implements Expr.
func (e *Select) Tables() []string { return e.Input.Tables() }

// Children implements Expr.
func (e *Select) Children() []Expr { return []Expr{e.Input} }

func (e *Select) String() string {
	return "σ[" + e.Pred.String() + "](" + e.Input.String() + ")"
}

// Project is π_cols (without duplicate elimination).
type Project struct {
	Input Expr
	Cols  []ColRef
}

// Tables implements Expr.
func (e *Project) Tables() []string { return e.Input.Tables() }

// Children implements Expr.
func (e *Project) Children() []Expr { return []Expr{e.Input} }

func (e *Project) String() string {
	parts := make([]string, len(e.Cols))
	for i, c := range e.Cols {
		parts[i] = c.String()
	}
	return "π[" + strings.Join(parts, ",") + "](" + e.Input.String() + ")"
}

// Join is a binary join of any kind.
type Join struct {
	Kind  JoinKind
	Left  Expr
	Right Expr
	Pred  Pred
}

// Tables implements Expr.
func (e *Join) Tables() []string {
	return append(e.Left.Tables(), e.Right.Tables()...)
}

// Children implements Expr.
func (e *Join) Children() []Expr { return []Expr{e.Left, e.Right} }

func (e *Join) String() string {
	return "(" + e.Left.String() + " " + e.Kind.String() + "[" + e.Pred.String() + "] " + e.Right.String() + ")"
}

// OuterUnion is the paper's ⊎: null-extend both inputs to the union schema
// and concatenate without duplicate elimination.
type OuterUnion struct{ Inputs []Expr }

// Tables implements Expr.
func (e *OuterUnion) Tables() []string {
	var out []string
	seen := make(map[string]bool)
	for _, in := range e.Inputs {
		for _, t := range in.Tables() {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out
}

// Children implements Expr.
func (e *OuterUnion) Children() []Expr { return e.Inputs }

func (e *OuterUnion) String() string {
	parts := make([]string, len(e.Inputs))
	for i, in := range e.Inputs {
		parts[i] = in.String()
	}
	return "(" + strings.Join(parts, " ⊎ ") + ")"
}

// RemoveSubsumed is the paper's ↓: drop every tuple subsumed by another
// tuple of the input.
type RemoveSubsumed struct{ Input Expr }

// Tables implements Expr.
func (e *RemoveSubsumed) Tables() []string { return e.Input.Tables() }

// Children implements Expr.
func (e *RemoveSubsumed) Children() []Expr { return []Expr{e.Input} }

func (e *RemoveSubsumed) String() string { return "↓(" + e.Input.String() + ")" }

// MinUnion is the paper's minimum union ⊕ = ↓(⊎).
type MinUnion struct{ Inputs []Expr }

// Tables implements Expr.
func (e *MinUnion) Tables() []string { return (&OuterUnion{Inputs: e.Inputs}).Tables() }

// Children implements Expr.
func (e *MinUnion) Children() []Expr { return e.Inputs }

func (e *MinUnion) String() string {
	parts := make([]string, len(e.Inputs))
	for i, in := range e.Inputs {
		parts[i] = in.String()
	}
	return "(" + strings.Join(parts, " ⊕ ") + ")"
}

// Pad null-extends the input to additionally carry all columns of the
// given tables (which must be disjoint from the input's tables). It is the
// degenerate outer union with an empty relation over those tables; change-
// propagation expressions use it so every delta branch carries the full
// subtree schema.
type Pad struct {
	Input   Expr
	Tables_ []string
}

// Tables implements Expr.
func (e *Pad) Tables() []string {
	out := append([]string(nil), e.Input.Tables()...)
	return append(out, e.Tables_...)
}

// Children implements Expr.
func (e *Pad) Children() []Expr { return []Expr{e.Input} }

func (e *Pad) String() string {
	return "pad[" + strings.Join(e.Tables_, ",") + "](" + e.Input.String() + ")"
}

// Dedup is δ: duplicate elimination over complete rows.
type Dedup struct{ Input Expr }

// Tables implements Expr.
func (e *Dedup) Tables() []string { return e.Input.Tables() }

// Children implements Expr.
func (e *Dedup) Children() []Expr { return []Expr{e.Input} }

func (e *Dedup) String() string { return "δ(" + e.Input.String() + ")" }

// NullIf is the paper's λ^c_p operator from Section 4.1, specialized the
// way the left-deep conversion uses it: for every row where Unless does
// NOT evaluate to True (the paper writes the condition as ¬p), the values
// of all columns belonging to NullTables are set to NULL; other rows pass
// through unchanged.
type NullIf struct {
	Input      Expr
	Unless     Pred // the join predicate p; rows failing it get nulled
	NullTables []string
}

// Tables implements Expr.
func (e *NullIf) Tables() []string { return e.Input.Tables() }

// Children implements Expr.
func (e *NullIf) Children() []Expr { return []Expr{e.Input} }

func (e *NullIf) String() string {
	return "λ[" + strings.Join(e.NullTables, ",") + " unless " + e.Unless.String() + "](" + e.Input.String() + ")"
}

// Condense removes duplicate rows and subsumed rows, comparing only rows
// that agree on GroupKey (a key of the left, preserved side). The left-deep
// conversion (rules 1, 4, 5 of Section 4.1) applies it above a NullIf: the
// λ operator may both create duplicates and leave a null-extended row
// alongside a surviving joined row with the same left key; Condense removes
// both. With an empty GroupKey it condenses globally.
//
// The paper writes a bare δ here; a plain duplicate elimination does not
// remove a λ-nulled row when the same left row also has a surviving join
// partner, so we implement the operator as δ∘↓ within left-key groups,
// which is the semantics required for the rewrite rules to be exact (see
// left-deep conversion tests).
type Condense struct {
	Input    Expr
	GroupKey []ColRef
}

// Tables implements Expr.
func (e *Condense) Tables() []string { return e.Input.Tables() }

// Children implements Expr.
func (e *Condense) Children() []Expr { return []Expr{e.Input} }

func (e *Condense) String() string {
	parts := make([]string, len(e.GroupKey))
	for i, c := range e.GroupKey {
		parts[i] = c.String()
	}
	return "δ↓[" + strings.Join(parts, ",") + "](" + e.Input.String() + ")"
}

// AggFunc is an aggregate function kind.
type AggFunc int8

// Aggregate functions. Only the self-maintainable aggregates are supported,
// the same restriction SQL Server places on indexed views: MIN/MAX cannot
// be maintained incrementally under deletions without recomputation.
const (
	AggCount AggFunc = iota // COUNT(*) when Col is the zero ColRef
	AggSum
	AggAvg
)

// String returns the SQL name of the aggregate.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	default:
		return "agg?"
	}
}

// Aggregate is one aggregate output of a GroupBy.
type Aggregate struct {
	Func AggFunc
	Col  ColRef // ignored for COUNT(*)
	Name string // output column name
}

// GroupBy groups the input on GroupCols and computes Aggs per group. It is
// only legal as the root of an aggregation view definition (SPOJG).
type GroupBy struct {
	Input     Expr
	GroupCols []ColRef
	Aggs      []Aggregate
}

// Tables implements Expr.
func (e *GroupBy) Tables() []string { return e.Input.Tables() }

// Children implements Expr.
func (e *GroupBy) Children() []Expr { return []Expr{e.Input} }

func (e *GroupBy) String() string {
	parts := make([]string, len(e.GroupCols))
	for i, c := range e.GroupCols {
		parts[i] = c.String()
	}
	aggs := make([]string, len(e.Aggs))
	for i, a := range e.Aggs {
		aggs[i] = a.Func.String() + "(" + a.Col.String() + ")"
	}
	return "γ[" + strings.Join(parts, ",") + ";" + strings.Join(aggs, ",") + "](" + e.Input.String() + ")"
}

// SchemaResolver resolves a base table name to its schema. *rel.Catalog
// implements it.
type SchemaResolver interface {
	TableSchema(name string) (rel.Schema, bool)
}

// SchemaOf computes the output schema of an expression.
func SchemaOf(e Expr, res SchemaResolver) (rel.Schema, error) {
	kids := e.Children()
	in := make([]rel.Schema, len(kids))
	for i, k := range kids {
		sch, err := SchemaOf(k, res)
		if err != nil {
			return nil, err
		}
		in[i] = sch
	}
	return NodeSchema(e, in, res)
}

// NodeSchema is one step of SchemaOf: the output schema of e given the
// schemas of e.Children(), in order. A caller that walks the tree bottom-up
// anyway (the executor's compiler) derives every node's schema once instead
// of re-deriving each subtree from its root.
func NodeSchema(e Expr, in []rel.Schema, res SchemaResolver) (rel.Schema, error) {
	switch n := e.(type) {
	case *TableRef:
		return resolveTable(n.Name, res)
	case *DeltaRef:
		return resolveTable(n.Name, res)
	case *OldTableRef:
		return resolveTable(n.Name, res)
	case *RelRef:
		return resolveTable(n.Name, res)
	case *Select, *Dedup, *RemoveSubsumed, *Condense:
		return in[0], nil
	case *NullIf:
		// Nulled columns become nullable.
		out := make(rel.Schema, len(in[0]))
		copy(out, in[0])
		nulled := make(map[string]bool, len(n.NullTables))
		for _, t := range n.NullTables {
			nulled[t] = true
		}
		for i := range out {
			if nulled[out[i].Table] {
				out[i].NotNull = false
			}
		}
		return out, nil
	case *Pad:
		out := make(rel.Schema, len(in[0]))
		copy(out, in[0])
		for _, t := range n.Tables_ {
			ts, err := resolveTable(t, res)
			if err != nil {
				return nil, err
			}
			padded := make(rel.Schema, len(ts))
			copy(padded, ts)
			for i := range padded {
				padded[i].NotNull = false
			}
			out = out.Concat(padded)
		}
		return out, nil
	case *Project:
		sch := in[0]
		out := make(rel.Schema, len(n.Cols))
		for i, c := range n.Cols {
			p := sch.IndexOf(c.Table, c.Column)
			if p < 0 {
				return nil, fmt.Errorf("algebra: projected column %s not in %s", c, sch)
			}
			out[i] = sch[p]
		}
		return out, nil
	case *Join:
		l, r := in[0], in[1]
		switch n.Kind {
		case SemiJoin, AntiJoin:
			return l, nil
		default:
			out := l.Concat(r)
			// Outer joins make the non-preserved side's columns nullable.
			markNullable := func(sch rel.Schema) {
				for i := range out {
					if sch.Has(out[i].Table, out[i].Name) {
						out[i].NotNull = false
					}
				}
			}
			out2 := make(rel.Schema, len(out))
			copy(out2, out)
			out = out2
			switch n.Kind {
			case LeftOuterJoin:
				markNullable(r)
			case RightOuterJoin:
				markNullable(l)
			case FullOuterJoin:
				markNullable(l)
				markNullable(r)
			}
			return out, nil
		}
	case *OuterUnion, *MinUnion:
		return unionSchema(in), nil
	case *GroupBy:
		sch := in[0]
		out := make(rel.Schema, 0, len(n.GroupCols)+len(n.Aggs))
		for _, c := range n.GroupCols {
			p := sch.IndexOf(c.Table, c.Column)
			if p < 0 {
				return nil, fmt.Errorf("algebra: group column %s not in %s", c, sch)
			}
			out = append(out, sch[p])
		}
		for _, a := range n.Aggs {
			kind := rel.KindFloat
			if a.Func == AggCount {
				kind = rel.KindInt
			}
			out = append(out, rel.Column{Table: "", Name: a.Name, Kind: kind})
		}
		return out, nil
	default:
		return nil, fmt.Errorf("algebra: SchemaOf: unknown node %T", e)
	}
}

func resolveTable(name string, res SchemaResolver) (rel.Schema, error) {
	sch, ok := res.TableSchema(name)
	if !ok {
		return nil, fmt.Errorf("algebra: unknown table %s", name)
	}
	return sch, nil
}

func unionSchema(inputs []rel.Schema) rel.Schema {
	var out rel.Schema
	for i, sch := range inputs {
		if i == 0 {
			out = sch
			continue
		}
		before := out
		out = out.Union(sch)
		// Columns absent from either input become nullable.
		for j := range out {
			if !before.Has(out[j].Table, out[j].Name) || !sch.Has(out[j].Table, out[j].Name) {
				c := out[j]
				c.NotNull = false
				out[j] = c
			}
		}
	}
	return out
}

// SortedTables returns the expression's table set, sorted.
func SortedTables(e Expr) []string {
	ts := append([]string(nil), e.Tables()...)
	sort.Strings(ts)
	return ts
}

// TableSet returns the expression's tables as a set.
func TableSet(e Expr) map[string]bool {
	out := make(map[string]bool)
	for _, t := range e.Tables() {
		out[t] = true
	}
	return out
}

// CloneExpr deep-copies an expression tree. Predicates are immutable and
// shared.
func CloneExpr(e Expr) Expr {
	switch n := e.(type) {
	case *TableRef:
		c := *n
		return &c
	case *DeltaRef:
		c := *n
		return &c
	case *OldTableRef:
		c := *n
		return &c
	case *RelRef:
		return &RelRef{Name: n.Name, TableNames: append([]string(nil), n.TableNames...)}
	case *Select:
		return &Select{Input: CloneExpr(n.Input), Pred: n.Pred}
	case *Project:
		return &Project{Input: CloneExpr(n.Input), Cols: append([]ColRef(nil), n.Cols...)}
	case *Join:
		return &Join{Kind: n.Kind, Left: CloneExpr(n.Left), Right: CloneExpr(n.Right), Pred: n.Pred}
	case *OuterUnion:
		return &OuterUnion{Inputs: cloneAll(n.Inputs)}
	case *MinUnion:
		return &MinUnion{Inputs: cloneAll(n.Inputs)}
	case *RemoveSubsumed:
		return &RemoveSubsumed{Input: CloneExpr(n.Input)}
	case *Dedup:
		return &Dedup{Input: CloneExpr(n.Input)}
	case *NullIf:
		return &NullIf{Input: CloneExpr(n.Input), Unless: n.Unless, NullTables: append([]string(nil), n.NullTables...)}
	case *Condense:
		return &Condense{Input: CloneExpr(n.Input), GroupKey: append([]ColRef(nil), n.GroupKey...)}
	case *Pad:
		return &Pad{Input: CloneExpr(n.Input), Tables_: append([]string(nil), n.Tables_...)}
	case *GroupBy:
		return &GroupBy{Input: CloneExpr(n.Input), GroupCols: append([]ColRef(nil), n.GroupCols...), Aggs: append([]Aggregate(nil), n.Aggs...)}
	default:
		panic(fmt.Sprintf("algebra: CloneExpr: unknown node %T", e))
	}
}

func cloneAll(in []Expr) []Expr {
	out := make([]Expr, len(in))
	for i, e := range in {
		out[i] = CloneExpr(e)
	}
	return out
}

// FormatTree renders an expression as an indented operator tree for tools
// and EXPLAIN-style output.
func FormatTree(e Expr) string {
	var b strings.Builder
	formatTree(&b, e, 0)
	return b.String()
}

func formatTree(b *strings.Builder, e Expr, depth int) {
	indent := strings.Repeat("  ", depth)
	switch n := e.(type) {
	case *TableRef, *DeltaRef, *OldTableRef, *RelRef:
		fmt.Fprintf(b, "%s%s\n", indent, e.String())
	case *Select:
		fmt.Fprintf(b, "%sσ[%s]\n", indent, n.Pred)
		formatTree(b, n.Input, depth+1)
	case *Project:
		parts := make([]string, len(n.Cols))
		for i, c := range n.Cols {
			parts[i] = c.String()
		}
		fmt.Fprintf(b, "%sπ[%s]\n", indent, strings.Join(parts, ","))
		formatTree(b, n.Input, depth+1)
	case *Join:
		fmt.Fprintf(b, "%s%s[%s]\n", indent, n.Kind, n.Pred)
		formatTree(b, n.Left, depth+1)
		formatTree(b, n.Right, depth+1)
	case *OuterUnion:
		fmt.Fprintf(b, "%souter-union\n", indent)
		for _, in := range n.Inputs {
			formatTree(b, in, depth+1)
		}
	case *MinUnion:
		fmt.Fprintf(b, "%smin-union\n", indent)
		for _, in := range n.Inputs {
			formatTree(b, in, depth+1)
		}
	case *RemoveSubsumed:
		fmt.Fprintf(b, "%s↓\n", indent)
		formatTree(b, n.Input, depth+1)
	case *Dedup:
		fmt.Fprintf(b, "%sδ\n", indent)
		formatTree(b, n.Input, depth+1)
	case *NullIf:
		fmt.Fprintf(b, "%sλ[null %s unless %s]\n", indent, strings.Join(n.NullTables, ","), n.Unless)
		formatTree(b, n.Input, depth+1)
	case *Condense:
		fmt.Fprintf(b, "%scondense\n", indent)
		formatTree(b, n.Input, depth+1)
	case *Pad:
		fmt.Fprintf(b, "%spad[%s]\n", indent, strings.Join(n.Tables_, ","))
		formatTree(b, n.Input, depth+1)
	case *GroupBy:
		fmt.Fprintf(b, "%s%s\n", indent, n.String()[:strings.Index(n.String(), "(")])
		formatTree(b, n.Input, depth+1)
	default:
		fmt.Fprintf(b, "%s%v\n", indent, e)
	}
}
