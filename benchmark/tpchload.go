package main

import (
	"fmt"
	"math/rand"
	"sort"

	"ojv"
	"ojv/internal/rel"
	"ojv/internal/tpch"
)

// The three TPC-H workloads share one database shape — customer, orders,
// lineitem, part at one scale factor with the paper's view V3 over them — so
// that a change shows up as a difference between how the same data is
// written, not between data sets.

var tpchTables = []string{"customer", "orders", "lineitem", "part"}

// streamParams shapes the 1-row statement stream of stmt-sync and
// group-commit.
type streamParams struct {
	// statements is the cycle length before the closing drain.
	statements int
	// lag is how many inserted lineitems stay live before the oldest is
	// deleted again (FIFO).
	lag int
	// flushEvery inserts a Flush after that many statements; 0 means the
	// stream is for the synchronous path.
	flushEvery int
	// sameBatchDelete is the share of inserts that are deleted again by the
	// very next statement, so a batch has pairs to coalesce away.
	sameBatchDelete float64
}

// tpchGen carries what the TPC-H statement generators draw from.
type tpchGen struct {
	tdb *tpch.DB
	rng *rand.Rand
}

func lineitemKey(r rel.Row) []rel.Value { return []rel.Value{r[0], r[1]} }

// keysOf projects the key of every row.
func keysOf(rows []rel.Row, key func(rel.Row) []rel.Value) [][]rel.Value {
	out := make([][]rel.Value, len(rows))
	for i, r := range rows {
		out[i] = key(r)
	}
	return out
}

func firstCol(r rel.Row) []rel.Value { return []rel.Value{r[0]} }

// newOrders fabricates n orders with fresh keys. custkey picks the customer
// of order i; every other order is dated inside V3's selection so the view
// sees it.
func (g *tpchGen) newOrders(n int, custkey func(i int) rel.Value) []rel.Row {
	base := int64(g.tdb.Catalog.Table("orders").Len()*10 + 1000000)
	lo, hi := tpch.V3DateLo.AsInt(), tpch.V3DateHi.AsInt()
	rows := make([]rel.Row, n)
	for i := range rows {
		date := lo + g.rng.Int63n(hi-lo+1)
		if i%2 == 1 {
			date = hi + 1 + g.rng.Int63n(365)
		}
		rows[i] = rel.Row{
			rel.Int(base + int64(i)),
			custkey(i),
			rel.Date(date),
			rel.Str(fmt.Sprintf("Clerk#%06d", g.rng.Intn(1000))),
			rel.Str("O"),
		}
	}
	return rows
}

// stream builds the 1-row statement cycle: 45 % lineitem inserts, 45 %
// deletes of the oldest live inserted row, 10 % updates (each update is
// reverted by the next one), and every 50th statement an insert or delete on
// customer, part or orders. The closing drain reverts the pending update and
// deletes whatever is still live, so the cycle restores the database.
func (g *tpchGen) stream(p streamParams) []op {
	li := g.tdb.Catalog.Table("lineitem")
	fresh := g.tdb.NewLineitems(p.statements)
	targets := g.tdb.SampleLineitemKeys(p.statements/10 + 1)
	custs := g.tdb.NewCustomers(p.statements/100 + 1)
	parts := g.tdb.NewParts(p.statements/100 + 1)
	nCust := g.tdb.Catalog.Table("customer").Len()
	ords := g.newOrders(p.statements/100+1, func(int) rel.Value {
		return rel.Int(1 + g.rng.Int63n(int64(nCust)))
	})

	var ops []op
	statements := 0
	emit := func(o op) {
		ops = append(ops, o)
		statements++
		if p.flushEvery > 0 && statements%p.flushEvery == 0 {
			ops = append(ops, op{kind: opFlush})
		}
	}
	insert := func(table string, r rel.Row) { emit(op{kind: opInsert, table: table, rows: []rel.Row{r}}) }
	del := func(table string, key []rel.Value) {
		emit(op{kind: opDelete, table: table, keys: [][]rel.Value{key}})
	}

	var live []rel.Row // inserted lineitems not yet deleted, oldest first
	var revert *op     // the update that undoes the pending one
	nextFresh, nextTarget := 0, 0

	// side rotates through the other three tables: a customer, a part and an
	// order are inserted by three consecutive side statements and deleted, in
	// reverse, by the next three.
	type sideRow struct {
		table string
		row   rel.Row
	}
	var sideLive []sideRow
	popSide := func() {
		s := sideLive[len(sideLive)-1]
		sideLive = sideLive[:len(sideLive)-1]
		del(s.table, firstCol(s.row))
	}
	sideStep := 0
	side := func() {
		i, phase := sideStep/6, sideStep%6
		sideStep++
		if phase >= 3 {
			popSide()
			return
		}
		s := []sideRow{{"customer", custs[i]}, {"part", parts[i]}, {"orders", ords[i]}}[phase]
		sideLive = append(sideLive, s)
		insert(s.table, s.row)
	}

	for statements < p.statements {
		if statements%50 == 49 {
			side()
			continue
		}
		r := g.rng.Float64()
		switch {
		case r < 0.10:
			if revert != nil {
				emit(*revert)
				revert = nil
				break
			}
			old, _ := li.Get(targets[nextTarget]...)
			nextTarget++
			changed := append(rel.Row(nil), old...)
			changed[3] = rel.Int(old[3].AsInt() + 1)
			emit(op{kind: opUpdate, table: "lineitem", key: lineitemKey(old), row: changed})
			revert = &op{kind: opUpdate, table: "lineitem", key: lineitemKey(old), row: old}
		case r < 0.55 || len(live) <= p.lag:
			row := fresh[nextFresh]
			nextFresh++
			insert("lineitem", row)
			if g.rng.Float64() < p.sameBatchDelete {
				del("lineitem", lineitemKey(row))
			} else {
				live = append(live, row)
			}
		default:
			del("lineitem", lineitemKey(live[0]))
			live = live[1:]
		}
	}
	if revert != nil {
		emit(*revert)
	}
	for len(sideLive) > 0 {
		popSide()
	}
	for _, row := range live {
		del("lineitem", lineitemKey(row))
	}
	if p.flushEvery > 0 && ops[len(ops)-1].kind != opFlush {
		ops = append(ops, op{kind: opFlush})
	}
	return ops
}

// bulk builds the large-delta cycle of synchronous statements of up to delta
// rows each: the paper's Figure 5 insert and delete of whole held-out order
// line-sets (twice, with different sets), a parents-first cascade of new
// customers, their orders and those orders' lineitems with its
// children-first removal, and the delete and re-insert of every lineitem of
// the most-referenced parts, which orphans many view rows at once.
func (g *tpchGen) bulk(heldOut []rel.Row, delta int) []op {
	var ops []op
	ins := func(table string, rows []rel.Row) {
		ops = append(ops, op{kind: opInsert, table: table, rows: rows})
	}
	del := func(table string, rows []rel.Row, key func(rel.Row) []rel.Value) {
		ops = append(ops, op{kind: opDelete, table: table, keys: keysOf(rows, key)})
	}

	for lo := 0; lo < len(heldOut); lo += delta {
		set := heldOut[lo:min(lo+delta, len(heldOut))]
		ins("lineitem", set)
		del("lineitem", set, lineitemKey)
	}

	custs := g.tdb.NewCustomers(delta)
	ords := g.newOrders(delta, func(i int) rel.Value { return custs[i][0] })
	nParts := g.tdb.Catalog.Table("part").Len()
	items := make([]rel.Row, delta)
	for i := range items {
		qty := 1 + g.rng.Int63n(50)
		items[i] = rel.Row{
			ords[i][0],
			rel.Int(1),
			rel.Int(1 + g.rng.Int63n(int64(nParts))),
			rel.Int(qty),
			rel.Float(float64(qty) * (900 + float64(g.rng.Intn(120000))/100)),
			ords[i][2],
			rel.Str("N"),
		}
	}
	ins("customer", custs)
	ins("orders", ords)
	ins("lineitem", items)
	del("lineitem", items, lineitemKey)
	del("orders", ords, firstCol)
	del("customer", custs, firstCol)

	hot := g.hotPartLineitems(8)
	del("lineitem", hot, lineitemKey)
	ins("lineitem", hot)
	return ops
}

// hotPartLineitems returns every lineitem of the n parts most lineitems
// reference, in key order.
func (g *tpchGen) hotPartLineitems(n int) []rel.Row {
	rows := g.tdb.Catalog.Table("lineitem").Rows()
	refs := make(map[int64]int)
	for _, r := range rows {
		refs[r[2].AsInt()]++
	}
	parts := make([]int64, 0, len(refs))
	for p := range refs {
		parts = append(parts, p)
	}
	sort.Slice(parts, func(i, j int) bool {
		if refs[parts[i]] != refs[parts[j]] {
			return refs[parts[i]] > refs[parts[j]]
		}
		return parts[i] < parts[j]
	})
	hot := make(map[int64]bool, n)
	for _, p := range parts[:min(n, len(parts))] {
		hot[p] = true
	}
	var out []rel.Row
	for _, r := range rows {
		if hot[r[2].AsInt()] {
			out = append(out, r)
		}
	}
	rel.SortRows(out)
	return out
}

// setupTPCH generates the database, builds the cycle of the named workload
// and materialises V3.
func setupTPCH(name string, seed int64, sc scale, obsOpts obsOptions) (*instance, error) {
	tdb, err := tpch.Generate(tpch.Config{ScaleFactor: sc.sf, Seed: seed})
	if err != nil {
		return nil, err
	}
	g := &tpchGen{tdb: tdb, rng: rand.New(rand.NewSource(seed ^ 0x5eed0b5))}
	in := &instance{tables: tpchTables, probeTable: "lineitem"}
	switch name {
	case "stmt-sync":
		in.cycle = g.stream(streamParams{statements: sc.syncStatements, lag: sc.syncStatements / 3})
	case "group-commit":
		in.cycle = g.stream(streamParams{
			statements:      4 * sc.flushEvery,
			lag:             sc.flushEvery * 3 / 2,
			flushEvery:      sc.flushEvery,
			sameBatchDelete: 0.05,
		})
	case "bulk-delta":
		heldOut, err := tdb.HoldOutLineitems(2 * sc.delta)
		if err != nil {
			return nil, err
		}
		in.cycle = g.bulk(heldOut, sc.delta)
	default:
		return nil, fmt.Errorf("bench: %s is not a TPC-H workload", name)
	}
	in.probeRows = tdb.NewLineitems(sc.delta)

	in.db = ojv.WrapCatalog(tdb.Catalog)
	err = in.createViews(obsOpts, func(opts ojv.Options) error {
		v, err := in.db.CreateView("V3", ojv.ExprRel(tpch.V3Expr()), tpch.V3Output(), opts)
		in.views = append(in.views, v)
		return err
	})
	if err != nil {
		return nil, err
	}
	in.checkViews = in.views
	in.w = in.db
	if name == "group-commit" {
		in.batch = in.db.NewWriteBatch(ojv.BatchOptions{Tracer: obsOpts.tracer, Metrics: obsOpts.metrics})
		in.w = in.batch
	}
	return in, nil
}
