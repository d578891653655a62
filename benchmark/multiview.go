package main

import (
	"fmt"
	"math/rand"

	"ojv"
	"ojv/internal/algebra"
	"ojv/internal/rel"
)

// The multi-view workload is the many-views regime: two disjoint groups of
// three small tables, 32 views per group (24 that differ only in a selection
// on the first table, so their maintenance subtrees for the other two tables
// are shared, and 8 with a private selection on every leaf, so nothing is
// shared), all maintained by one WriteBatch whose flush splits into one
// component per group and runs them on two workers. The tables are smaller
// than the epoch layer's compaction threshold on purpose: the code that
// dominates stmt-sync is nearly idle here.

const (
	mvGroups        = 2
	mvViewsPerGroup = 32
	mvSharedPrefix  = 24
)

func mvTables(g int) [3]string {
	return [3]string{fmt.Sprintf("g%da", g), fmt.Sprintf("g%db", g), fmt.Sprintf("g%dc", g)}
}

func setupMultiView(seed int64, sc scale, obsOpts obsOptions) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &instance{db: ojv.NewDatabase()}
	// Join attributes span the table, so a row meets a handful of partners
	// instead of a quadratic blow-up on a tiny domain.
	newRow := func(key int) rel.Row {
		return rel.Row{rel.Int(int64(key)), rel.Int(rng.Int63n(int64(sc.mvRows))), rel.Int(rng.Int63n(100))}
	}
	for g := 0; g < mvGroups; g++ {
		for _, t := range mvTables(g) {
			in.tables = append(in.tables, t)
			err := in.db.CreateTable(t, []rel.Column{
				{Name: t + "k", Kind: rel.KindInt},
				{Name: t + "j", Kind: rel.KindInt},
				{Name: t + "v", Kind: rel.KindInt},
			}, t+"k")
			if err != nil {
				return nil, err
			}
			rows := make([]rel.Row, sc.mvRows)
			for i := range rows {
				rows[i] = newRow(i)
			}
			if err := in.db.Insert(t, rows); err != nil {
				return nil, err
			}
		}
	}

	// The cycle stages mvInserts 1-row inserts per table and flushes, then
	// deletes the same rows and flushes.
	var inserts, deletes []op
	for _, t := range in.tables {
		for i := 0; i < sc.mvInserts; i++ {
			row := newRow(sc.mvRows + i)
			inserts = append(inserts, op{kind: opInsert, table: t, rows: []rel.Row{row}})
			deletes = append(deletes, op{kind: opDelete, table: t, keys: [][]rel.Value{{row[0]}}})
		}
	}
	in.cycle = append(in.cycle, inserts...)
	in.cycle = append(in.cycle, op{kind: opFlush})
	in.cycle = append(in.cycle, deletes...)
	in.cycle = append(in.cycle, op{kind: opFlush})

	in.probeTable = in.tables[0]
	for i := 0; i < sc.mvInserts; i++ {
		in.probeRows = append(in.probeRows, newRow(2*sc.mvRows+i))
	}

	err := in.createViews(obsOpts, func(opts ojv.Options) error {
		for g := 0; g < mvGroups; g++ {
			t := mvTables(g)
			leaf := func(name string, i int, private bool) ojv.Rel {
				r := ojv.Table(name)
				if private {
					r = r.Where(ojv.Cmp(name, name+"v", algebra.OpLt, ojv.Int(int64(50+i))))
				}
				return r
			}
			var cols []string
			for _, name := range t {
				cols = append(cols, name+"."+name+"k", name+"."+name+"j", name+"."+name+"v")
			}
			for i := 0; i < mvViewsPerGroup; i++ {
				private := i >= mvSharedPrefix
				expr := leaf(t[0], i, true).LeftJoin(
					leaf(t[1], i, private).FullJoin(leaf(t[2], i, private),
						ojv.Eq(t[1], t[1]+"j", t[2], t[2]+"j")),
					ojv.Eq(t[0], t[0]+"j", t[1], t[1]+"j"))
				v, err := in.db.CreateView(fmt.Sprintf("g%dv%d", g, i), expr, ojv.Columns(cols...), opts)
				if err != nil {
					return err
				}
				in.views = append(in.views, v)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The recompute oracle runs on a sample: the first two and last two
	// views of each group cover both shapes.
	for g := 0; g < mvGroups; g++ {
		vs := in.views[g*mvViewsPerGroup : (g+1)*mvViewsPerGroup]
		in.checkViews = append(in.checkViews, vs[0], vs[1], vs[len(vs)-2], vs[len(vs)-1])
	}
	in.batch = in.db.NewWriteBatch(ojv.BatchOptions{
		MaintWorkers: 2,
		Tracer:       obsOpts.tracer,
		Metrics:      obsOpts.metrics,
	})
	in.w = in.batch
	return in, nil
}
