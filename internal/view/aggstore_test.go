package view

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"ojv/internal/algebra"
	"ojv/internal/rel"
)

// The aggregation-store model test: random signed fold batches run against
// an AggMaterialized and against a model that keeps every row folded in and
// recomputes every group from them. Batches carry NULL aggregate inputs and
// null-extended rows, repeat groups, drain a group to zero and start it
// again; a changeset stages any number of folds, at either fold site, before
// it commits or rolls back, and an armed failpoint or a delta that removes
// more rows than a group has poisons it. After every op the store's groups
// equal the model's, and every handle is live, free or unlinked by the open
// changeset exactly once; after every commit the published epoch equals the
// store slot for slot; after every rollback every group is back at its
// handle; and the last 64 published epochs, pinned, keep reading the state
// they were published with.

// aggPin is a pinned epoch and the model's groups when it was published.
type aggPin struct {
	snap *Snapshot
	want string
}

type aggOps struct {
	t      testing.TB
	m      *Maintainer
	a      *AggMaterialized
	schema rel.Schema
	// Positions in the fold's schema, A lo B: the group column A.g, B's key
	// (the witness of B's not-null count) and the aggregated B.v.
	ak, g, bk, afk, v int

	// live is every row folded in and not out again, staged ones included;
	// saved is live at the open changeset's Begin and handles the store's
	// handle of every group then.
	live    []rel.Row
	saved   []rel.Row
	handles map[string]int32
	cs      *Changeset
	folds   int // folds staged in the open changeset
	id      int64

	// failAt arms the fault hook: it fails its failAt-th consult since
	// arming, naming the site in fired.
	failAt, calls int
	fired         string

	pins    []aggPin
	commits int

	// What the stream exercised, for TestAggStoreModel to require.
	ops, repeats, drained, recreated, refused, multiFold, rollbacks int
	firedAt                                                         map[string]int
	gone                                                            map[string]bool
}

const aggGroups = 17 // group values 1–16, and the NULL group

func newAggOps(t testing.TB) *aggOps {
	t.Helper()
	s := &aggOps{t: t, firedAt: make(map[string]int), gone: make(map[string]bool)}
	cat := rel.NewCatalog()
	intCol := func(n string) rel.Column { return rel.Column{Name: n, Kind: rel.KindInt} }
	if _, err := cat.CreateTable("A", []rel.Column{intCol("ak"), intCol("g")}, "ak"); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateTable("B", []rel.Column{intCol("bk"), intCol("afk"), intCol("v")}, "bk"); err != nil {
		t.Fatal(err)
	}
	expr := &algebra.Join{Kind: algebra.LeftOuterJoin, Left: &algebra.TableRef{Name: "A"}, Right: &algebra.TableRef{Name: "B"},
		Pred: algebra.Eq("A", "ak", "B", "afk")}
	def, err := DefineAggregate(cat, "agg", expr, AggSpec{
		GroupCols: []algebra.ColRef{algebra.Col("A", "g")},
		Aggs: []algebra.Aggregate{
			{Func: algebra.AggCount, Name: "n"},
			{Func: algebra.AggCount, Col: algebra.Col("B", "v"), Name: "cv"},
			{Func: algebra.AggSum, Col: algebra.Col("B", "v"), Name: "sv"},
			{Func: algebra.AggAvg, Col: algebra.Col("B", "v"), Name: "av"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.m, err = NewMaintainer(def, Options{FailPoint: s.hook})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.m.Materialize(); err != nil {
		t.Fatal(err)
	}
	s.m.EnableSnapshots()
	s.a, s.schema = s.m.Aggregated(), def.FullSchema()
	s.ak, s.g = s.schema.IndexOf("A", "ak"), s.schema.IndexOf("A", "g")
	s.bk, s.afk, s.v = s.schema.IndexOf("B", "bk"), s.schema.IndexOf("B", "afk"), s.schema.IndexOf("B", "v")
	return s
}

func (s *aggOps) hook(site string) error {
	if s.failAt == 0 {
		return nil
	}
	if s.calls++; s.calls == s.failAt {
		s.fired = site
		return errors.New("injected at " + site)
	}
	return nil
}

// groupVal is the group value gb picks: 1–16, or NULL.
func groupVal(gb byte) rel.Value {
	if g := int64(gb % aggGroups); g > 0 {
		return rel.Int(g)
	}
	return rel.Null
}

// row is a fresh input row of group groupVal(gb); vb picks a null-extended
// B side, a NULL aggregate input or a value.
func (s *aggOps) row(gb, vb byte) rel.Row {
	s.id++
	r := make(rel.Row, len(s.schema))
	r[s.ak], r[s.g] = rel.Int(s.id), groupVal(gb)
	if vb%4 != 0 {
		r[s.bk], r[s.afk] = rel.Int(s.id), rel.Int(s.id)
		if vb%4 != 1 {
			r[s.v] = rel.Int(int64(vb>>2) - 20)
		}
	}
	return r
}

func groupOf(r rel.Row, g int) string { return rel.EncodeValues(r[g]) }

// model recomputes every group from live: its rendered row and its B
// not-null count.
func (s *aggOps) model() ([]rel.Row, map[string]int64) {
	type acc struct {
		key            rel.Value
		n, nn, cv, sum int64
	}
	groups := make(map[string]*acc)
	for _, r := range s.live {
		k := groupOf(r, s.g)
		a := groups[k]
		if a == nil {
			a = &acc{key: r[s.g]}
			groups[k] = a
		}
		a.n++
		if !r[s.bk].IsNull() {
			a.nn++
		}
		if v := r[s.v]; !v.IsNull() {
			a.cv++
			a.sum += v.AsInt()
		}
	}
	rows := make([]rel.Row, 0, len(groups))
	nn := make(map[string]int64, len(groups))
	for k, a := range groups {
		row := rel.Row{a.key, rel.Int(a.n), rel.Int(a.cv), rel.Null, rel.Null}
		if a.cv > 0 {
			row[3], row[4] = rel.Int(a.sum), rel.Float(float64(a.sum)/float64(a.cv))
		}
		rows = append(rows, row)
		nn[k] = a.nn
	}
	rel.SortRows(rows)
	return rows, nn
}

func (s *aggOps) begin() {
	if s.cs != nil {
		return
	}
	s.cs, s.folds = s.m.Begin(), 0
	s.saved = slices.Clone(s.live)
	s.handles = make(map[string]int32, len(s.a.rows))
	for k, h := range s.a.rows {
		s.handles[k] = h
	}
}

// stage folds batch into the open changeset at site. A failed fold poisons
// the changeset, which is rolled back, as maintenance does.
func (s *aggOps) stage(site string, batch []rel.Row, sign int64) error {
	if err := s.cs.foldGroups(site, batch, s.schema, sign); err != nil {
		s.rollback()
		return err
	}
	if s.folds++; s.folds == 2 {
		s.multiFold++
	}
	return nil
}

// takeLive removes live[i] from the model and returns it.
func (s *aggOps) takeLive(i int) rel.Row {
	r := s.live[i]
	s.live[i] = s.live[len(s.live)-1]
	s.live = s.live[:len(s.live)-1]
	return r
}

// takeGroup removes every live row of group groupVal(gb), in live order.
func (s *aggOps) takeGroup(gb byte) []rel.Row {
	k := rel.EncodeValues(groupVal(gb))
	var batch []rel.Row
	for i := 0; i < len(s.live); {
		if groupOf(s.live[i], s.g) == k {
			batch = append(batch, s.takeLive(i))
			continue
		}
		i++
	}
	return batch
}

func (s *aggOps) commit() {
	s.t.Helper()
	if s.cs == nil {
		return
	}
	s.m.CommitStaged(s.cs, &MaintStats{})
	s.cs, s.saved, s.handles = nil, nil, nil
	if used := int(s.a.slab.Used()); len(s.a.rows)+len(s.a.slab.Free()) != used {
		s.t.Fatalf("%d groups and %d free slots after a commit, %d handed out", len(s.a.rows), len(s.a.slab.Free()), used)
	}
	ep := s.m.members[0].current()
	for h := int32(0); h < s.a.slab.Used(); h++ {
		got, _ := ep.rows.Get(h)
		if want := s.a.slab.At(h).Row; !sameRow(got, want) {
			s.t.Fatalf("epoch %d holds %s at handle %d, the store %s", ep.seq, got, h, want)
		}
	}
	want, _ := s.model()
	s.pins = append(s.pins, aggPin{snap: s.m.Snapshot(), want: fingerprintRows(want)})
	if len(s.pins) > 64 {
		s.pins = s.pins[1:]
	}
	if s.commits++; s.commits%8 == 0 {
		s.checkPins()
	}
}

// checkPins re-reads every pinned epoch.
func (s *aggOps) checkPins() {
	s.t.Helper()
	for _, p := range s.pins {
		if got := fingerprintRows(p.snap.Rows()); got != p.want || p.snap.Len() != len(p.snap.Rows()) {
			s.t.Fatalf("pinned epoch %d reads\n%s\nwas published with\n%s", p.snap.Epoch(), got, p.want)
		}
	}
}

func (s *aggOps) rollback() {
	s.t.Helper()
	if s.cs == nil {
		return
	}
	before := s.m.Snapshot().Epoch()
	if err := s.m.RollbackStaged(s.cs); err != nil {
		s.t.Fatal(err)
	}
	s.rollbacks++
	s.live = s.saved
	if got := s.m.Snapshot().Epoch(); got != before {
		s.t.Fatalf("rollback published epoch %d over %d", got, before)
	}
	if len(s.a.rows) != len(s.handles) {
		s.t.Fatalf("%d groups after rollback, %d at Begin", len(s.a.rows), len(s.handles))
	}
	for k, h := range s.handles {
		if got, ok := s.a.rows[k]; !ok || got != h {
			s.t.Fatalf("group %x was at handle %d at Begin and is at %d (present=%v) after rollback", k, h, got, ok)
		}
	}
	s.cs, s.saved, s.handles = nil, nil, nil
}

// check holds the store against the model.
func (s *aggOps) check() {
	s.t.Helper()
	want, nn := s.model()
	if got := s.a.Rows(); fingerprintRows(got) != fingerprintRows(want) || s.a.Len() != len(want) {
		s.t.Fatalf("op %d: store has groups\n%s\nmodel\n%s", s.ops, fingerprintRows(got), fingerprintRows(want))
	}
	for _, w := range want {
		if got, ok := s.a.NotNullCount(rel.Row{w[0]}, "B"); !ok || got != nn[rel.EncodeValues(w[0])] {
			s.t.Fatalf("group %s: B not-null count %d (%v), model %d", w[0], got, ok, nn[rel.EncodeValues(w[0])])
		}
	}
	dead := 0
	if s.cs != nil {
		for _, r := range s.cs.rows {
			if r.kind == undoViewDelete {
				dead++
			}
		}
	}
	if used := int(s.a.slab.Used()); len(s.a.rows)+len(s.a.slab.Free())+dead != used {
		s.t.Fatalf("%d groups, %d free and %d unlinked slots, %d handed out", len(s.a.rows), len(s.a.slab.Free()), dead, used)
	}
}

// run consumes the stream: an opcode byte, then the op's bytes.
func (s *aggOps) run(data []byte) {
	s.t.Helper()
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	site := func() string {
		if next()%2 == 0 {
			return "agg-primary-fold"
		}
		return "agg-secondary-fold"
	}
	// batch builds a signed batch and takes it into the model: fresh rows,
	// or rows drawn from live.
	batch := func(sign int64) []rel.Row {
		var rows []rel.Row
		seen := make(map[string]bool)
		for n := 1 + int(next()%8); n > 0; n-- {
			var r rel.Row
			switch {
			case sign > 0:
				r = s.row(next(), next())
				s.live = append(s.live, r)
			case len(s.live) > 0:
				r = s.takeLive(int(next()) % len(s.live))
			default:
				return rows
			}
			k := groupOf(r, s.g)
			if seen[k] {
				s.repeats++
			}
			seen[k] = true
			if _, stored := s.a.rows[k]; sign > 0 && s.gone[k] && !stored {
				s.recreated++
			}
			delete(s.gone, k)
			rows = append(rows, r)
		}
		return rows
	}
	for len(data) > 0 {
		s.ops++
		switch op := next() % 16; {
		case op < 8: // a batch in (0–5) or out (6–7)
			sign := int64(1)
			if op >= 6 {
				sign = -1
			}
			s.begin()
			if rows := batch(sign); len(rows) > 0 {
				if err := s.stage(site(), rows, sign); err != nil {
					s.t.Fatalf("op %d: fold of %d rows: %v", s.ops, len(rows), err)
				}
			}
		case op == 8: // drain a group to zero
			s.begin()
			gb := next()
			if rows := s.takeGroup(gb); len(rows) > 0 {
				if err := s.stage(site(), rows, -1); err != nil {
					s.t.Fatalf("op %d: drain of %d rows: %v", s.ops, len(rows), err)
				}
				s.drained++
				s.gone[groupOf(rows[0], s.g)] = true
			}
		case op == 9: // remove one row more than a group has
			s.begin()
			gb := next()
			rows := s.takeGroup(gb)
			rows = slices.Insert(rows, int(next())%(len(rows)+1), s.row(gb, next()))
			if err := s.stage(site(), rows, -1); err == nil {
				s.t.Fatalf("op %d: a fold removing %d rows from a group of %d succeeded", s.ops, len(rows), len(rows)-1)
			}
			s.refused++
		case op == 10: // a batch under an armed failpoint
			s.begin()
			s.failAt, s.calls, s.fired = 1+int(next()%8), 0, ""
			sign := int64(1 - 2*int(next()%2))
			if rows := batch(sign); len(rows) > 0 {
				err := s.stage(site(), rows, sign)
				if (err != nil) != (s.fired != "") {
					s.t.Fatalf("op %d: fault fired at %q, fold returned %v", s.ops, s.fired, err)
				}
				if s.fired != "" {
					s.firedAt[s.fired]++
				}
			}
			s.failAt = 0
		case op < 14:
			s.commit()
		default:
			s.rollback()
		}
		s.check()
	}
	s.commit()
	s.check()
	s.checkPins()
}

// TestAggStoreModel is the ≥ 40 k-op random run.
func TestAggStoreModel(t *testing.T) {
	n := 40_000
	if testing.Short() {
		n /= 10
	}
	data := make([]byte, 8*n)
	rand.New(rand.NewSource(28)).Read(data)
	s := newAggOps(t)
	s.run(data)
	if s.ops < n {
		t.Fatalf("ran %d ops, want at least %d", s.ops, n)
	}
	for what, got := range map[string]int{
		"a group repeated within a batch":    s.repeats,
		"a group drained to zero":            s.drained,
		"a drained group started again":      s.recreated,
		"a fold refused":                     s.refused,
		"two folds in one changeset":         s.multiFold,
		"a rollback":                         s.rollbacks,
		"a fault at the primary fold site":   s.firedAt["agg-primary-fold"],
		"a fault at the secondary fold site": s.firedAt["agg-secondary-fold"],
	} {
		if got == 0 {
			t.Errorf("the stream never exercised %s", what)
		}
	}
	t.Logf("%d ops: %d repeats, %d drains, %d re-created, %d refused, %d multi-fold changesets, %d rollbacks, faults %v",
		s.ops, s.repeats, s.drained, s.recreated, s.refused, s.multiFold, s.rollbacks, s.firedAt)
}

// FuzzAggStore runs fuzzer-chosen op-streams through the same interpreter.
func FuzzAggStore(f *testing.F) {
	f.Add([]byte{0, 0, 3, 1, 5, 11, 8, 1, 0, 11})
	f.Add([]byte{0, 1, 2, 1, 5, 1, 9, 6, 0, 0, 0, 14, 11})
	f.Add([]byte{0, 0, 4, 2, 6, 2, 7, 2, 9, 2, 10, 2, 1, 0, 1, 2, 3, 4, 12})
	f.Add([]byte{3, 1, 1, 4, 0, 4, 1, 4, 2, 11, 9, 4, 0, 1, 13, 8, 4, 0, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		newAggOps(t).run(data)
	})
}
