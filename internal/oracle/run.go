package oracle

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ojv"
	"ojv/internal/algebra"
	"ojv/internal/fixture"
	"ojv/internal/rel"
)

// flushFaultSites is the canonical list of failpoint site names the flush
// path may consult (see the site table on view.Changeset). The failsite
// analyzer checks it against the sites actually consulted in the view
// package and against atomic_test.go's wantSites matrices, so a new staged
// mutation cannot ship without appearing here — and the runtime guard in
// faultArm.hit rejects any site name the maintenance path invents without
// declaring it.
var flushFaultSites = []string{
	"primary-insert",
	"primary-delete",
	"secondary-orphan-delete",
	"secondary-orphan-insert",
	"frombase-orphan-delete",
	"frombase-orphan-insert",
	"agg-primary-fold",
	"agg-secondary-fold",
}

// knownFaultSite reports whether site is declared in flushFaultSites.
func knownFaultSite(site string) bool { return slices.Contains(flushFaultSites, site) }

// faultArm is every view's Options.FailPoint, through a closure naming the
// view. It counts the sites one commit consults, fails the failAt-th — by
// returning an error, or with panics set by panicking with it — and records
// the view it failed; concurrent components share it.
type faultArm struct {
	mu        sync.Mutex
	n, failAt int
	panics    bool
	failed    string
}

func (f *faultArm) hit(view, site string) error {
	if !knownFaultSite(site) {
		return fmt.Errorf("oracle: flush consulted undeclared failpoint site %q — add it to flushFaultSites", site)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n++; f.n == f.failAt {
		f.failed = view
		err := fmt.Errorf("oracle: injected fault in view %s at %s (site %d)", view, site, f.n)
		if f.panics {
			panic(err)
		}
		return err
	}
	return nil
}

// arm starts counting afresh, failing the failAt-th site (0: none) as a
// panic when panics is set, and returns what the previous arming counted
// and the view it failed, if any.
func (f *faultArm) arm(failAt int, panics bool) (sites int, failed string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sites, failed = f.n, f.failed
	f.n, f.failAt, f.panics, f.failed = 0, failAt, panics, ""
	return sites, failed
}

// maxViews caps the live views of a run; CreateView past it is skipped.
const maxViews = 16

// Run executes a script against a fresh database, through the ojv facade
// only, and returns the first divergence from the model.
func Run(s Script) error {
	_, err := run(s)
	return err
}

// stats is what one run saw, for the tests' coverage assertions.
type stats struct {
	shapes map[string]int // adversarial shapes drawn or accepted
	sites  int            // sites the last count-only Fault op's commit consulted
}

type liveView struct {
	v        *ojv.View
	def      viewDef
	strategy ojv.Strategy
}

// siblings reports whether another live view shares lv's family: its store
// and maintainer.
func (r *runner) siblings(lv liveView) bool {
	return slices.ContainsFunc(r.views, func(o liveView) bool {
		return o.v != lv.v && o.v.Maintainer() == lv.v.Maintainer()
	})
}

type runner struct {
	db     *ojv.Database
	m      *model
	wb     *ojv.WriteBatch
	views  []liveView
	nviews int
	arm    faultArm
	fault  int    // the pending Fault op's site, -1 for none
	panics bool   // the pending Fault op fires as a panic
	fired  string // the view the last observed commit's fault fired in, or ""
	tr     *ojv.Tracer
	reg    *ojv.Metrics
	saved  *saved
	// cs are the tables and live views; committed maps each one to the
	// hash of every epoch it published, as read back after the commit.
	cs        []container
	committed map[string]map[uint64]uint64
	readers   *readers
	st        stats
	rng       *rand.Rand // samples the keys check reads snapshots by
	readFlush bool       // BatchRows flushes the open batch before it reads
}

func run(s Script) (stats, error) {
	cat, err := fixture.RandFKCatalog(rand.New(rand.NewSource(int64(s.Seed))), s.Tables, s.Rows)
	if err != nil {
		return stats{}, err
	}
	r := &runner{db: ojv.WrapCatalog(cat), fault: -1, tr: ojv.NewTracer(), reg: ojv.NewMetrics(),
		committed: map[string]map[uint64]uint64{}, st: stats{shapes: map[string]int{}}, rng: rand.New(rand.NewSource(int64(s.Seed)))}
	r.m = newModel(s.Tables, func(name string) []rel.Row { return r.db.TableSnapshot(name).Rows() })
	for _, t := range s.Tables {
		r.st.shapes[[fixture.NumDists]string{"uniform", "zipf", "hot", "all-null"}[t.Dist]]++
	}
	r.watch()
	r.readers = startReaders(s.Readers, r.cs)
	err = r.check()
	for i, op := range append(s.Ops[:len(s.Ops):len(s.Ops)], Op{Kind: Close}) {
		if err != nil {
			break
		}
		if err = r.do(i, op); err != nil {
			err = fmt.Errorf("op %d (%v): %w", i, op, err)
		}
	}
	if rerr := r.readers.stop(r.committed); err == nil {
		err = rerr
	}
	return r.st, err
}

func (r *runner) do(i int, op Op) error {
	switch op.Kind {
	case Insert, Delete, Update, Truncate, OrphanAll, Churn, Reparent:
		return r.statement(op)
	case OpenBatch:
		if r.wb == nil {
			r.readFlush = op.N&16 != 0
			r.wb = r.db.NewWriteBatch(ojv.BatchOptions{MaintWorkers: int(op.N & 15), Tracer: r.tr, Metrics: r.reg})
			r.m.batch = newBatch()
		}
	case Flush, Close:
		call := (*ojv.WriteBatch).Flush
		if op.Kind == Close {
			call = (*ojv.WriteBatch).Close
		}
		return r.flush(call, op.Kind == Close)
	case Discard:
		if r.wb != nil {
			r.wb.Discard()
			r.m.batch = newBatch()
		}
	case CreateView:
		return r.createView(op)
	case DropView:
		if len(r.views) == 0 {
			return nil
		}
		i := int(op.N) % len(r.views)
		if r.siblings(r.views[i]) {
			r.st.shapes["family-drop"]++
		}
		if !r.db.DropView(r.views[i].v.Name()) {
			return fmt.Errorf("DropView %s found no view", r.views[i].v.Name())
		}
		r.views = append(r.views[:i], r.views[i+1:]...)
		r.watch()
		return r.check()
	case CreateIndex:
		t := r.m.tables[int(op.T)%len(r.m.tables)]
		col := [4]string{"j", "v", "f", "j"}[op.N%4]
		cols := []string{t.Name + col}
		if op.N%4 == 3 || col == "f" && t.parent == nil {
			cols = []string{t.Name + "j", t.Name + "v"} // two columns, or a table without f
		}
		if err := r.db.CreateIndex(t.Name, fmt.Sprintf("ix%d", i), cols...); err != nil {
			return err
		}
		return r.check()
	case AddForeignKey:
		undeclared := slices.DeleteFunc(slices.Clone(r.m.tables), func(t *mtable) bool { return t.parent == nil || t.FK })
		if len(undeclared) == 0 {
			return nil
		}
		t := undeclared[int(op.T)%len(undeclared)]
		want := true
		for _, row := range t.rows {
			want = want && t.parent.rows[row[3].AsInt()] != nil
		}
		err := r.db.AddForeignKey(t.Name, []string{t.Name + "f"}, t.Parent, []string{t.Parent + "k"})
		if (err == nil) != want {
			return fmt.Errorf("AddForeignKey %s: %v; the model expects success %v", t.Name, err, want)
		}
		if t.FK = want; want {
			r.st.shapes["add-foreign-key"]++
		}
		return r.check()
	case Save:
		var buf bytes.Buffer
		if err := r.db.Save(&buf); err != nil {
			return err
		}
		r.saved = r.m.save(buf.Bytes())
	case Load:
		if r.saved == nil {
			return nil
		}
		// The facade refuses a load while views are registered.
		if err := r.db.LoadCatalog(bytes.NewReader(r.saved.data)); (err == nil) != (len(r.views) == 0) {
			return fmt.Errorf("LoadCatalog with %d views registered: %v", len(r.views), err)
		}
		if len(r.views) == 0 {
			if r.m.batch != nil && r.m.batch.statements > 0 {
				r.st.shapes["load-under-batch"]++
			}
			r.m.load(r.saved)
		}
		return r.check()
	case Fault:
		r.fault, r.panics = int(op.Seed), op.N&1 != 0
	case Round:
		return r.round(op)
	case Query:
		return r.query(op)
	case BatchRows:
		return r.batchRows(op)
	}
	return nil
}

// statement runs a statement op: staged into the open batch, or
// synchronously with the checks that follow every commit.
func (r *runner) statement(op Op) error {
	tables := r.m.tables
	if op.Kind == Reparent { // a child table
		if tables = slices.DeleteFunc(slices.Clone(tables), func(t *mtable) bool { return t.parent == nil }); len(tables) == 0 {
			return nil
		}
	}
	t := tables[int(op.T)%len(tables)]
	staged := r.wb != nil && op.N&syncBit == 0
	sts := r.m.resolve(op, t, staged, rand.New(rand.NewSource(int64(op.Seed))))
	accepted := len(sts) > 0
	for _, st := range sts {
		ok, err := r.exec(st, staged)
		if err != nil {
			return fmt.Errorf("%v %s rows %v keys %v: %w", st.kind, st.t.Name, st.rows, st.keys, err)
		}
		accepted = accepted && ok
	}
	if accepted && (op.Kind != Churn && op.Kind != Reparent || staged) {
		r.st.shapes[op.Kind.String()]++
	}
	return nil
}

// exec runs one statement and reports whether the database accepted it.
func (r *runner) exec(st stmt, staged bool) (bool, error) {
	if staged {
		want, wantErr := r.m.stage(st)
		got, err := r.call(st, true)
		return err == nil, cmp.Or(agree(want, wantErr, got, err), r.readStaged(st))
	}
	wantErr := r.m.check(st, false)
	var got []rel.Row
	err, bad := r.observe(func() (err error) {
		got, err = r.call(st, false)
		return err
	})
	switch {
	case bad != nil:
	case r.fired != "" && err == nil:
		bad = fmt.Errorf("accepted although its injected fault fired")
	case r.fired != "": // the injected failure changed nothing, and neither does the model
	case err == nil && wantErr == nil:
		bad = agree(r.m.apply(st, false), nil, got, nil)
	default:
		bad = agree(nil, wantErr, got, err)
	}
	if bad != nil {
		return false, bad
	}
	return err == nil, r.check()
}

// call runs one statement through the database, or stages it into the
// open batch.
func (r *runner) call(st stmt, staged bool) ([]rel.Row, error) {
	ins, del, upd := r.db.Insert, r.db.Delete, r.db.Update
	if staged {
		ins, del, upd = r.wb.Insert, r.wb.Delete, r.wb.Update
	}
	keys := make([][]rel.Value, len(st.keys))
	for i, k := range st.keys {
		keys[i] = []rel.Value{rel.Int(k)}
	}
	switch st.kind {
	case Insert:
		return nil, ins(st.t.Name, st.rows)
	case Delete:
		return del(st.t.Name, keys)
	}
	return nil, upd(st.t.Name, keys[0], st.rows[0])
}

// readStaged reads every key a staged statement named back through the
// batch: WriteBatch.Get must answer with the model's overlay of the batch's
// entries on the committed rows, accepted or not (read-your-writes).
func (r *runner) readStaged(st stmt) error {
	keys := slices.Clone(st.keys)
	for _, row := range st.rows {
		keys = append(keys, row[0].AsInt())
	}
	for _, k := range keys {
		want := r.m.get(st.t, k, true)
		got, ok, err := r.wb.Get(st.t.Name, []rel.Value{rel.Int(k)})
		if err != nil || ok != (want != nil) || ok && !got.Equal(want) {
			return fmt.Errorf("WriteBatch.Get(%s, %d) = %v, %v, %v; the model's overlay has %v", st.t.Name, k, got, ok, err, want)
		}
	}
	return nil
}

// agree compares the database's answer to a statement with the model's:
// the same acceptance and, for a delete, the same rows in the same order.
func agree(want []rel.Row, wantErr error, got []rel.Row, err error) error {
	switch {
	case err == nil && wantErr != nil:
		return fmt.Errorf("accepted; the model rejects it: %v", wantErr)
	case err != nil && wantErr == nil:
		return fmt.Errorf("rejected: %v; the model accepts it", err)
	case err == nil && !slices.EqualFunc(got, want, rel.Row.Equal):
		return fmt.Errorf("returned rows %v, the model %v", got, want)
	}
	return nil
}

// observe runs one committing call with the pending Fault op armed. Every
// span tree must validate and, when the call succeeded, the registry must
// move by exactly the LastStats of the view families it committed — each
// family once, however many of its views are live — with one
// changeset.commit root each. A fault armed as a panic must come back as a
// *ojv.PanicError that carries its stack. callErr is the call's own error,
// err a broken identity.
func (r *runner) observe(call func() error) (callErr, err error) {
	before := r.reg.Snapshot()
	last := make([]*ojv.MaintStats, len(r.views))
	for i, lv := range r.views {
		last[i] = lv.v.LastStats
	}
	r.tr.Reset()
	r.arm.arm(max(r.fault, 0), r.panics)
	callErr = call()
	sites, fired := r.arm.arm(0, false)
	if r.fault == 0 {
		r.st.sites = sites
	}
	panics := r.panics
	if r.fired, r.fault, r.panics = fired, -1, false; fired != "" {
		r.st.shapes["fault"]++
	}
	if fired != "" && panics {
		var pe *ojv.PanicError
		if !errors.As(callErr, &pe) || len(pe.Stack) == 0 {
			return callErr, fmt.Errorf("a fault fired as a panic in view %s, but the call returned %v, not a *PanicError with a stack", fired, callErr)
		}
		r.st.shapes["panic-fault"]++
	}
	want := map[string]int64{}
	for _, root := range r.tr.Roots() {
		if err := root.Validate(); err != nil {
			return callErr, fmt.Errorf("trace: %w", err)
		}
		if root.Name() == "changeset.commit" {
			want["changeset.commit"]++
		}
	}
	if callErr != nil {
		return callErr, nil // an aborted run publishes what it counted so far
	}
	after := r.reg.Snapshot()
	d := func(name string) int64 { return after[name] - before[name] }
	// The views of one family share its run, and its LastStats: count each
	// committed family once.
	counted := map[*ojv.MaintStats]bool{}
	for i, lv := range r.views {
		if s := lv.v.LastStats; s != last[i] && !counted[s] {
			counted[s] = true
			want["view.commits"]++
			want["view.rows.primary"] += int64(s.PrimaryRows)
			want["view.rows.secondary"] += int64(s.SecondaryRows)
			want["view.undo.records"] += int64(s.UndoRecords)
		}
	}
	for _, name := range []string{"view.commits", "view.rows.primary", "view.rows.secondary", "view.undo.records"} {
		if d(name) != want[name] {
			return nil, fmt.Errorf("metric %s moved by %d, LastStats say %d", name, d(name), want[name])
		}
	}
	if want["changeset.commit"] != want["view.commits"] {
		return nil, fmt.Errorf("%d changeset.commit spans for %d committed views", want["changeset.commit"], want["view.commits"])
	}
	return nil, nil
}

// flush runs call, which flushes the open batch: Flush or Close (with close
// set). A failure the model predicts, or one injected by a Fault op, must
// leave every failed component exactly as it was and every other one
// flushed, stick in Err and keep the statements pending; the runner then
// retries an injected failure, which must converge on the fault-free state,
// and discards a predicted one.
func (r *runner) flush(call func(*ojv.WriteBatch) error, close bool) error {
	if r.wb == nil {
		return nil
	}
	post, failed := r.m.flush()
	err, bad := r.observe(func() error { return call(r.wb) })
	switch {
	case bad != nil:
		return bad
	case err == nil && (len(failed) > 0 || r.fired != ""):
		return fmt.Errorf("flush succeeded; the model fails %d of its tables, the fault fired in view %q", len(failed), r.fired)
	case err == nil:
		r.commit(post, close)
		return r.check()
	case len(failed) == 0 && r.fired == "":
		return fmt.Errorf("flush failed: %v; the model predicts success", err)
	case r.wb.Err() == nil || r.wb.PendingStatements() == 0:
		return fmt.Errorf("failed flush: Err() %v, %d statements left pending", r.wb.Err(), r.wb.PendingStatements())
	}
	// Every component commits or rolls back alone. Delta tables share one
	// when a view's footprint holds both or a declared foreign key joins
	// them (conflict.go), and one fails when the model fails one of its
	// tables or it maintains the view the fault fired in. check then holds
	// a failed component's tables, snapshot and live, and its views to their
	// state before the flush, and every other component to its flushed one.
	inDelta := func(t *mtable) bool { _, ok := post[t]; return ok }
	spans, down, covered := [][]*mtable{}, maps.Clone(failed), map[*mtable]bool{}
	for _, t := range r.m.tables {
		if t.FK {
			spans = append(spans, []*mtable{t, t.parent})
		}
	}
	for _, lv := range r.views {
		fp := r.m.footprint(lv.def)
		for _, t := range fp {
			down[t] = down[t] || lv.v.Name() == r.fired && inDelta(t)
			covered[t] = true
		}
		spans = append(spans, fp)
	}
	for grown := true; grown; { // close down over the spans
		grown = false
		for _, span := range spans {
			for _, t := range span {
				if inDelta(t) && !down[t] && slices.ContainsFunc(span, func(u *mtable) bool { return down[u] }) {
					down[t], grown = true, true
				}
			}
		}
	}
	for t, p := range post {
		switch {
		case !down[t]:
			t.rows = p
			r.st.shapes["partial-flush"]++
		case !covered[t]: // no view reads it: only its component rolls it back
			r.st.shapes["restored-unviewed"]++
		}
	}
	if cerr := r.check(); cerr != nil {
		return fmt.Errorf("after failed flush (%v): %w", err, cerr)
	}
	if len(failed) > 0 {
		r.wb.Discard()
		r.m.batch = newBatch()
	} else if err, bad := r.observe(r.wb.Flush); err != nil || bad != nil {
		return fmt.Errorf("disarmed retry: %w", errors.Join(err, bad))
	} else {
		r.commit(post, false)
	}
	if r.wb.Err() != nil {
		return fmt.Errorf("Err survives a successful retry or Discard: %v", r.wb.Err())
	}
	if close {
		if err := r.wb.Close(); err != nil {
			return fmt.Errorf("Close after recovery: %w", err)
		}
		r.wb, r.m.batch = nil, nil
	}
	return r.check()
}

// commit takes a successful flush into the model. A flush of a queue with
// no statement resets nothing.
func (r *runner) commit(post map[*mtable]map[int64]rel.Row, close bool) {
	for t, rows := range post {
		t.rows = rows
	}
	if r.m.batch.statements > 0 {
		r.m.batch = newBatch()
	}
	if close {
		r.wb, r.m.batch = nil, nil
	}
}

// batchRows reads the N-th live view while a batch is open. With the
// OpenBatch N&16 bit the read first flushes the batch, checked as any flush
// is, so the view must then hold every staged statement the flush
// committed; without it the read must return the naive view over the
// committed rows, whatever the batch holds.
func (r *runner) batchRows(op Op) error {
	if r.wb == nil || len(r.views) == 0 {
		return nil
	}
	lv := r.views[int(op.N)%len(r.views)]
	if r.readFlush {
		if err := r.flush((*ojv.WriteBatch).Flush, false); err != nil {
			return err
		}
		r.st.shapes["read-flush"]++
	} else {
		r.st.shapes["read-committed"]++
	}
	want, err := r.m.eval(lv.def)
	if err = cmp.Or(err, sameRows(lv.v.Rows(), want)); err != nil {
		return fmt.Errorf("%s.Rows(): %w", lv.v.Name(), err)
	}
	return nil
}

// round has goroutines stage statements into the open batch concurrently,
// each on a different FK group. The groups share no table, so every
// statement's outcome is the one the model predicts for it in isolation.
func (r *runner) round(op Op) error {
	if r.wb == nil {
		return nil
	}
	type planned struct {
		st   stmt
		rows []rel.Row
		err  error
	}
	groups := r.m.groups()
	rng := rand.New(rand.NewSource(int64(op.Seed)))
	plans := make([][]planned, min(1+int(op.N%4), len(groups)))
	for g := range plans {
		for n := 2 + rng.Intn(4); n > 0; n-- {
			t := groups[g][rng.Intn(len(groups[g]))]
			kind := []Kind{Insert, Insert, Delete, Update}[rng.Intn(4)]
			if kind == Delete && slices.ContainsFunc(r.m.tables, func(c *mtable) bool { return c.parent == t && c.FK }) {
				kind = Update // parents only grow in a round: RESTRICT stays out of the sweeps
			}
			for _, st := range r.m.resolve(Op{Kind: kind, N: uint8(rng.Intn(4))}, t, true, rng) {
				rows, err := r.m.stage(st)
				plans[g] = append(plans[g], planned{st, rows, err})
			}
		}
	}
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for g, plan := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range plan {
				got, err := r.call(p.st, true)
				if err := agree(p.rows, p.err, got, err); err != nil {
					errs[g] = fmt.Errorf("goroutine %d: %v %s: %w", g, p.st.kind, p.st.t.Name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	r.st.shapes["round"]++
	return errors.Join(errs...)
}

func (r *runner) createView(op Op) error {
	if len(r.views) >= maxViews {
		return nil
	}
	d := r.m.drawView(op.Seed, op.N&8 != 0)
	name := fmt.Sprintf("v%d", r.nviews)
	r.nviews++
	opts := ojv.Options{Tracer: r.tr, Metrics: r.reg, FailPoint: func(site string) error { return r.arm.hit(name, site) }}
	if op.N&3%3 == 2 { // slots 0 and 1, the retired from-view strategy, draw StrategyAuto
		opts.Strategy = ojv.StrategyFromBase
	}
	if live := slices.DeleteFunc(slices.Clone(r.views), func(lv liveView) bool { return lv.def.agg != nil }); op.N&4 != 0 && op.N&8 == 0 && len(live) > 0 {
		src := live[int(op.Seed)%len(live)]
		d, opts.Strategy = sibling(src.def, rand.New(rand.NewSource(int64(op.Seed)))), src.strategy
	}
	var v *ojv.View
	var err error
	if d.agg != nil {
		v, err = r.db.CreateAggregateView(name, ojv.ExprRel(d.expr), *d.agg, opts)
	} else {
		v, err = r.db.CreateView(name, ojv.ExprRel(d.expr), d.output, opts)
	}
	if err != nil {
		return fmt.Errorf("CreateView %s over %s: %w", name, d.expr, err)
	}
	r.views = append(r.views, liveView{v: v, def: d, strategy: opts.Strategy})
	if r.siblings(r.views[len(r.views)-1]) {
		r.st.shapes["family"]++
	}
	r.watch()
	return r.check()
}

// query asks Database.Query for a shuffled subset of a shape's columns and
// compares the answer with the model's evaluation. The shape is drawn from
// Seed, which mostly leaves the base tables to answer, or with N&1 is a live
// non-aggregate view's, which a view must answer.
func (r *runner) query(op Op) error {
	var live []viewDef
	for _, lv := range r.views {
		if lv.def.agg == nil {
			live = append(live, lv.def)
		}
	}
	var d viewDef
	if op.N&1 != 0 && len(live) > 0 {
		d = live[int(op.N>>1)%len(live)]
	} else {
		d, live = r.m.drawView(op.Seed, false), nil
	}
	rng := rand.New(rand.NewSource(int64(op.Seed)))
	d.output = slices.Clone(d.output)
	rng.Shuffle(len(d.output), func(i, j int) { d.output[i], d.output[j] = d.output[j], d.output[i] })
	d.output = d.output[:1+rng.Intn(len(d.output))]
	got, used, err := r.db.Query(ojv.ExprRel(d.expr), d.output)
	if err != nil {
		return fmt.Errorf("Query %s: %w", d.expr, err)
	}
	if live != nil && used == "" {
		return fmt.Errorf("Query %s: no view answered a live view's shape", d.expr)
	}
	want, err := r.m.eval(d)
	if err == nil {
		err = sameRows(got, want)
	}
	if err != nil {
		return fmt.Errorf("Query %s %v (answered by %q): %w", d.expr, d.output, used, err)
	}
	if used != "" {
		r.st.shapes["query-view"]++
	} else {
		r.st.shapes["query-base"]++
	}
	return nil
}

// check compares every table's and every view's current snapshot with the
// model — the tables with its rows, the views with their naive evaluation —
// and records each snapshot's epoch as committed: no epoch number may
// name two states. A snapshot shows only what committed, so each table is
// also read live, as the write path sees it: a failed commit that leaves a
// row behind shows there.
func (r *runner) check() error {
	for _, t := range r.m.tables {
		var cols []ojv.ColRef
		for _, c := range t.Columns() {
			cols = append(cols, ojv.Col(t.Name, c.Name))
		}
		// No view is over one table, so Query reads the table itself.
		live, _, err := r.db.Query(ojv.Table(t.Name), cols)
		if err = cmp.Or(err, sameRows(live, rowsOf(t.rows))); err != nil {
			return fmt.Errorf("table %s read live: %w", t.Name, err)
		}
	}
	for _, c := range r.cs {
		want, err := c.want()
		if err != nil {
			return err
		}
		s := c.pin()
		epoch, got := s.Epoch(), s.Rows()
		if err := sameRows(got, want); err != nil {
			return fmt.Errorf("%s epoch %d: %w", c.key, epoch, err)
		}
		if s.Len() != len(got) {
			return fmt.Errorf("%s epoch %d: Len() = %d, Rows() has %d", c.key, epoch, s.Len(), len(got))
		}
		if err := readKeyed(s, got, r.rng); err != nil {
			return fmt.Errorf("%s epoch %d: %w", c.key, epoch, err)
		}
		if c.terms != nil {
			if err := c.terms(s, want); err != nil {
				return fmt.Errorf("%s epoch %d: %w", c.key, epoch, err)
			}
		}
		epochs := r.committed[c.key]
		if epochs == nil {
			epochs = map[uint64]uint64{}
			r.committed[c.key] = epochs
		}
		if h, ok := epochs[epoch]; ok && h != hashRows(got) {
			return fmt.Errorf("%s republished epoch %d with other rows", c.key, epoch)
		}
		epochs[epoch] = hashRows(got)
	}
	return nil
}

// termCounts checks a view snapshot's TermCardinality against the model's
// rows of the view, for every non-empty set of the view's tables: the number
// of rows whose keys are non-null on exactly that set, 0 for a set that is
// no term of the normal form. Every table's key is an output column.
func termCounts(d viewDef, s *ojv.ViewSnapshot, want []rel.Row) error {
	tables := d.expr.Tables()
	keyAt := make([]int, len(tables))
	for i, t := range tables {
		keyAt[i] = slices.Index(d.output, algebra.Col(t, t+"k"))
	}
	count := make(map[uint32]int)
	for _, row := range want {
		var set uint32
		for i, at := range keyAt {
			if !row[at].IsNull() {
				set |= 1 << i
			}
		}
		count[set]++
	}
	for set := uint32(1); set < 1<<len(tables); set++ {
		var names []string
		for i, t := range tables {
			if set&(1<<i) != 0 {
				names = append(names, t)
			}
		}
		if got := s.TermCardinality(names); got != count[set] {
			return fmt.Errorf("TermCardinality(%v) = %d, the model has %d rows of that term", names, got, count[set])
		}
	}
	return nil
}

func rowsOf(m map[int64]rel.Row) []rel.Row {
	out := make([]rel.Row, 0, len(m))
	for _, r := range m {
		out = append(out, r)
	}
	return out
}

// sameRows compares two row multisets, naming a few rows that differ.
func sameRows(got, want []rel.Row) error {
	count := map[string]int{}
	for _, r := range got {
		count[rel.EncodeValues(r...)]++
	}
	for _, r := range want {
		count[rel.EncodeValues(r...)]--
	}
	var diff []string
	for k, n := range count {
		if vals, _ := rel.DecodeValues(k); n != 0 && len(diff) < 8 {
			diff = append(diff, fmt.Sprintf("%+d×%v", n, rel.Row(vals)))
		}
	}
	if len(diff) > 0 {
		return fmt.Errorf("%d rows, the model %d; extra (+) and missing (−): %v", len(got), len(want), diff)
	}
	return nil
}

// hashRows is an order-independent hash of a row multiset.
func hashRows(rows []rel.Row) uint64 {
	var h uint64
	var buf []byte
	for _, r := range rows {
		buf = rel.AppendEncoded(buf[:0], r...)
		h += rel.Hash64(buf)
	}
	return h
}

// readKeyed reads a table snapshot by key — a few keys its rows hold and a
// few it lacks — through Get and GetEncoded, which must agree with the
// epoch's rows. A view snapshot has no keyed read.
func readKeyed(s snapshot, rows []rel.Row, rng *rand.Rand) error {
	ts, ok := s.(*ojv.TableSnapshot)
	if !ok {
		return nil
	}
	byKey := make(map[int64]rel.Row, len(rows))
	for _, row := range rows {
		byKey[row[0].AsInt()] = row
	}
	keys := []int64{noKey}
	for range 3 {
		if len(rows) > 0 {
			k := rows[rng.Intn(len(rows))][0].AsInt()
			keys = append(keys, k, k+1)
		}
	}
	for _, k := range keys {
		want := byKey[k]
		got, ok := ts.Get(rel.Int(k))
		enc, encOK := ts.GetEncoded(rel.EncodeValues(rel.Int(k)))
		if ok != (want != nil) || encOK != ok || ok && (!got.Equal(want) || !enc.Equal(want)) {
			return fmt.Errorf("Get(%d) = %v, %v and GetEncoded %v, %v; Rows() has %v", k, got, ok, enc, encOK, want)
		}
	}
	return nil
}

// container is a table or a view: how to pin its current snapshot, and
// what the model says it holds. terms, set for a view that is not an
// aggregation, checks a pinned snapshot's term counters against the
// model's rows.
type container struct {
	key   string
	pin   func() snapshot
	want  func() ([]rel.Row, error)
	terms func(snapshot, []rel.Row) error
}

// snapshot is what *ojv.TableSnapshot and *ojv.ViewSnapshot share.
type snapshot interface {
	Epoch() uint64
	Len() int
	Rows() []rel.Row
}

// watch refreshes the containers after a view comes or goes, for the
// checks and for the readers.
func (r *runner) watch() {
	r.cs = r.cs[:0:0]
	for _, t := range r.m.tables {
		r.cs = append(r.cs, container{key: "table " + t.Name,
			pin:  func() snapshot { return r.db.TableSnapshot(t.Name) },
			want: func() ([]rel.Row, error) { return rowsOf(t.rows), nil }})
	}
	for _, lv := range r.views {
		c := container{key: fmt.Sprintf("view %s = %s", lv.v.Name(), lv.def.expr),
			pin:  func() snapshot { return lv.v.Snapshot() },
			want: func() ([]rel.Row, error) { return r.m.eval(lv.def) }}
		if lv.def.agg == nil {
			c.terms = func(s snapshot, want []rel.Row) error { return termCounts(lv.def, s.(*ojv.ViewSnapshot), want) }
		}
		r.cs = append(r.cs, c)
	}
	if cs := r.cs; r.readers != nil {
		r.readers.watched.Store(&cs)
	}
}

// readers are goroutines that pin snapshots of every table and view for
// the whole run. Each observation must turn out to be an epoch the runner
// recorded with the same rows, with Len() agreeing with Rows(), and no
// reader may see a container's epoch go backwards.
type readers struct {
	watched atomic.Pointer[[]container]
	done    chan struct{}
	wg      sync.WaitGroup
	seen    [][]observation
	// failed holds each reader's first keyed read that disagreed with the
	// rows of its own epoch.
	failed []error
}

type observation struct {
	key         string
	epoch, hash uint64
	n, rows     int
}

// maxObservations bounds what one reader keeps.
const maxObservations = 20000

func startReaders(n int, cs []container) *readers {
	rd := &readers{done: make(chan struct{}), seen: make([][]observation, n), failed: make([]error, n)}
	rd.watched.Store(&cs)
	for i := range n {
		rd.wg.Add(1)
		go func() {
			defer rd.wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for j := i; ; j++ {
				cs := *rd.watched.Load()
				c := cs[j%len(cs)]
				if s := c.pin(); len(rd.seen[i]) < maxObservations {
					rows := s.Rows()
					rd.seen[i] = append(rd.seen[i], observation{c.key, s.Epoch(), hashRows(rows), s.Len(), len(rows)})
					if err := readKeyed(s, rows, rng); err != nil && rd.failed[i] == nil {
						rd.failed[i] = fmt.Errorf("reader %d: %s epoch %d: %w", i, c.key, s.Epoch(), err)
					}
				}
				select {
				case <-rd.done:
					return
				default:
					time.Sleep(50 * time.Microsecond)
				}
			}
		}()
	}
	return rd
}

// stop joins the readers and checks what they saw against the epochs the
// runner recorded.
func (rd *readers) stop(committed map[string]map[uint64]uint64) error {
	close(rd.done)
	rd.wg.Wait()
	if err := errors.Join(rd.failed...); err != nil {
		return err
	}
	for i, seen := range rd.seen {
		last := map[string]uint64{}
		for _, o := range seen {
			h, ok := committed[o.key][o.epoch]
			switch {
			case o.epoch < last[o.key]:
				return fmt.Errorf("reader %d saw %s go back from epoch %d to %d", i, o.key, last[o.key], o.epoch)
			case !ok:
				return fmt.Errorf("reader %d pinned %s epoch %d, which was never committed", i, o.key, o.epoch)
			case h != o.hash:
				return fmt.Errorf("reader %d saw torn rows at %s epoch %d", i, o.key, o.epoch)
			case o.n != o.rows:
				return fmt.Errorf("reader %d: %s epoch %d has Len() %d but %d rows", i, o.key, o.epoch, o.n, o.rows)
			}
			last[o.key] = o.epoch
		}
	}
	return nil
}
