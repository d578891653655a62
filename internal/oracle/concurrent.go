package oracle

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"ojv"
	"ojv/internal/rel"
)

// The concurrent-maintenance oracle proves the component worker pool
// (BatchOptions.MaintWorkers, conflict.go): writers over disjoint table
// groups stage into one shared WriteBatch, every flush partitions the
// deltas into independent components and maintains them concurrently, and
// readers fingerprint view and table snapshots the whole time. The
// invariants quantify over every interleaving the scheduler produces:
//
//   - every reader observation equals a committed epoch of its container
//     (components publish mid-flush, at their own commit boundaries — a
//     reader may see group A's new epoch while group B's flush is still
//     applying, but never torn or rolled-back state);
//   - epochs are monotonic per reader per container;
//   - the final state is bit-identical to a serialized twin that replays
//     the same per-group scripts through the same pipeline with no pool
//     (MaintWorkers 0: the components commit inline, one after another).
//
// Run under -race in CI's race-concurrent job, the harness also proves the
// component workers are free of data races against each other and against
// the snapshot read paths.

// concOp is one pre-generated statement of a group's script. Scripts are
// generated up front, against simulated key pools, so the concurrent run
// and the serialized twin replay byte-identical statement sequences.
type concOp struct {
	op     int // 0 insert, 1 delete, 2 update
	table  string
	rows   []rel.Row
	keys   [][]rel.Value
	newRow rel.Row
}

func applyConcOp(wb *ojv.WriteBatch, op concOp) error {
	switch op.op {
	case 0:
		return wb.Insert(op.table, op.rows)
	case 1:
		_, err := wb.Delete(op.table, op.keys)
		return err
	default:
		return wb.Update(op.table, op.keys[0], op.newRow)
	}
}

// concGroup names the containers of one disjoint table group: a parent
// table, a child table FK-referencing it, and one view joining them. The
// conflict analysis must place each group in its own flush component.
type concGroup struct {
	parent, child, view string
}

func concGroupNames(g int) concGroup {
	return concGroup{
		parent: fmt.Sprintf("p%d", g),
		child:  fmt.Sprintf("c%d", g),
		view:   fmt.Sprintf("v%d", g),
	}
}

// buildConcurrentDB creates groups disjoint parent/child table pairs, each
// loaded with rows committed rows and covered by a parent-LEFT-JOIN-child
// view. failPoints[g], when set, becomes group g's view Options.FailPoint.
func buildConcurrentDB(seed int64, groups, rows int, failPoints map[int]func(string) error) (*ojv.Database, []*ojv.View, error) {
	rng := rand.New(rand.NewSource(seed))
	db := ojv.NewDatabase()
	views := make([]*ojv.View, groups)
	for g := 0; g < groups; g++ {
		n := concGroupNames(g)
		if err := db.CreateTable(n.parent, []rel.Column{
			{Name: n.parent + "k", Kind: rel.KindInt},
			{Name: n.parent + "j", Kind: rel.KindInt},
			{Name: n.parent + "v", Kind: rel.KindInt},
		}, n.parent+"k"); err != nil {
			return nil, nil, err
		}
		if err := db.CreateTable(n.child, []rel.Column{
			{Name: n.child + "k", Kind: rel.KindInt},
			{Name: n.child + "f", Kind: rel.KindInt, NotNull: true},
			{Name: n.child + "v", Kind: rel.KindInt},
		}, n.child+"k"); err != nil {
			return nil, nil, err
		}
		if err := db.AddForeignKey(n.child, []string{n.child + "f"}, n.parent, []string{n.parent + "k"}); err != nil {
			return nil, nil, err
		}
		var parents []rel.Row
		for i := 0; i < rows; i++ {
			j := rel.Value(rel.Int(rng.Int63n(7)))
			if rng.Intn(6) == 0 {
				j = rel.Null
			}
			parents = append(parents, rel.Row{rel.Int(int64(i)), j, rel.Int(rng.Int63n(100))})
		}
		if err := db.Insert(n.parent, parents); err != nil {
			return nil, nil, err
		}
		var children []rel.Row
		for i := 0; i < rows; i++ {
			children = append(children, rel.Row{
				rel.Int(int64(i)), rel.Int(rng.Int63n(int64(rows))), rel.Int(rng.Int63n(100))})
		}
		if err := db.Insert(n.child, children); err != nil {
			return nil, nil, err
		}
		opts := ojv.Options{Parallelism: 1}
		if fp, ok := failPoints[g]; ok {
			opts.FailPoint = fp
		}
		v, err := db.CreateView(n.view,
			ojv.Table(n.parent).LeftJoin(ojv.Table(n.child),
				ojv.Eq(n.child, n.child+"f", n.parent, n.parent+"k")),
			ojv.Columns(
				n.parent+"."+n.parent+"k", n.parent+"."+n.parent+"j", n.parent+"."+n.parent+"v",
				n.child+"."+n.child+"k", n.child+"."+n.child+"f", n.child+"."+n.child+"v"),
			opts)
		if err != nil {
			return nil, nil, err
		}
		views[g] = v
	}
	return db, views, nil
}

// genGroupScript generates one group's statement scripts, rounds × perRound
// ops, against simulated key pools so every statement is guaranteed to
// validate: parents only grow (no RESTRICT hazards), children churn
// through inserts, deletes and updates of keys the group owns.
func genGroupScript(seed int64, g, rounds, perRound, rows int) [][]concOp {
	rng := rand.New(rand.NewSource(seed ^ int64(g)<<20 ^ 0xc0c0))
	n := concGroupNames(g)
	parentKeys := make([]int64, 0, rows+rounds*perRound)
	childKeys := make([]int64, 0, rows+rounds*perRound)
	for i := 0; i < rows; i++ {
		parentKeys = append(parentKeys, int64(i))
		childKeys = append(childKeys, int64(i))
	}
	nextParent, nextChild := int64(rows)+1000, int64(rows)+1000
	script := make([][]concOp, rounds)
	for r := 0; r < rounds; r++ {
		ops := make([]concOp, 0, perRound)
		for s := 0; s < perRound; s++ {
			switch rng.Intn(5) {
			case 0: // insert a fresh parent
				j := rel.Value(rel.Int(rng.Int63n(7)))
				if rng.Intn(6) == 0 {
					j = rel.Null
				}
				ops = append(ops, concOp{op: 0, table: n.parent,
					rows: []rel.Row{{rel.Int(nextParent), j, rel.Int(rng.Int63n(100))}}})
				parentKeys = append(parentKeys, nextParent)
				nextParent++
			case 1: // insert a fresh child under a random existing parent
				ref := parentKeys[rng.Intn(len(parentKeys))]
				ops = append(ops, concOp{op: 0, table: n.child,
					rows: []rel.Row{{rel.Int(nextChild), rel.Int(ref), rel.Int(rng.Int63n(100))}}})
				childKeys = append(childKeys, nextChild)
				nextChild++
			case 2: // delete an owned child
				if len(childKeys) == 0 {
					continue
				}
				i := rng.Intn(len(childKeys))
				k := childKeys[i]
				childKeys[i] = childKeys[len(childKeys)-1]
				childKeys = childKeys[:len(childKeys)-1]
				ops = append(ops, concOp{op: 1, table: n.child,
					keys: [][]rel.Value{{rel.Int(k)}}})
			case 3: // update an owned child (key unchanged, fresh ref + value)
				if len(childKeys) == 0 {
					continue
				}
				k := childKeys[rng.Intn(len(childKeys))]
				ref := parentKeys[rng.Intn(len(parentKeys))]
				ops = append(ops, concOp{op: 2, table: n.child,
					keys:   [][]rel.Value{{rel.Int(k)}},
					newRow: rel.Row{rel.Int(k), rel.Int(ref), rel.Int(rng.Int63n(100))}})
			default: // update an owned parent (key unchanged)
				k := parentKeys[rng.Intn(len(parentKeys))]
				j := rel.Value(rel.Int(rng.Int63n(7)))
				if rng.Intn(6) == 0 {
					j = rel.Null
				}
				ops = append(ops, concOp{op: 2, table: n.parent,
					keys:   [][]rel.Value{{rel.Int(k)}},
					newRow: rel.Row{rel.Int(k), j, rel.Int(rng.Int63n(100))}})
			}
		}
		script[r] = ops
	}
	return script
}

// RunConcurrentMaintSeed executes one deterministic concurrent-maintenance
// run: groups writer goroutines stage their scripts into one shared
// WriteBatch (MaintWorkers=workers) round by round, the coordinator
// flushes after each round, and readers fingerprint every group's view and
// parent-table snapshots throughout. It then replays the same scripts
// through a batch without a worker pool and requires the final state of
// every group to match bit-identically.
func RunConcurrentMaintSeed(seed int64, groups, workers, rounds, perRound, rows, readers int) error {
	db, views, err := buildConcurrentDB(seed, groups, rows, nil)
	if err != nil {
		return err
	}
	scripts := make([][][]concOp, groups)
	for g := 0; g < groups; g++ {
		scripts[g] = genGroupScript(seed, g, rounds, perRound, rows)
	}

	// committedView[g][epoch] / committedTable[g][epoch] are written only
	// by the coordinator — after the flush that published the epoch, before
	// the next round can run — and read only after every reader has joined.
	// A component publishes its epochs mid-flush, but each container gains
	// at most one epoch per flush, so the post-flush record captures
	// exactly the epochs any reader could have pinned.
	committedView := make([]map[uint64]string, groups)
	committedTable := make([]map[uint64]string, groups)
	for g := range committedView {
		committedView[g] = map[uint64]string{}
		committedTable[g] = map[uint64]string{}
	}
	record := func() {
		for g, v := range views {
			s := v.Snapshot()
			committedView[g][s.Epoch()] = snapFingerprint(s.SortedRows())
			if ts := db.TableSnapshot(concGroupNames(g).parent); ts != nil {
				committedTable[g][ts.Epoch()] = snapFingerprint(ts.Rows())
			}
		}
	}
	record()

	type groupObs struct {
		group int
		table bool
		servingObs
	}
	stop := make(chan struct{})
	obsCh := make(chan []groupObs, readers)
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			var obs []groupObs
			lastView := make([]uint64, groups)
			g := r % groups
			for {
				s := views[g].Snapshot()
				o := groupObs{group: g, servingObs: servingObs{
					epoch: s.Epoch(), fp: snapFingerprint(s.SortedRows()),
					n: s.Len(), rowsLen: len(s.Rows()),
				}}
				if o.epoch < lastView[g] {
					o.fp = "EPOCH WENT BACKWARDS"
				}
				lastView[g] = o.epoch
				obs = append(obs, o)
				if ts := db.TableSnapshot(concGroupNames(g).parent); ts != nil {
					obs = append(obs, groupObs{group: g, table: true, servingObs: servingObs{
						epoch: ts.Epoch(), fp: snapFingerprint(ts.Rows()),
						n: ts.Len(), rowsLen: len(ts.Rows()),
					}})
				}
				g = (g + 1) % groups
				select {
				case <-stop:
					obsCh <- obs
					return
				default:
				}
			}
		}(r)
	}
	finish := func() {
		close(stop)
		rwg.Wait()
		close(obsCh)
	}

	wb := db.NewWriteBatch(ojv.BatchOptions{MaintWorkers: workers})
	for round := 0; round < rounds; round++ {
		errs := make([]error, groups)
		var wwg sync.WaitGroup
		for g := 0; g < groups; g++ {
			wwg.Add(1)
			go func(g int) {
				defer wwg.Done()
				for _, op := range scripts[g][round] {
					if err := applyConcOp(wb, op); err != nil {
						errs[g] = err
						return
					}
				}
			}(g)
		}
		wwg.Wait()
		for g, err := range errs {
			if err != nil {
				finish()
				return fmt.Errorf("round %d group %d: %w", round, g, err)
			}
		}
		if err := wb.Flush(); err != nil {
			finish()
			return fmt.Errorf("round %d flush: %w", round, err)
		}
		record()
	}
	if err := wb.Close(); err != nil {
		finish()
		return err
	}
	record()
	finish()

	checked := 0
	for obs := range obsCh {
		for _, o := range obs {
			committed := committedView[o.group]
			kind := "view"
			if o.table {
				committed = committedTable[o.group]
				kind = "table"
			}
			want, ok := committed[o.epoch]
			if !ok {
				return fmt.Errorf("reader pinned %s epoch %d of group %d that was never committed", kind, o.epoch, o.group)
			}
			if o.fp != want {
				return fmt.Errorf("reader observed torn state at %s epoch %d of group %d", kind, o.epoch, o.group)
			}
			if o.n != o.rowsLen {
				return fmt.Errorf("%s epoch %d of group %d: Len()=%d but Rows() returned %d rows", kind, o.epoch, o.group, o.n, o.rowsLen)
			}
			checked++
		}
	}
	if checked == 0 {
		return fmt.Errorf("concurrent run finished with zero reader observations")
	}

	// Serialized twin: same scripts, group order, no worker pool.
	twin, twinViews, err := buildConcurrentDB(seed, groups, rows, nil)
	if err != nil {
		return err
	}
	twb := twin.NewWriteBatch()
	for round := 0; round < rounds; round++ {
		for g := 0; g < groups; g++ {
			for _, op := range scripts[g][round] {
				if err := applyConcOp(twb, op); err != nil {
					return fmt.Errorf("twin round %d group %d: %w", round, g, err)
				}
			}
		}
		if err := twb.Flush(); err != nil {
			return fmt.Errorf("twin round %d flush: %w", round, err)
		}
	}
	if err := twb.Close(); err != nil {
		return err
	}
	for g := range views {
		n := concGroupNames(g)
		if got, want := viewRowsFingerprint(views[g]), viewRowsFingerprint(twinViews[g]); got != want {
			return fmt.Errorf("group %d: concurrent view state diverges from serialized twin", g)
		}
		if got, want := dbFingerprint(db, []string{n.parent, n.child}), dbFingerprint(twin, []string{n.parent, n.child}); got != want {
			return fmt.Errorf("group %d: concurrent base tables diverge from serialized twin", g)
		}
		if err := views[g].Check(); err != nil {
			return fmt.Errorf("group %d: %w", g, err)
		}
	}
	return nil
}

// RunConcurrentFaultMatrix sweeps the interleaving stress matrix: two
// disjoint groups flush as two components on a pool of workers (0 and 1
// run them inline, one after the other), group 0's view is forced to fail
// at every failpoint site it visits (one site per scenario), and group 1
// has no failpoints. Every armed flush must commit group 1 durably (its
// state equals the fault-free run's) while restoring group 0 exactly to
// its pre-flush state with its statements still pending; the disarmed
// retry must converge every scenario to the fault-free final state. It
// returns the number of sites swept.
func RunConcurrentFaultMatrix(seed int64, workers int) (int, error) {
	want, sitesTotal, err := runConcurrentFaultScenario(seed, workers, 0, "")
	if err != nil {
		return 0, fmt.Errorf("fault-free pass: %w", err)
	}
	n := sitesTotal
	if n > faultSweepCap {
		n = faultSweepCap
	}
	for k := 1; k <= n; k++ {
		final, _, err := runConcurrentFaultScenario(seed, workers, k, want)
		if err != nil {
			return k, fmt.Errorf("failAt=%d: %w", k, err)
		}
		if final != want {
			return k, fmt.Errorf("failAt=%d: recovered final state differs from fault-free run", k)
		}
	}
	return n, nil
}

// concFingerprint renders one group's tables and view.
func concFingerprint(db *ojv.Database, v *ojv.View, g int) string {
	n := concGroupNames(g)
	return dbFingerprint(db, []string{n.parent, n.child}) + "\n--\n" + viewRowsFingerprint(v)
}

// runConcurrentFaultScenario builds the two-group scenario, stages one
// fixed round of statements for both groups, and flushes on the given
// worker pool with the failAt-th site of group 0's view armed (0 = no
// fault). On the
// injected failure it verifies per-component atomicity — group 1 committed
// durably (wantFinal carries the fault-free run's group-1 fingerprint
// via its full final state), group 0 restored, group 0's statements still
// pending — then disarms and retries. It returns the combined final
// fingerprint and the number of sites group 0's flush visited.
func runConcurrentFaultScenario(seed int64, workers, failAt int, wantFinal string) (string, int, error) {
	const rows = 12
	arm := &faultArm{}
	db, views, err := buildConcurrentDB(seed, 2, rows, map[int]func(string) error{0: arm.hit})
	if err != nil {
		return "", 0, err
	}
	scripts := [][][]concOp{
		genGroupScript(seed, 0, 1, 10, rows),
		genGroupScript(seed, 1, 1, 10, rows),
	}
	wb := db.NewWriteBatch(ojv.BatchOptions{MaintWorkers: workers})
	for g, s := range scripts {
		for _, op := range s[0] {
			if err := applyConcOp(wb, op); err != nil {
				return "", 0, fmt.Errorf("staging group %d: %w", g, err)
			}
		}
	}

	pre0 := concFingerprint(db, views[0], 0)
	arm.arm(failAt)
	flushErr := wb.Flush()
	sites := arm.n
	if failAt == 0 || sites < failAt {
		if flushErr != nil {
			return "", sites, fmt.Errorf("unexpected flush failure: %w", flushErr)
		}
	} else {
		if flushErr == nil {
			return "", sites, fmt.Errorf("armed flush succeeded despite injected fault")
		}
		// Group 0 rolled back exactly; its statements survive for a retry.
		if got := concFingerprint(db, views[0], 0); got != pre0 {
			return "", sites, fmt.Errorf("failed component did not restore its pre-flush state")
		}
		if wb.Err() == nil {
			return "", sites, fmt.Errorf("failed flush did not stick in Err")
		}
		if wb.PendingStatements() == 0 {
			return "", sites, fmt.Errorf("failed component's statements were dropped from the queue")
		}
		// Group 1 committed durably: its state already equals the fault-free
		// run's final state (the section after the ==== separator — group
		// order in the combined fingerprint is fixed).
		if wantFinal != "" {
			sections := strings.SplitN(wantFinal, "\n====\n", 2)
			if len(sections) != 2 {
				return "", sites, fmt.Errorf("malformed fault-free fingerprint")
			}
			if got := concFingerprint(db, views[1], 1); got != sections[1] {
				return "", sites, fmt.Errorf("independent component's committed state disturbed by the failed component")
			}
		}
		arm.arm(0)
		if err := wb.Flush(); err != nil {
			return "", sites, fmt.Errorf("disarmed retry failed: %w", err)
		}
	}
	if err := wb.Close(); err != nil {
		return "", sites, err
	}
	for g, v := range views {
		if err := v.Check(); err != nil {
			return "", sites, fmt.Errorf("group %d: %w", g, err)
		}
	}
	return concFingerprint(db, views[0], 0) + "\n====\n" + concFingerprint(db, views[1], 1), sites, nil
}
