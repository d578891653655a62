package oracle

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"ojv"
	"ojv/internal/algebra"
	"ojv/internal/fixture"
	"ojv/internal/rel"
	"ojv/internal/view"
)

// The batch oracle extends the differential harness to the group-commit
// write pipeline. Two identically seeded databases carry the same random
// SPOJ view; every generated statement applies synchronously to the
// reference and stages into a WriteBatch on the twin. Because the batch
// validates against the committed tables overlaid with its own pending
// writes, the twin's observable state always mirrors the reference, so any
// statement the reference accepts the batch must accept — and at every
// flush boundary the twin's base tables and maintained view must be
// bit-identical to the reference's. Flush points are randomized, so the
// windows exercise the whole coalescing algebra: deletes annihilate
// same-window inserts, updates compose, delete-then-insert becomes a
// keyed modify.

// RunBatchSeed executes one deterministic differential run of the write
// pipeline: steps mixed statements over a rows-per-table catalog, flushing
// at random statement boundaries (about one in four) and comparing full
// database and view fingerprints at every flush.
func RunBatchSeed(seed int64, strategy view.Strategy, steps, rows int) error {
	build := func(r *rand.Rand) (*ojv.Database, *ojv.View, algebra.Expr, error) {
		cat, err := fixture.RandCatalog(r, rows)
		if err != nil {
			return nil, nil, nil, err
		}
		expr := fixture.RandSPOJ(r)
		db := ojv.WrapCatalog(cat)
		v, err := db.CreateView("ov", ojv.ExprRel(expr), fixture.RandOutput(cat, expr),
			ojv.Options{Strategy: strategy, Parallelism: 1, VerifyPlans: true})
		return db, v, expr, err
	}
	dbRef, vRef, expr, err := build(rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	dbBat, vBat, _, err := build(rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	tables := algebra.SortedTables(expr)
	wb := dbBat.NewWriteBatch()

	compare := func(when string) error {
		if got, want := dbFingerprint(dbBat, tables), dbFingerprint(dbRef, tables); got != want {
			return fmt.Errorf("%s: base tables diverge from reference on view %s", when, expr)
		}
		if got, want := viewRowsFingerprint(vBat), viewRowsFingerprint(vRef); got != want {
			return fmt.Errorf("%s: view contents diverge from reference on view %s", when, expr)
		}
		return vBat.Check()
	}

	script := rand.New(rand.NewSource(seed ^ 0x5eedbadc0ffee))
	nextKey := int64(rows) + 1000
	for step := 0; step < steps; step++ {
		table := tables[script.Intn(len(tables))]
		desc, err := mirroredStep(dbRef, wb, script, table, &nextKey)
		if err != nil {
			return fmt.Errorf("step %d (%s) on view %s: %w", step, desc, expr, err)
		}
		if script.Intn(4) == 0 {
			if err := wb.Flush(); err != nil {
				return fmt.Errorf("flush after step %d on view %s: %w", step, expr, err)
			}
			if err := compare(fmt.Sprintf("flush after step %d", step)); err != nil {
				return err
			}
		}
	}
	if err := wb.Close(); err != nil {
		return fmt.Errorf("close on view %s: %w", expr, err)
	}
	return compare("final flush")
}

// mirroredStep generates one random statement against the reference state
// and applies it to both sides. The reference state equals the batch's
// overlay by construction, so the two sides must agree on acceptance and,
// for deletes, on the removed rows.
func mirroredStep(dbRef *ojv.Database, wb *ojv.WriteBatch, rng *rand.Rand, table string, nextKey *int64) (string, error) {
	switch rng.Intn(3) {
	case 0: // insert fresh-keyed rows
		var rows []rel.Row
		for i := 0; i < 1+rng.Intn(3); i++ {
			rows = append(rows, fixture.RandRow(rng, *nextKey))
			*nextKey++
		}
		if err := dbRef.Insert(table, rows); err != nil {
			return "insert", fmt.Errorf("reference: %w", err)
		}
		if err := wb.Insert(table, rows); err != nil {
			return "insert", fmt.Errorf("batch rejected a statement the reference accepted: %w", err)
		}
		return fmt.Sprintf("insert %d rows into %s", len(rows), table), nil
	case 1: // delete keys sampled from the (mirrored) current state
		keys := pickKeys(dbRef.TableSnapshot(table).Rows(), rng, 1+rng.Intn(3))
		if len(keys) == 0 {
			return "delete (empty table)", nil
		}
		gotRef, err := dbRef.Delete(table, keys)
		if err != nil {
			return "delete", fmt.Errorf("reference: %w", err)
		}
		gotBat, err := wb.Delete(table, keys)
		if err != nil {
			return "delete", fmt.Errorf("batch rejected a statement the reference accepted: %w", err)
		}
		if len(gotRef) != len(gotBat) {
			return "delete", fmt.Errorf("batch deleted %d rows, reference %d", len(gotBat), len(gotRef))
		}
		for i := range gotRef {
			if !gotRef[i].Equal(gotBat[i]) {
				return "delete", fmt.Errorf("deleted row %d: batch observed %s, reference %s", i, gotBat[i], gotRef[i])
			}
		}
		return fmt.Sprintf("delete %d rows from %s", len(gotRef), table), nil
	default: // update: same key, fresh attribute values
		keys := pickKeys(dbRef.TableSnapshot(table).Rows(), rng, 1)
		if len(keys) == 0 {
			return "update (empty table)", nil
		}
		j := rel.Value(rel.Int(rng.Int63n(7)))
		if rng.Intn(6) == 0 {
			j = rel.Null
		}
		newRow := rel.Row{keys[0][0], j, rel.Int(rng.Int63n(100))}
		if err := dbRef.Update(table, keys[0], newRow); err != nil {
			return "update", fmt.Errorf("reference: %w", err)
		}
		if err := wb.Update(table, keys[0], newRow); err != nil {
			return "update", fmt.Errorf("batch rejected a statement the reference accepted: %w", err)
		}
		return fmt.Sprintf("update 1 row of %s", table), nil
	}
}

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
	"modify-between-passes",
}

// knownFaultSite reports whether site is declared in flushFaultSites.
func knownFaultSite(site string) bool {
	for _, s := range flushFaultSites {
		if s == site {
			return true
		}
	}
	return false
}

// faultArm is an Options.FailPoint that fails the failAt-th site call
// after arming. It serializes access so parallel maintenance workers can
// share it, though the fault matrix runs with Parallelism 1 for a
// deterministic site order.
type faultArm struct {
	mu     sync.Mutex
	n      int
	failAt int
}

func (f *faultArm) hit(site string) error {
	if !knownFaultSite(site) {
		return fmt.Errorf("oracle: flush consulted undeclared failpoint site %q — add it to flushFaultSites and the fault matrices", site)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if f.failAt > 0 && f.n == f.failAt {
		return fmt.Errorf("oracle: injected fault at %s (call %d)", site, f.n)
	}
	return nil
}

func (f *faultArm) arm(failAt int) {
	f.mu.Lock()
	f.n = 0
	f.failAt = failAt
	f.mu.Unlock()
}

// faultSweepCap bounds the fault matrix: a staged batch whose flush visits
// more sites than this fails the sweep (it means the scenario grew beyond
// what the matrix was designed to cover).
const faultSweepCap = 500

// RunBatchFault sweeps the crash-at-flush matrix for one seed: it stages a
// fixed mixed batch, then for k = 1, 2, ... forces the k-th failpoint site
// visited during the flush to fail. Every failed flush must restore the
// pre-flush state exactly and preserve the pending statements; the
// disarmed retry must then commit to the same final state a fault-free run
// produces. It returns the number of sites swept.
func RunBatchFault(seed int64, strategy view.Strategy) (int, error) {
	// One fault-free pass pins the expected final state and counts the
	// failpoint sites one flush visits.
	want, sitesTotal, err := runFaultScenario(seed, strategy, 0)
	if err != nil {
		return 0, fmt.Errorf("fault-free pass: %w", err)
	}
	n := sitesTotal
	if n > faultSweepCap {
		n = faultSweepCap
	}
	for k := 1; k <= n; k++ {
		final, _, err := runFaultScenario(seed, strategy, k)
		if err != nil {
			return k, fmt.Errorf("failAt=%d: %w", k, err)
		}
		if final != want {
			return k, fmt.Errorf("failAt=%d: recovered final state differs from fault-free run", k)
		}
	}
	return n, nil
}

// runFaultScenario builds the scenario database, stages the fixed batch,
// and flushes with the failAt-th site armed (0 = no fault). On an injected
// failure it verifies atomicity — state restored, statements pending —
// then disarms and retries. It returns the final database+view fingerprint
// and the number of failpoint sites the armed flush visited.
func runFaultScenario(seed int64, strategy view.Strategy, failAt int) (string, int, error) {
	rng := rand.New(rand.NewSource(seed))
	cat, err := fixture.RandCatalog(rng, 12)
	if err != nil {
		return "", 0, err
	}
	expr := fixture.RandSPOJ(rng)
	arm := &faultArm{}
	db := ojv.WrapCatalog(cat)
	v, err := db.CreateView("ov", ojv.ExprRel(expr), fixture.RandOutput(cat, expr),
		ojv.Options{Strategy: strategy, Parallelism: 1, VerifyPlans: true, FailPoint: arm.hit})
	if err != nil {
		return "", 0, err
	}
	tables := algebra.SortedTables(expr)

	wb := db.NewWriteBatch()
	script := rand.New(rand.NewSource(seed ^ 0xfa017))
	nextKey := int64(2000)
	staged := 0
	for i := 0; i < 8; i++ {
		if _, err := mirroredFaultStep(db, wb, script, tables[script.Intn(len(tables))], &nextKey); err != nil {
			return "", 0, err
		}
		staged = wb.PendingStatements()
	}

	pre := dbFingerprint(db, tables) + "\n--\n" + viewRowsFingerprint(v)
	arm.arm(failAt)
	flushErr := wb.Flush()
	sites := arm.n
	if failAt == 0 || sites < failAt {
		// No fault was injected; the flush must have succeeded.
		if flushErr != nil {
			return "", sites, fmt.Errorf("unexpected flush failure: %w", flushErr)
		}
	} else {
		if flushErr == nil {
			return "", sites, fmt.Errorf("armed flush succeeded despite injected fault")
		}
		// Atomicity: the failed flush left no trace and kept the batch.
		if got := dbFingerprint(db, tables) + "\n--\n" + viewRowsFingerprint(v); got != pre {
			return "", sites, fmt.Errorf("failed flush did not restore the pre-flush state")
		}
		if wb.Err() == nil {
			return "", sites, fmt.Errorf("failed flush did not stick in Err")
		}
		if wb.PendingStatements() != staged {
			return "", sites, fmt.Errorf("failed flush kept %d statements, want %d", wb.PendingStatements(), staged)
		}
		arm.arm(0)
		if err := wb.Flush(); err != nil {
			return "", sites, fmt.Errorf("disarmed retry failed: %w", err)
		}
	}
	if err := wb.Close(); err != nil {
		return "", sites, err
	}
	if err := v.Check(); err != nil {
		return "", sites, err
	}
	return dbFingerprint(db, tables) + "\n--\n" + viewRowsFingerprint(v), sites, nil
}

// mirroredFaultStep stages one statement of the fault scenario into the
// batch only (there is no reference database; the fault-free sweep run
// plays that role).
func mirroredFaultStep(db *ojv.Database, wb *ojv.WriteBatch, rng *rand.Rand, table string, nextKey *int64) (string, error) {
	// Sample keys from the committed state; the batch may have staged
	// deletes for them already, in which case the statement is skipped (the
	// fault-free and armed runs skip identically — the script is fixed).
	switch rng.Intn(3) {
	case 0:
		row := fixture.RandRow(rng, *nextKey)
		*nextKey++
		return "insert", wb.Insert(table, []rel.Row{row})
	case 1:
		keys := pickKeys(db.TableSnapshot(table).Rows(), rng, 1)
		if len(keys) == 0 {
			return "delete (empty)", nil
		}
		if _, err := wb.Delete(table, keys); err != nil {
			// Already deleted in this batch window; a fixed script skips it
			// deterministically.
			return "delete (pending)", nil
		}
		return "delete", nil
	default:
		keys := pickKeys(db.TableSnapshot(table).Rows(), rng, 1)
		if len(keys) == 0 {
			return "update (empty)", nil
		}
		newRow := rel.Row{keys[0][0], rel.Int(rng.Int63n(7)), rel.Int(rng.Int63n(100))}
		if err := wb.Update(table, keys[0], newRow); err != nil {
			return "update (pending delete)", nil
		}
		return "update", nil
	}
}

// dbFingerprint renders the named base tables sorted, for cross-side and
// cross-run identity checks.
func dbFingerprint(db *ojv.Database, tables []string) string {
	var sb strings.Builder
	for _, t := range tables {
		rows := db.TableSnapshot(t).Rows()
		rel.SortRows(rows)
		sb.WriteString(t)
		sb.WriteString(":\n")
		for _, r := range rows {
			sb.WriteString(r.String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// viewRowsFingerprint renders a view's rows sorted.
func viewRowsFingerprint(v *ojv.View) string {
	rows := v.Rows()
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}
