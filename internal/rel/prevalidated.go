package rel

import "fmt"

// Prevalidated appliers: the write pipeline's flush fast path.
//
// The group-commit pipeline validates every statement at enqueue time —
// schema, key uniqueness, and outbound foreign keys, all against the
// committed tables overlaid with the batch's own pending writes. Those
// checks are authoritative at flush as long as nothing else mutated the
// catalog in between, which the caller proves by comparing Version()
// snapshots under the database's write lock. When the proof holds, the
// appliers below skip re-validation and perform only the physical work:
// the row map assignment and the index maintenance.
//
// Two checks are never skipped:
//
//   - Inbound RESTRICT on delete. Enqueue defers it by design (the
//     referencing rows may themselves be deleted earlier in the same
//     flush), so DeletePrevalidated re-checks it against the current
//     table state.
//   - Key existence/uniqueness, as a cheap defensive probe. The version
//     guard makes a violation impossible; if one appears anyway the
//     applier fails cleanly instead of corrupting the row maps.
//
// Each applier takes the pre-encoded unique keys the pipeline already
// computed when it staged the rows, so the flush never re-encodes a key.

// Version returns the catalog's mutation counter. It increments on every
// committed change — row mutations, rollbacks, and schema changes — so an
// unchanged Version proves that any validation performed against the
// catalog earlier still holds. The counter itself is atomic (independent
// flush components bump it concurrently under their table-shard locks),
// but a caller using it as a validation witness must still read it under
// the lock that excludes the writers it is guarding against: the proof is
// "no writer ran in between", not merely "the read did not tear".
func (c *Catalog) Version() uint64 { return c.version.Load() }

// InsertPrevalidated inserts rows whose constraints the caller has already
// proven (see the package comment above); encKeys[i] must be KeyOf(rows[i]).
// On error no row is applied.
func (c *Catalog) InsertPrevalidated(table string, rows []Row, encKeys []string) error {
	t := c.tables[table]
	if t == nil {
		return fmt.Errorf("rel: unknown table %s", table)
	}
	if len(rows) != len(encKeys) {
		return fmt.Errorf("rel: table %s: %d rows with %d keys", table, len(rows), len(encKeys))
	}
	for i := range rows {
		if t.ContainsKey(encKeys[i]) {
			return fmt.Errorf("rel: table %s: duplicate key %v (stale prevalidation)", table, rows[i].Project(t.keyCols))
		}
	}
	for i, row := range rows {
		t.insertPrevalidated(row, encKeys[i])
	}
	c.version.Add(1)
	return nil
}

// UpdatePrevalidated replaces the row with the given pre-encoded key by
// newRow under the prevalidated contract: newRow's schema, unchanged key,
// and outbound foreign keys were proven at enqueue. It returns the old row.
func (c *Catalog) UpdatePrevalidated(table string, encKey string, newRow Row) (Row, error) {
	t := c.tables[table]
	if t == nil {
		return nil, fmt.Errorf("rel: unknown table %s", table)
	}
	if !t.ContainsKey(encKey) {
		return nil, fmt.Errorf("rel: table %s: update of missing row (stale prevalidation)", table)
	}
	old := t.replaceByKey(encKey, newRow)
	c.version.Add(1)
	return old, nil
}

// DeletePrevalidated removes the rows with the given keys (keys[i] decoded,
// encKeys[i] pre-encoded) and returns them. Existence was proven at
// enqueue; the inbound RESTRICT check still runs here, against the current
// table state, because enqueue defers it to flush time. On error no row is
// removed.
func (c *Catalog) DeletePrevalidated(table string, keys [][]Value, encKeys []string) ([]Row, error) {
	t := c.tables[table]
	if t == nil {
		return nil, fmt.Errorf("rel: unknown table %s", table)
	}
	if len(keys) != len(encKeys) {
		return nil, fmt.Errorf("rel: table %s: %d keys with %d encodings", table, len(keys), len(encKeys))
	}
	for i, kv := range keys {
		if !t.ContainsKey(encKeys[i]) {
			return nil, fmt.Errorf("rel: table %s: delete of missing row %v (stale prevalidation)", table, kv)
		}
		if err := c.checkRestrict(table, kv); err != nil {
			return nil, err
		}
	}
	out := make([]Row, 0, len(encKeys))
	for _, k := range encKeys {
		row, ok := t.deleteByKey(k)
		if !ok {
			return nil, fmt.Errorf("rel: table %s: concurrent delete of key", table)
		}
		out = append(out, row)
	}
	c.version.Add(1)
	return out, nil
}
