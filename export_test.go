package ojv

import "reflect"

// StatementScratch reports whether table's statement component is cached
// (tableComponent) and, if so, whether its step and staging scratch are
// empty, as they must be between statements: the cache pins none of a
// statement's rows, changesets or stats.
func (db *Database) StatementScratch(table string) (cached, empty bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	c := db.components[table]
	if c == nil {
		return false, true
	}
	for _, st := range c.steps[:cap(c.steps)] {
		if !reflect.ValueOf(st).IsZero() {
			return true, false
		}
	}
	for _, s := range c.staged[:cap(c.staged)] {
		if s != (stagedFamily{}) {
			return true, false
		}
	}
	return true, true
}
