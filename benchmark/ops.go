package main

import (
	"fmt"

	"ojv"
	"ojv/internal/rel"
)

type opKind uint8

const (
	opInsert opKind = iota
	opDelete
	opUpdate
	// opFlush is WriteBatch.Flush: the commit boundary of a batch workload.
	opFlush
)

func (k opKind) String() string {
	return [...]string{"insert", "delete", "update", "flush"}[k]
}

// op is one caller-visible write call. A workload's cycle is a fixed list of
// ops that, applied in order, returns every table and view to the contents
// it started from — so a run's length is set by the clock, never by data.
type op struct {
	kind  opKind
	table string
	rows  []rel.Row     // opInsert
	keys  [][]rel.Value // opDelete
	key   []rel.Value   // opUpdate
	row   rel.Row       // opUpdate
}

// rowCount is the number of base-table rows the call presents.
func (o op) rowCount() int {
	switch o.kind {
	case opInsert:
		return len(o.rows)
	case opDelete:
		return len(o.keys)
	case opUpdate:
		return 1
	}
	return 0
}

// writer is the write surface both *ojv.Database (synchronous statements)
// and *ojv.WriteBatch (staged statements) offer.
type writer interface {
	Insert(table string, rows []ojv.Row) error
	Delete(table string, keys [][]ojv.Value) ([]ojv.Row, error)
	Update(table string, key []ojv.Value, newRow ojv.Row) error
}

// instance is one set-up database with its views and its statement cycle.
type instance struct {
	db     *ojv.Database
	tables []string
	views  []*ojv.View
	// batch is nil on synchronous workloads; w is batch when it is set and
	// db otherwise.
	batch *ojv.WriteBatch
	w     writer
	cycle []op
	// checkViews are the views the recompute oracle (View.Check) runs on.
	checkViews []*ojv.View
	// probeTable/probeRows are fresh, constraint-valid rows for the direct
	// rel and pipeline probes of the traced run.
	probeTable string
	probeRows  []rel.Row
	// createViewNs is the time spent in CreateView calls during set-up.
	createViewNs int64
	// viewHeapBytes is the live-heap growth across the CreateView calls, when
	// the set-up was asked to measure it.
	viewHeapBytes float64
}

func (in *instance) apply(o op) error {
	switch o.kind {
	case opInsert:
		return in.w.Insert(o.table, o.rows)
	case opDelete:
		_, err := in.w.Delete(o.table, o.keys)
		return err
	case opUpdate:
		return in.w.Update(o.table, o.key, o.row)
	case opFlush:
		return in.batch.Flush()
	}
	return fmt.Errorf("bench: unknown op kind %d", o.kind)
}

// commits reports whether a successful o is a commit boundary: every call on
// a synchronous workload, only the flush on a batch workload.
func (in *instance) commits(o op) bool {
	return in.batch == nil || o.kind == opFlush
}

func (in *instance) close() error {
	if in.batch != nil {
		return in.batch.Close()
	}
	return nil
}

// rowSetHash is an order-independent digest of a row set: the wrapping sum
// of each encoded row's hash, mixed with the count.
func rowSetHash(rows []rel.Row, buf []byte) (uint64, []byte) {
	var sum uint64
	for _, r := range rows {
		buf = rel.AppendEncoded(buf[:0], r...)
		sum += rel.Hash64(buf)
	}
	return sum ^ uint64(len(rows))*0x9E3779B97F4A7C15, buf
}

// encodedBytes is the size of the rows in the engine's own value encoding:
// the "user bytes" storage overheads are quoted against.
func encodedBytes(rows []rel.Row) int {
	n := 0
	var enc []byte
	for _, r := range rows {
		enc = rel.AppendEncoded(enc[:0], r...)
		n += len(enc)
	}
	return n
}

// fingerprint digests every base table and every view from their committed
// epochs. Equal fingerprints before and after a cycle prove the cycle
// restored the state; and because the state before the first cycle is the
// one CreateView materialised from the base tables, an equal fingerprint
// also proves every view still equals its recomputation.
func (in *instance) fingerprint() []uint64 {
	var out []uint64
	var buf []byte
	var h uint64
	for _, t := range in.tables {
		h, buf = rowSetHash(in.db.TableSnapshot(t).Rows(), buf)
		out = append(out, h)
	}
	for _, v := range in.views {
		h, buf = rowSetHash(v.Rows(), buf)
		out = append(out, h)
	}
	return out
}

func equalFingerprints(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
