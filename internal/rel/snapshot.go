package rel

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Snapshot support: a catalog (schemas, keys, foreign keys, declared
// secondary indexes and all rows) can be written to and restored from a
// stream. Registered views are not part of the snapshot — they are
// definitions over the catalog and are re-materialized after loading — and
// neither are the arrangements derived from them (unpinned indexes):
// re-creating the views re-derives those.

// wireValue is the gob representation of a Value: the kind and one field
// per payload type, of which at most the kind's own is non-zero (gob omits
// zero fields). The format predates the one-word Value and is kept as is.
type wireValue struct {
	Kind Kind
	I    int64
	F    float64
	S    string
}

func toWire(v Value) wireValue {
	switch v.kind {
	case KindFloat:
		return wireValue{Kind: v.kind, F: v.float()}
	case KindString:
		return wireValue{Kind: v.kind, S: v.str()}
	default:
		return wireValue{Kind: v.kind, I: v.int()}
	}
}

func (wv wireValue) value() Value {
	switch wv.Kind {
	case KindNull:
		return Null
	case KindFloat:
		return Float(wv.F)
	case KindString:
		return Str(wv.S)
	default:
		// Integer-like kinds, and kinds this version does not know: the
		// load's schema validation rejects the latter.
		return Value{kind: wv.Kind, w: uint64(wv.I)}
	}
}

// wireTable is the gob representation of one table.
type wireTable struct {
	Name    string
	Columns []Column
	Key     []string
	FKs     []ForeignKey
	Indexes []wireIndex
	Rows    [][]wireValue
}

type wireIndex struct {
	Name    string
	Columns []string
}

type wireCatalog struct {
	Tables []wireTable
}

// Save writes the catalog to w. Tables are emitted in creation order so a
// round trip preserves iteration order and foreign-key declarations load
// after both endpoints exist.
func (c *Catalog) Save(w io.Writer) error {
	var wc wireCatalog
	for _, name := range c.names {
		t := c.tables[name]
		wt := wireTable{Name: name, Columns: append([]Column(nil), t.schema...)}
		for i := range wt.Columns {
			wt.Columns[i].Table = "" // re-qualified on load
		}
		for _, kc := range t.keyCols {
			wt.Key = append(wt.Key, t.schema[kc].Name)
		}
		wt.FKs = append(wt.FKs, t.fks...)
		for _, ix := range t.indexes {
			if !ix.pinned {
				continue
			}
			var cols []string
			for _, c := range ix.cols {
				cols = append(cols, t.schema[c].Name)
			}
			wt.Indexes = append(wt.Indexes, wireIndex{Name: ix.name, Columns: cols})
		}
		for _, row := range t.Rows() {
			wr := make([]wireValue, len(row))
			for i, v := range row {
				wr[i] = toWire(v)
			}
			wt.Rows = append(wt.Rows, wr)
		}
		wc.Tables = append(wc.Tables, wt)
	}
	return gob.NewEncoder(w).Encode(wc)
}

// LoadCatalog restores a catalog previously written by Save. All key,
// NOT NULL and foreign-key invariants are re-validated during the load, so
// a corrupted or hand-edited snapshot cannot produce a catalog that
// violates them.
func LoadCatalog(r io.Reader) (*Catalog, error) {
	var wc wireCatalog
	if err := gob.NewDecoder(r).Decode(&wc); err != nil {
		return nil, fmt.Errorf("rel: decode snapshot: %w", err)
	}
	c := NewCatalog()
	for _, wt := range wc.Tables {
		if _, err := c.CreateTable(wt.Name, wt.Columns, wt.Key...); err != nil {
			return nil, err
		}
		rows := make([]Row, len(wt.Rows))
		for i, wr := range wt.Rows {
			row := make(Row, len(wr))
			for j, wv := range wr {
				row[j] = wv.value()
			}
			rows[i] = row
		}
		if err := c.Insert(wt.Name, rows); err != nil {
			return nil, err
		}
	}
	// Foreign keys and secondary indexes after all data is present.
	for _, wt := range wc.Tables {
		t := c.Table(wt.Name)
		for _, fk := range wt.FKs {
			if err := c.AddForeignKey(wt.Name, fk.Cols, fk.RefTable, fk.RefCols); err != nil {
				return nil, err
			}
		}
		for _, ix := range wt.Indexes {
			offsets := make([]int, len(ix.Columns))
			for i, col := range ix.Columns {
				offsets[i] = t.schema.MustIndexOf(wt.Name, col)
			}
			if t.IndexOnSet(offsets) == nil {
				if _, err := c.CreateIndex(wt.Name, ix.Name, ix.Columns...); err != nil {
					return nil, err
				}
			}
		}
	}
	return c, nil
}

// Restore replaces the catalog's tables, constraints and indexes, in place,
// with a snapshot written by Save (re-validated like LoadCatalog). The
// catalog keeps its identity, so everything holding it — open write
// queues, lock-free snapshot readers — observes the loaded tables, and its
// design generation moves, so no program compiled over the replaced tables
// survives. Callers
// publish epochs afterwards. On error the catalog is unchanged.
func (c *Catalog) Restore(r io.Reader) error {
	loaded, err := LoadCatalog(r)
	if err != nil {
		return err
	}
	c.tables, c.names, c.inbound = loaded.tables, loaded.names, loaded.inbound
	c.design.Add(1)
	return nil
}
